// CoverageTracker — Yardstick's online phase (§5, Figure 4).
//
// Testing tools report coverage through exactly two calls while tests run:
//
//     tracker.mark_packet(P);   // behavioral tests: located packets used
//     tracker.mark_rule(r);     // state-inspection tests: rule inspected
//
// The tracker folds reports into the compact coverage trace on the fly
// (union per location; a set of rule ids), so tracking cost stays off the
// critical testing path and is independent of how many API calls the tool
// makes. An append-only log mode exists for the design-choice ablation
// measured in bench_tracking_overhead.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "coverage/trace.hpp"

namespace yardstick::ys {

class CoverageTracker {
 public:
  enum class Mode : uint8_t {
    /// Maintain the (P_T, R_T) union incrementally (the paper's design).
    Dedup,
    /// Append raw reports; the union is folded when the trace is read
    /// (ablation baseline: memory grows with the number of API calls).
    Log,
  };

  explicit CoverageTracker(Mode mode = Mode::Dedup) : mode_(mode) {}

  /// Turn reporting on/off without touching the instrumented tool; a
  /// disabled tracker makes both API calls no-ops (used to measure the
  /// bare test time in Figure 8).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void mark_packet(const packet::LocatedPacketSet& packets) {
    if (!enabled_) return;
    ++packet_calls_;
    if (mode_ == Mode::Dedup) {
      trace_.mark_packet(packets);
    } else {
      for (const auto& [loc, ps] : packets.entries()) log_.emplace_back(loc, ps);
    }
  }

  void mark_packet(packet::LocationId location, const packet::PacketSet& packets) {
    if (!enabled_) return;
    ++packet_calls_;
    if (mode_ == Mode::Dedup) {
      trace_.mark_packet(location, packets);
    } else {
      log_.emplace_back(location, packets);
    }
  }

  void mark_rule(net::RuleId rule) {
    if (!enabled_) return;
    ++rule_calls_;
    trace_.mark_rule(rule);
  }

  /// The coverage trace accumulated so far. In Log mode this folds the
  /// pending log into the trace first.
  [[nodiscard]] const coverage::CoverageTrace& trace() {
    for (const auto& [loc, ps] : log_) trace_.mark_packet(loc, ps);
    log_.clear();
    return trace_;
  }

  /// Moves the trace out, folded as trace() folds it; the tracker's trace
  /// is left empty.
  [[nodiscard]] coverage::CoverageTrace take_trace() {
    (void)trace();
    return std::exchange(trace_, {});
  }

  void reset() {
    trace_.clear();
    log_.clear();
    packet_calls_ = 0;
    rule_calls_ = 0;
  }

  [[nodiscard]] uint64_t packet_calls() const { return packet_calls_; }
  [[nodiscard]] uint64_t rule_calls() const { return rule_calls_; }
  [[nodiscard]] size_t log_entries() const { return log_.size(); }

 private:
  Mode mode_;
  bool enabled_ = true;
  coverage::CoverageTrace trace_;
  std::vector<std::pair<packet::LocationId, packet::PacketSet>> log_;
  uint64_t packet_calls_ = 0;
  uint64_t rule_calls_ = 0;
};

}  // namespace yardstick::ys
