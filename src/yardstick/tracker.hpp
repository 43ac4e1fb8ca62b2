// CoverageTracker — Yardstick's online phase (§5, Figure 4).
//
// Testing tools report coverage through exactly two calls while tests run:
//
//     tracker.mark_packet(P);   // behavioral tests: located packets used
//     tracker.mark_rule(r);     // state-inspection tests: rule inspected
//
// A rule goes straight into the trace's rule set. A packet report is
// appended to a bounded buffer, and the buffer is folded into the compact
// coverage trace (one set per location) when it is full and whenever the
// trace is read: one batched union per location, with one memo shared by
// every location of the fold (DESIGN.md §19). A test that marks the same
// sets at many locations pays for their union once, and the buffer's
// memory stays bounded however many calls the tool makes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "coverage/trace.hpp"
#include "obs/trace.hpp"

namespace yardstick::ys {

class CoverageTracker {
 public:
  /// Reports the buffer holds before it folds. 2^16 reports of 8 B cap
  /// it at 512 KiB, and no test of the `final` suite folds twice at k=16,
  /// where InternalRouteCheck makes 40,960 reports (DESIGN.md §19).
  static constexpr size_t kBound = size_t{1} << 16;

  CoverageTracker() = default;
  /// A tracker whose buffer folds every `bound` (>= 1) reports; bound 1
  /// unions each report into the trace one at a time, as a per-call union
  /// would (the ablation in bench_tracking_overhead).
  explicit CoverageTracker(size_t bound) : bound_(bound) {}

  /// Turn reporting on/off without touching the instrumented tool; a
  /// disabled tracker makes both API calls no-ops (used to measure the
  /// bare test time in Figure 8).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void mark_packet(const packet::LocatedPacketSet& packets) {
    if (!enabled_) return;
    ++packet_calls_;
    for (const auto& [loc, ps] : packets.entries()) append(loc, ps);
  }

  void mark_packet(packet::LocationId location, const packet::PacketSet& packets) {
    if (!enabled_) return;
    ++packet_calls_;
    append(location, packets);
  }

  void mark_rule(net::RuleId rule) {
    if (!enabled_) return;
    ++rule_calls_;
    trace_.mark_rule(rule);
  }

  /// The coverage trace accumulated so far, with the buffer folded in.
  [[nodiscard]] const coverage::CoverageTrace& trace() {
    fold();
    return trace_;
  }

  /// Moves the trace out, folded as trace() folds it; the tracker's trace
  /// is left empty.
  [[nodiscard]] coverage::CoverageTrace take_trace() {
    fold();
    return std::exchange(trace_, {});
  }

  void reset() {
    trace_.clear();
    pending_.clear();
    packet_calls_ = 0;
    rule_calls_ = 0;
  }

  [[nodiscard]] uint64_t packet_calls() const { return packet_calls_; }
  [[nodiscard]] uint64_t rule_calls() const { return rule_calls_; }
  /// The non-empty reports not folded yet, in call order; their sets live
  /// in the reporter's manager.
  [[nodiscard]] std::span<const coverage::PacketReport> pending() const { return pending_; }

 private:
  /// Buffers one report, folding first when the buffer is full or holds
  /// another manager's sets, so it never holds more than bound_ reports,
  /// even after a fold that threw.
  void append(packet::LocationId location, const packet::PacketSet& packets) {
    if (packets.empty()) return;
    if (pending_.size() >= bound_ || packets.raw().manager() != manager_) fold();
    manager_ = packets.raw().manager();
    pending_.push_back({location, packets.raw().index()});
  }

  /// One `tracker.fold` span per non-empty fold. The trace and the
  /// buffer's reports are unchanged when the fold throws.
  void fold() {
    if (pending_.empty()) return;
    obs::Span span("tracker.fold", "online");
    span.arg("reports", pending_.size());
    span.arg("locations", trace_.fold(*manager_, pending_));
    pending_.clear();
  }

  size_t bound_ = kBound;
  bool enabled_ = true;
  coverage::CoverageTrace trace_;
  /// Reports of 8 B; manager_ holds their sets.
  std::vector<coverage::PacketReport> pending_;
  bdd::BddManager* manager_ = nullptr;
  uint64_t packet_calls_ = 0;
  uint64_t rule_calls_ = 0;
};

}  // namespace yardstick::ys
