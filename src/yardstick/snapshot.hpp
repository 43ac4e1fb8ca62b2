// Cross-snapshot monitoring.
//
// Two production concerns from the paper:
//   * §5.2: path-based metrics use the forwarding-state-implied path
//     universe as their denominator, and state bugs can silently change
//     that universe — "we can guard against this risk by flagging to the
//     user when the size of the path universe changes dramatically
//     relative to prior state snapshots."
//   * §8.2: engineers run local metrics frequently "to more quickly catch
//     regressions in testing" — a coverage drop between snapshots is the
//     signal that a change removed effective testing.
//
// SnapshotMonitor implements both: feed it per-snapshot statistics and it
// flags dramatic universe changes and coverage regressions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "yardstick/report.hpp"

namespace yardstick::ys {

/// Per-snapshot summary retained by the monitor.
struct SnapshotStats {
  std::string label;
  uint64_t path_universe_size = 0;
  size_t rule_count = 0;
  size_t interface_count = 0;
  MetricRow coverage;
};

/// One flagged anomaly between consecutive snapshots.
struct SnapshotAlert {
  enum class Kind : uint8_t {
    PathUniverseShift,    // universe grew/shrank beyond the threshold
    CoverageRegression,   // a headline metric dropped beyond tolerance
    RuleCountShift,       // forwarding state changed size dramatically
  };
  Kind kind;
  std::string message;
};

[[nodiscard]] inline const char* to_string(SnapshotAlert::Kind k) {
  switch (k) {
    case SnapshotAlert::Kind::PathUniverseShift: return "path-universe-shift";
    case SnapshotAlert::Kind::CoverageRegression: return "coverage-regression";
    case SnapshotAlert::Kind::RuleCountShift: return "rule-count-shift";
  }
  return "?";
}

class SnapshotMonitor {
 public:
  /// Relative change in path-universe size considered dramatic ("absent
  /// major operational changes, this universe is not expected to change
  /// significantly from day-to-day", §5.2).
  static constexpr double kUniverseShiftThreshold = 0.2;
  /// Relative change in rule count considered dramatic.
  static constexpr double kRuleShiftThreshold = 0.2;
  /// Absolute drop in a coverage headline considered a regression.
  static constexpr double kCoverageDropTolerance = 0.01;

  /// Record a snapshot and return alerts relative to the previous one.
  std::vector<SnapshotAlert> record(SnapshotStats stats);

  [[nodiscard]] const std::vector<SnapshotStats>& history() const { return history_; }

 private:
  [[nodiscard]] static double relative_change(double before, double after) {
    if (before == 0.0) return after == 0.0 ? 0.0 : 1.0;
    return (after - before) / before;
  }

  std::vector<SnapshotStats> history_;
};

/// Compare two coverage reports metric by metric (overall and per-role);
/// returns human-readable regression descriptions (empty = no regression).
[[nodiscard]] std::vector<std::string> coverage_regressions(
    const CoverageReport& before, const CoverageReport& after, double tolerance = 0.01);

}  // namespace yardstick::ys
