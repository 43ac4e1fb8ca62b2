#include "yardstick/snapshot.hpp"

#include <cmath>
#include <sstream>

namespace yardstick::ys {

namespace {

std::string percent(double v) {
  std::ostringstream out;
  out.precision(1);
  out << std::fixed << v * 100.0 << "%";
  return out.str();
}

void check_metric(std::vector<std::string>& out, const std::string& scope,
                  const char* metric, double before, double after, double tolerance) {
  if (before - after > tolerance) {
    out.push_back(scope + " " + metric + " dropped from " + percent(before) + " to " +
                  percent(after));
  }
}

void check_row(std::vector<std::string>& out, const std::string& scope,
               const MetricRow& before, const MetricRow& after, double tolerance) {
  check_metric(out, scope, "device coverage", before.device_fractional,
               after.device_fractional, tolerance);
  check_metric(out, scope, "interface coverage", before.interface_fractional,
               after.interface_fractional, tolerance);
  check_metric(out, scope, "rule coverage", before.rule_fractional, after.rule_fractional,
               tolerance);
  check_metric(out, scope, "weighted rule coverage", before.rule_weighted,
               after.rule_weighted, tolerance);
}

}  // namespace

std::vector<SnapshotAlert> SnapshotMonitor::record(SnapshotStats stats) {
  std::vector<SnapshotAlert> alerts;
  if (!history_.empty()) {
    const SnapshotStats& prev = history_.back();

    const double universe_shift = relative_change(
        static_cast<double>(prev.path_universe_size),
        static_cast<double>(stats.path_universe_size));
    if (std::abs(universe_shift) > kUniverseShiftThreshold) {
      std::ostringstream msg;
      msg << "path universe changed " << percent(universe_shift) << " (" << prev.label
          << ": " << prev.path_universe_size << " -> " << stats.label << ": "
          << stats.path_universe_size
          << "); path metrics are not comparable until this is understood";
      alerts.push_back({SnapshotAlert::Kind::PathUniverseShift, msg.str()});
    }

    const double rule_shift = relative_change(static_cast<double>(prev.rule_count),
                                              static_cast<double>(stats.rule_count));
    if (std::abs(rule_shift) > kRuleShiftThreshold) {
      std::ostringstream msg;
      msg << "forwarding state size changed " << percent(rule_shift) << " ("
          << prev.rule_count << " -> " << stats.rule_count << " rules)";
      alerts.push_back({SnapshotAlert::Kind::RuleCountShift, msg.str()});
    }

    std::vector<std::string> regressions;
    check_row(regressions, "overall", prev.coverage, stats.coverage, kCoverageDropTolerance);
    for (const std::string& r : regressions) {
      alerts.push_back({SnapshotAlert::Kind::CoverageRegression, r});
    }
  }
  history_.push_back(std::move(stats));
  return alerts;
}

std::vector<std::string> coverage_regressions(const CoverageReport& before,
                                              const CoverageReport& after,
                                              double tolerance) {
  std::vector<std::string> out;
  check_row(out, "overall", before.overall, after.overall, tolerance);
  for (const RoleBreakdown& b : before.by_role) {
    for (const RoleBreakdown& a : after.by_role) {
      if (a.role == b.role) {
        check_row(out, to_string(b.role), b.metrics, a.metrics, tolerance);
      }
    }
  }
  return out;
}

}  // namespace yardstick::ys
