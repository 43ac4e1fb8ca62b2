// Figure 6 + Figure 7 reproduction harness.
//
// Emits the exact panel series of the paper's case study on the synthetic
// regional network: for each test-suite stage, per-router-role bars of
// device (fractional), interface (fractional), rule (fractional) and rule
// (weighted) coverage — Fig. 6a-6d — followed by the Fig. 7 whole-network
// progression and the §7.3 headline improvement numbers. Each suite runs
// inside the engine, on its own index, the way the CLI runs it; the times
// printed are the run's `suite.run` span and its offline-phase spans.
//
// Expected shapes vs. the paper (absolute values depend on the synthetic
// topology; see EXPERIMENTS.md):
//   6a: device ~100% everywhere (hubs slightly lower), interfaces high
//       only on Aggregation, rule-fractional ~0, rule-weighted ~100%.
//   6b: rule-fractional >90% on ToR/Agg, mid-range on Spine/Hub.
//   6c: interface coverage near-complete except ToRs.
//   6d: spine/hub rule-fractional capped by wide-area routes; ToR
//       interfaces stay low (host ports untested).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "topo/regional.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

namespace {

enum Tests : unsigned { kOriginal = 1, kInternal = 2, kConnected = 4 };

/// One suite iteration: a Fig. 6 panel, a Fig. 7 row, or both.
struct Stage {
  const char* panel;  // null: Fig. 7 only
  unsigned tests;
  const char* fig7;  // null: Fig. 6 only
};

// Fig. 7 plots the suite iterations: original, +internal, final.
constexpr Stage kStages[] = {
    {"fig6a-original-suite", kOriginal, "start: original suite"},
    {nullptr, kOriginal | kInternal, "add: internal route check"},
    {"fig6b-internal-route-check", kInternal, nullptr},
    {"fig6c-connected-route-check", kConnected, nullptr},
    {"fig6d-final-suite", kOriginal | kInternal | kConnected, "add: connected route check"},
};

nettest::TestSuite make_suite(const Stage& stage, const topo::RegionalNetwork& region) {
  nettest::TestSuite suite(stage.panel != nullptr ? stage.panel : "fig7");
  if (stage.tests & kOriginal) {
    suite.add(std::make_unique<nettest::DefaultRouteCheck>(std::unordered_set<net::DeviceId>(
        region.routing.no_default_devices.begin(), region.routing.no_default_devices.end())));
    suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  }
  if (stage.tests & kInternal) suite.add(std::make_unique<nettest::InternalRouteCheck>());
  if (stage.tests & kConnected) suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  return suite;
}

void print_metrics(int width, const char* label, const ys::MetricRow& m) {
  std::printf("  %-*s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", width, label, m.device_fractional * 100.0,
              m.interface_fractional * 100.0, m.rule_fractional * 100.0,
              m.rule_weighted * 100.0);
}

}  // namespace

int main() {
  topo::RegionalNetwork region = topo::make_regional(topo::RegionalParams{});
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  std::printf("# bench_case_study: %s\n\n", region.network.summary().c_str());

  std::vector<std::pair<const char*, ys::MetricRow>> fig7;
  for (const Stage& stage : kStages) {
    const nettest::TestSuite suite = make_suite(stage, region);
    ys::CoverageReport report;
    size_t failures = 0;
    const bench::Run run = bench::measure([&] {
      bdd::BddManager mgr(packet::kNumHeaderBits);
      const ys::CoverageEngine engine(mgr, region.network, suite);
      for (const auto& r : engine.results()) failures += r.failures;
      report = engine.report();
    });
    if (stage.fig7 != nullptr) fig7.emplace_back(stage.fig7, report.overall);
    if (stage.panel == nullptr) continue;

    std::printf("%s\n", stage.panel);
    std::printf("  %-14s %10s %10s %10s %10s\n", "role", "device(f)", "iface(f)", "rule(f)",
                "rule(w)");
    for (const auto& row : report.by_role) {
      if (row.role == net::Role::Wan) continue;  // the paper plots router roles only
      print_metrics(14, to_string(row.role), row.metrics);
    }
    std::printf("  (tests: %.6fs, %zu failures; offline phase + report: %.6fs)\n\n",
                run.seconds({"suite.run"}), failures,
                run.offline_seconds() + run.seconds({"analysis.report"}));
  }

  std::printf("fig7-suite-iterations (all devices)\n");
  std::printf("  %-28s %10s %10s %10s %10s\n", "iteration", "device(f)", "iface(f)",
              "rule(f)", "rule(w)");
  for (const auto& [label, row] : fig7) print_metrics(28, label, row);

  const ys::MetricRow& start = fig7.front().second;
  const ys::MetricRow& end = fig7.back().second;
  const auto rel = [](double now, double was) {
    return was == 0.0 ? 0.0 : (now - was) / was * 100.0;
  };
  std::printf("\nheadline (paper: +89%% rules, +17%% interfaces within the first month)\n");
  std::printf("  rule coverage improvement:      +%.0f%% relative (%.1f%% -> %.1f%%)\n",
              rel(end.rule_fractional, start.rule_fractional), start.rule_fractional * 100.0,
              end.rule_fractional * 100.0);
  std::printf("  interface coverage improvement: +%.0f%% relative (%.1f%% -> %.1f%%)\n",
              rel(end.interface_fractional, start.interface_fractional),
              start.interface_fractional * 100.0, end.interface_fractional * 100.0);
  return 0;
}
