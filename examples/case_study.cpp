// The §7 case study on the synthetic regional network.
//
// Replays one month of Yardstick deployment: run the original production
// suite (DefaultRouteCheck + AggCanReachTorLoopback), read the coverage
// report, find the three §7.2 gap categories (internal, connected,
// wide-area routes), add the two new tests the engineers wrote
// (InternalRouteCheck, ConnectedRouteCheck), and show the coverage
// improvement — the Figure 6/7 progression as a terminal session.
#include <cstdio>
#include <map>
#include <memory>

#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/regional.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

namespace {

ys::CoverageReport run_and_report(const topo::RegionalNetwork& region,
                                  bdd::BddManager& mgr, const nettest::TestSuite& suite) {
  ys::CoverageTracker tracker;
  std::printf("== suite '%s' ==\n", suite.name().c_str());
  const ys::CoverageEngine engine(
      mgr, region.network,
      [&](const dataplane::Transfer& transfer) -> const coverage::CoverageTrace& {
        for (const auto& result : suite.run_all(transfer, tracker)) {
          std::printf("  %-24s %s (%zu checks)\n", result.name.c_str(),
                      result.passed() ? "PASS" : "FAIL", result.checks);
        }
        return tracker.trace();
      });
  const ys::CoverageReport report = engine.report();
  std::printf("%s\n", report.to_text().c_str());
  return report;
}

}  // namespace

int main() {
  topo::RegionalParams params;  // the default two-datacenter region
  topo::RegionalNetwork region = topo::make_regional(params);
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  std::printf("regional network: %s\n\n", region.network.summary().c_str());

  bdd::BddManager mgr(packet::kNumHeaderBits);

  const std::unordered_set<net::DeviceId> excluded(
      region.routing.no_default_devices.begin(), region.routing.no_default_devices.end());

  // --- Month 0: the original test suite (Fig. 6a) ---
  nettest::TestSuite original("original");
  original.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
  original.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  const ys::CoverageReport before = run_and_report(region, mgr, original);

  std::printf("-> gap analysis: most rules are untested. By category:\n");
  for (const auto& gap : before.gaps) {
    std::printf("   %-11s %4zu / %-4zu untested\n", to_string(gap.kind), gap.untested,
                gap.total);
  }
  std::printf("   (the three §7.2 categories: internal routes, connected routes,\n"
              "    wide-area routes)\n\n");

  // --- The two new tests (Fig. 6b, 6c) ---
  nettest::TestSuite internal_only("internal-route-check");
  internal_only.add(std::make_unique<nettest::InternalRouteCheck>());
  (void)run_and_report(region, mgr, internal_only);

  nettest::TestSuite connected_only("connected-route-check");
  connected_only.add(std::make_unique<nettest::ConnectedRouteCheck>());
  (void)run_and_report(region, mgr, connected_only);

  // --- Month 1: the final suite (Fig. 6d / Fig. 7) ---
  nettest::TestSuite final_suite("final");
  final_suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
  final_suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  final_suite.add(std::make_unique<nettest::InternalRouteCheck>());
  final_suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  const ys::CoverageReport after = run_and_report(region, mgr, final_suite);

  const auto rel = [](double now, double was) {
    return was == 0.0 ? 0.0 : (now - was) / was * 100.0;
  };
  std::printf("== month-over-month improvement (the paper's headline) ==\n");
  std::printf("  rule coverage:      %.1f%% -> %.1f%%  (+%.0f%% relative)\n",
              before.overall.rule_fractional * 100.0, after.overall.rule_fractional * 100.0,
              rel(after.overall.rule_fractional, before.overall.rule_fractional));
  std::printf("  interface coverage: %.1f%% -> %.1f%%  (+%.0f%% relative)\n",
              before.overall.interface_fractional * 100.0,
              after.overall.interface_fractional * 100.0,
              rel(after.overall.interface_fractional, before.overall.interface_fractional));
  std::printf("\nremaining gaps after the final suite (Fig. 6d):\n");
  for (const auto& gap : after.gaps) {
    if (gap.untested > 0) {
      std::printf("  %-11s %4zu / %-4zu untested\n", to_string(gap.kind), gap.untested,
                  gap.total);
    }
  }
  std::printf("  -> wide-area routes await a specification (§7.3), and ToR\n"
              "     host-facing interfaces still need a dedicated test.\n");
  return 0;
}
