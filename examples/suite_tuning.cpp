// Suite tuning: find redundant tests, keep the smallest subset that loses
// no coverage, and synthesize probes for what remains untested.
//
// §7.2's closing argument is that coverage metrics redirect effort from
// redundant tests toward tests that provably add coverage. This example
// runs a deliberately bloated suite (two copies of the default-route
// inspection plus overlapping contract checks), reads each test's
// contribution off the suite's coverage matrix, minimizes the suite, and
// asks the gap report for concrete packets that would close the remaining
// gaps.
#include <cstdio>
#include <memory>

#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/optimize.hpp"

using namespace yardstick;

int main() {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  std::printf("%s\n\n", tree.network.summary().c_str());

  // A bloated suite: duplicated inspection + two contract checks whose
  // coverage overlaps heavily (ToRContract subsumes the loopback check on
  // this topology, which has no loopbacks).
  nettest::TestSuite suite("bloated");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ConnectedRouteCheck>());

  // The merged run, on the engine's own match-set index.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const ys::CoverageEngine engine(mgr, tree.network, suite);

  // Each test in isolation, on the same index.
  const ys::SuiteCoverageMatrix matrix = ys::build_suite_matrix(engine.transfer(), suite);
  std::printf("per-test contributions (fractional rule coverage):\n");
  std::printf("  %-24s %10s %10s %s\n", "test", "solo", "marginal", "verdict");
  for (const ys::TestContribution& t : ys::test_contributions(matrix)) {
    std::printf("  %-24s %9.1f%% %9.1f%% %s\n", t.name.c_str(), t.solo * 100.0,
                t.marginal * 100.0, t.redundant ? "REDUNDANT" : "keep");
  }

  const ys::MinimizeResult minimized = ys::minimize_suite(matrix);
  std::printf("\nsmallest subset with the full suite's coverage:\n");
  for (const ys::SelectedTest& t : minimized.selected) {
    std::printf("  keep %-24s cumulative %.1f%%\n", t.name.c_str(),
                t.cumulative_coverage * 100.0);
  }
  std::printf("  full suite: %.1f%%\n", minimized.full_coverage * 100.0);

  // What the suite still misses, as ready-to-run probes.
  std::printf("\nsuggested probes for untested rules (first 5):\n");
  size_t shown = 0;
  for (const ys::DeviceGaps& d : ys::build_gap_report(engine).devices) {
    for (const ys::GapWitness& g : d.gaps) {
      if (g.state_only || shown == 5) continue;
      ++shown;
      std::printf("  inject at %s: %s (exercises %s)\n", d.name.c_str(),
                  g.witness.to_string().c_str(), tree.network.rule_to_string(g.rule).c_str());
    }
  }
  return 0;
}
