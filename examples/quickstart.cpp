// Quickstart: build a small leaf-spine network, compute its forwarding
// state, run an instrumented test, and ask Yardstick how much of the
// network the test actually exercised.
//
//   $ ./quickstart
//
// Walks through the whole public API surface: topology construction, the
// BGP substrate, the test framework with its two-call coverage reporting,
// and the coverage engine's metrics and reports.
#include <cstdio>
#include <memory>

#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

int main() {
  // 1. A k=4 fat-tree (20 routers) with a WAN router on top.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  std::printf("topology: %s\n", tree.network.summary().c_str());

  // 2. Compute the forwarding state with the eBGP substrate.
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  std::printf("after routing: %s\n\n", tree.network.summary().c_str());

  // 3. Run a test suite. Tests report coverage through the tracker —
  //    markRule for state inspections, markPacket for behavioral tests.
  //    The engine runs them on the transfer function over the match sets
  //    it builds first (§5.2 step 1), so the snapshot is indexed once.
  nettest::TestSuite suite("quickstart");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());

  bdd::BddManager mgr(packet::kNumHeaderBits);
  const ys::CoverageEngine engine(mgr, tree.network, suite);
  for (const nettest::TestResult& result : engine.results()) {
    std::printf("test %-22s [%s] checks=%zu failures=%zu\n", result.name.c_str(),
                to_string(result.category), result.checks, result.failures);
  }
  std::printf("coverage trace: %zu rules marked, packets marked at %zu locations\n\n",
              engine.trace().marked_rules().size(),
              engine.trace().marked_packets().location_count());

  // 4. Phase 2: compute coverage metrics from the trace.
  std::printf("%s\n", engine.report().to_text().c_str());

  // 5. Drill into a single component: how well is the first core router
  //    tested, and which of its rules are untested?
  const net::DeviceId core = tree.cores.front();
  std::printf("device coverage of %s: %.1f%%\n",
              tree.network.device(core).name.c_str(),
              engine.device_coverage(core) * 100.0);
  const auto untested =
      engine.untested_rules([&](const net::Device& d) { return d.id == core; });
  std::printf("untested rules on it: %zu", untested.size());
  if (!untested.empty()) {
    std::printf(" (e.g. %s)", tree.network.rule_to_string(untested.front()).c_str());
  }
  std::printf("\n");
  return 0;
}
