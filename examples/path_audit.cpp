// Path and flow coverage on a fat-tree (§4.3.2, §5.2).
//
// Demonstrates the expensive end of the metric spectrum: enumerate the
// path universe symbolically (streamed, never materialized), compute
// Equation-(3) coverage for every path, and zoom into individual flows.
// Shows why local metrics are the daily drivers and path metrics the
// periodic deep audit (§8.2).
#include <chrono>
#include <cstdio>
#include <memory>

#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

int main() {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  std::printf("fat-tree k=4: %s\n\n", tree.network.summary().c_str());

  // Run a mixed suite: pingmesh probes a single packet per ToR pair, the
  // default-route inspection covers the fat default rules.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::CoverageTracker tracker;
  nettest::TestSuite suite("audit");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRPingmesh>());
  const ys::CoverageEngine engine(
      mgr, tree.network,
      [&](const dataplane::Transfer& transfer) -> const coverage::CoverageTrace& {
        for (const auto& result : suite.run_all(transfer, tracker)) {
          std::printf("test %-18s %s (%zu checks)\n", result.name.c_str(),
                      result.passed() ? "PASS" : "FAIL", result.checks);
        }
        return tracker.trace();
      });

  // --- Local metrics: cheap ---
  const auto t0 = std::chrono::steady_clock::now();
  const double rule_frac = engine.rules_coverage(coverage::fractional_aggregator());
  const double elapsed_local =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("\nfractional rule coverage: %.1f%% (computed in %.3fs)\n",
              rule_frac * 100.0, elapsed_local);

  // --- Path universe: the expensive audit ---
  const auto t1 = std::chrono::steady_clock::now();
  const ys::PathCoverageResult paths = engine.path_coverage();
  const double elapsed_paths =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
  std::printf("path universe: %llu paths, %llu covered (fractional %.1f%%, mean %.1f%%)"
              " in %.3fs%s\n",
              static_cast<unsigned long long>(paths.total_paths),
              static_cast<unsigned long long>(paths.covered_paths),
              paths.fractional * 100.0, paths.mean * 100.0, elapsed_paths,
              paths.truncated ? " [truncated]" : "");
  std::printf("  -> concrete pings touch one packet per path: many paths are\n"
              "     partially covered, few end-to-end in full.\n");

  // --- Flow zoom-in: one ToR pair, symbolically ---
  const net::DeviceId src = tree.tors.front();
  const net::DeviceId dst = tree.tors.back();
  const auto src_port = tree.network.ports_of_kind(src, net::PortKind::HostPort).front();
  const packet::PacketSet flow_headers = packet::PacketSet::dst_prefix(
      mgr, tree.network.device(dst).host_prefixes.front());
  const double flow_cov = engine.flow_coverage(src, src_port, flow_headers);
  std::printf("\nflow %s -> %s coverage: %.4f%%\n",
              tree.network.device(src).name.c_str(), tree.network.device(dst).name.c_str(),
              flow_cov * 100.0);
  std::printf("  (a single ping samples one packet out of %s in the flow's space)\n",
              bdd::to_string(flow_headers.count()).c_str());

  // Now strengthen testing of exactly that flow with a symbolic
  // reachability query and watch its coverage saturate.
  std::vector<nettest::ReachabilityQuery> queries;
  nettest::ReachabilityQuery q;
  q.source = src;
  q.source_interface = src_port;
  q.headers = flow_headers;
  queries.push_back(q);
  (void)nettest::ReachabilityTest("FlowProbe", std::move(queries))
      .run(engine.transfer(), tracker);

  const ys::CoverageEngine engine2(mgr, tree.network, tracker.trace());
  std::printf("after adding a symbolic end-to-end test for the flow: %.1f%%\n",
              engine2.flow_coverage(src, src_port, flow_headers) * 100.0);
  return 0;
}
