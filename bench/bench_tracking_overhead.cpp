// Figure 8 reproduction: the overhead of coverage tracking.
//
// For each fat-tree size (YS_FATTREE_KS, default "4 8 12 16") the four §8.1
// tests (DefaultRouteCheck, ToRContract, ToRReachability, ToRPingmesh) run
// as one suite with the tracker off and on, under the harness's timing
// rule; each test's time is its `suite.test` span, and the table reports
// each side's median and the pairs' median overhead. Then the
// dedup-vs-log tracker ablation: trace memory stays flat vs grows with
// tracker calls. A failing test fails the bench.
//
// Expected shape (paper §8.1): absolute overhead small; relative overhead
// largest on the cheap state-inspection test and under ~10% whenever the
// baseline test is substantial; ToRReachability is by far the slowest
// test.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"

using namespace yardstick;

int main() {
  const std::vector<int> ks = bench::knob_list("YS_FATTREE_KS", {4, 8, 12, 16});
  const nettest::TestSuite suite = bench::suite<nettest::DefaultRouteCheck, nettest::ToRContract,
                                                nettest::ToRReachability, nettest::ToRPingmesh>();
  int exit_code = 0;
  std::printf("# bench_tracking_overhead (Figure 8), %d pairs per k\n", bench::kPairs);
  std::printf("%4s %7s  %-18s %12s %12s %10s\n", "k", "routers", "test", "off(s)", "on(s)",
              "overhead");
  for (const int k : ks) {
    const topo::FatTree tree = bench::routed_fat_tree(k);
    // Every run gets a fresh manager, index and tracker, as a suite run on
    // a new snapshot does: a shared manager's apply cache would answer a
    // repeated run's tracker unions from the run before.
    const auto run = [&](bool tracking) {
      bdd::BddManager mgr(packet::kNumHeaderBits);
      const dataplane::MatchSetIndex index(mgr, tree.network);
      const dataplane::Transfer transfer(index);
      ys::CoverageTracker tracker;
      tracker.set_enabled(tracking);
      return bench::measure([&] {
        for (const nettest::TestResult& r : suite.run_all(transfer, tracker)) {
          if (r.passed()) continue;
          std::fprintf(stderr, "bench_tracking_overhead: %s failed %zu checks at k=%d\n",
                       r.name.c_str(), r.failures, k);
          exit_code = 1;
        }
      });
    };
    const auto [off, on] = bench::alternate([&] { return run(false); },
                                            [&] { return run(true); });
    for (size_t i = 0; i < suite.size(); ++i) {
      const auto test_s = [i](const bench::Run& r) { return r.test_seconds(i); };
      std::printf("%4d %7zu  %-18s %12.6f %12.6f %9.1f%%\n", k, tree.network.device_count(),
                  suite.test(i).name().c_str(), bench::timing(off, test_s).median_s,
                  bench::timing(on, test_s).median_s,
                  (bench::median_ratio(on, off, test_s) - 1.0) * 100.0);
    }
  }

  // Dedup-vs-log ablation (DESIGN.md §5): the on-the-fly union keeps the
  // trace bounded by distinct state touched; the append log grows with
  // every markPacket call and folds when the trace is read.
  std::printf("\n# tracker ablation: on-the-fly dedup vs append-only log (k=%d)\n", ks.front());
  const topo::FatTree tree = bench::routed_fat_tree(ks.front());
  const nettest::TestSuite pingmesh = bench::suite<nettest::ToRPingmesh>();
  for (const auto mode : {ys::CoverageTracker::Mode::Dedup, ys::CoverageTracker::Mode::Log}) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const dataplane::MatchSetIndex index(mgr, tree.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker(mode);
    const bench::Run track = bench::measure([&] { (void)pingmesh.run_all(transfer, tracker); });
    const size_t pending = tracker.log_entries();
    size_t locations = 0;
    const bench::Run fold = bench::measure(
        [&] { locations = tracker.trace().marked_packets().location_count(); });
    std::printf("  mode=%-6s track=%.6fs pending_log_entries=%zu fold=%.6fs "
                "trace_locations=%zu\n",
                mode == ys::CoverageTracker::Mode::Dedup ? "dedup" : "log",
                track.test_seconds(0), pending, fold.seconds({"bench.run"}), locations);
  }
  return exit_code;
}
