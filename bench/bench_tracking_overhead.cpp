// Figure 8 reproduction: the overhead of coverage tracking.
//
// For each fat-tree size (YS_FATTREE_KS, default "4 8 12 16") the four §8.1
// tests (DefaultRouteCheck, ToRContract, ToRReachability, ToRPingmesh) run
// as one suite with the tracker off and on, under the harness's timing
// rule. Each test's time is its `suite.test` span, which on the tracker-on
// side holds the fold of the test's reports into the trace (its
// `tracker.fold` spans, printed as their own column); the table reports
// each side's median and the pairs' median overhead. Then the tracker
// ablation at the largest k: bound 1, one union per report as it arrives,
// against the default bound, one batched fold per test. A failing test
// fails the bench.
//
// Expected shape (paper §8.1): absolute overhead small; relative overhead
// largest on the cheap state-inspection test and under ~10% whenever the
// baseline test is substantial; ToRReachability is by far the slowest
// test.
#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"

using namespace yardstick;

namespace {

/// The most reports one fold of the run took: the buffer's peak.
uint64_t peak_pending(const bench::Run& run) {
  uint64_t peak = 0;
  for (const obs::TraceEvent& e : run.spans) {
    if (std::string_view(e.name) != "tracker.fold") continue;
    for (int a = 0; a < e.num_args; ++a) {
      if (std::string_view(e.args[a].key) == "reports") peak = std::max(peak, e.args[a].value);
    }
  }
  return peak;
}

}  // namespace

int main() {
  const std::vector<int> ks = bench::knob_list("YS_FATTREE_KS", {4, 8, 12, 16});
  const nettest::TestSuite suite = bench::suite<nettest::DefaultRouteCheck, nettest::ToRContract,
                                                nettest::ToRReachability, nettest::ToRPingmesh>();
  int exit_code = 0;
  const auto check = [&](const std::vector<nettest::TestResult>& results, int k) {
    for (const nettest::TestResult& r : results) {
      if (r.passed()) continue;
      std::fprintf(stderr, "bench_tracking_overhead: %s failed %zu checks at k=%d\n",
                   r.name.c_str(), r.failures, k);
      exit_code = 1;
    }
  };
  std::printf("# bench_tracking_overhead (Figure 8), %d pairs per k; on(s) holds fold(s)\n",
              bench::kPairs);
  std::printf("%4s %7s  %-18s %12s %12s %12s %10s\n", "k", "routers", "test", "off(s)", "on(s)",
              "fold(s)", "overhead");
  for (const int k : ks) {
    const topo::FatTree tree = bench::routed_fat_tree(k);
    // Every run gets a fresh manager, index and tracker, as a suite run on
    // a new snapshot does: a shared manager would answer a repeated run's
    // unions from the nodes and apply cache of the run before.
    const auto run = [&](bool tracking) {
      bdd::BddManager mgr(packet::kNumHeaderBits);
      const dataplane::MatchSetIndex index(mgr, tree.network);
      const dataplane::Transfer transfer(index);
      ys::CoverageTracker tracker;
      tracker.set_enabled(tracking);
      return bench::measure([&] { check(suite.run_all(transfer, tracker), k); });
    };
    const auto [off, on] = bench::alternate([&] { return run(false); },
                                            [&] { return run(true); });
    for (size_t i = 0; i < suite.size(); ++i) {
      const auto test_s = [i](const bench::Run& r) { return r.test_seconds(i); };
      const auto fold_s = [i](const bench::Run& r) {
        return r.seconds_within_test(i, "tracker.fold");
      };
      std::printf("%4d %7zu  %-18s %12.6f %12.6f %12.6f %9.1f%%\n", k,
                  tree.network.device_count(), suite.test(i).name().c_str(),
                  bench::timing(off, test_s).median_s, bench::timing(on, test_s).median_s,
                  bench::timing(on, fold_s).median_s,
                  (bench::median_ratio(on, off, test_s) - 1.0) * 100.0);
    }
  }

  // Tracker ablation (DESIGN.md §19): bound 1 unions each report into its
  // location as it arrives, as the paper's tracker does, and leaves every
  // intermediate union in the arena; the default bound folds the test's
  // reports at once, one memo for every location. Track time is an
  // untraced run (test and folds); fold time and the buffer's peak come
  // from a traced one, since bound 1 folds once per report.
  const int k = ks.back();
  std::printf("\n# tracker ablation: bound 1 vs bound %zu (k=%d), one run each\n",
              ys::CoverageTracker::kBound, k);
  std::printf("  %-12s %6s %10s %10s %13s %10s\n", "test", "bound", "track(s)", "fold(s)",
              "peak_pending", "new_nodes");
  const topo::FatTree tree = bench::routed_fat_tree(k);
  std::vector<nettest::TestSuite> ablated;
  ablated.push_back(bench::suite<nettest::ToRContract>());
  ablated.push_back(bench::suite<nettest::ToRPingmesh>());
  for (const nettest::TestSuite& one : ablated) {
    for (const size_t bound : {size_t{1}, ys::CoverageTracker::kBound}) {
      size_t new_nodes = 0;
      const auto once = [&](bool traced) {
        bdd::BddManager mgr(packet::kNumHeaderBits);
        const dataplane::MatchSetIndex index(mgr, tree.network);
        const dataplane::Transfer transfer(index);
        ys::CoverageTracker tracker(bound);
        const size_t before = mgr.arena_size();
        const bench::Run r = bench::measure([&] { check(one.run_all(transfer, tracker), k); },
                                            traced);
        new_nodes = mgr.arena_size() - before;
        return r;
      };
      const bench::Run plain = once(false);
      const bench::Run traced = once(true);
      std::printf("  %-12s %6zu %10.6f %10.6f %13llu %10zu\n", one.test(0).name().c_str(),
                  bound, plain.seconds({"bench.run"}), traced.seconds({"tracker.fold"}),
                  static_cast<unsigned long long>(peak_pending(traced)), new_nodes);
    }
  }
  return exit_code;
}
