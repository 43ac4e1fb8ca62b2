// Suite optimization (DESIGN.md §14): the parallel coverage-matrix build and
// minimization fidelity on a k=8 fat tree.
//   1. The matrix build (its `analysis.suite_matrix` span) at 1 and at 4
//      threads under the harness's timing rule, each run on a fresh manager
//      and index; the two matrices must be bit-identical.
//   2. The minimized suite's rule coverage, recomputed through fresh
//      engines by the cross-check `yardstick optimize` runs
//      (ys::recompute_minimized), must EXACTLY equal the full suite's (the
//      set-cover stop condition's whole point).
//   3. The prioritized coverage/cost curve and the gap-report totals.
//
// Gate: YS_SUITEOPT_MIN_SPEEDUP (CI: 2), the least matrix-build speedup at
// 4 threads (the pairs' median); unset, only the two exactness gates run.
// Results go to stdout and BENCH_suiteopt.json.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/optimize.hpp"

using namespace yardstick;

namespace {

constexpr int kK = 8;
constexpr unsigned kThreads = 4;
constexpr size_t kShards = 4;

/// A production-shaped suite: the end-to-end tests arrive in kShards
/// slices by source ToR, the way pingmesh fleets slice their probes, which
/// also gives the parallel matrix build balanced work. Expensive shards
/// come first: the worker queue drains in suite order.
nettest::TestSuite make_suite() {
  nettest::TestSuite suite("suiteopt");
  for (size_t s = 0; s < kShards; ++s) {
    suite.add(std::make_unique<nettest::ToRReachability>(nettest::TestShard{s, kShards}));
  }
  for (size_t s = 0; s < kShards; ++s) {
    suite.add(std::make_unique<nettest::ToRPingmesh>(nettest::TestShard{s, kShards}));
  }
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  return suite;
}

}  // namespace

int main() {
  const topo::FatTree tree = bench::routed_fat_tree(kK);
  const nettest::TestSuite suite = make_suite();
  std::printf("# bench_suite_opt: k=%d (%zu routers, %zu rules), %zu tests, 1 vs %u threads\n",
              kK, tree.network.device_count(), tree.network.rule_count(), suite.size(),
              kThreads);
  bench::Envelope envelope("suiteopt");

  // --- 1. Serial vs parallel matrix build ----------------------------------
  ys::SuiteCoverageMatrix matrices[2];
  const auto build = [&](unsigned threads, ys::SuiteCoverageMatrix& out) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const dataplane::MatchSetIndex index(mgr, tree.network);
    const dataplane::Transfer transfer(index);
    return bench::measure(
        [&] { out = ys::build_suite_matrix(transfer, suite, threads); });
  };
  const auto [serial, parallel] = bench::alternate([&] { return build(1, matrices[0]); },
                                                   [&] { return build(kThreads, matrices[1]); });
  const auto matrix_s = [](const bench::Run& run) {
    return run.seconds({"analysis.suite_matrix"});
  };
  const bench::Timing serial_t = bench::timing(serial, matrix_s);
  const bench::Timing parallel_t = bench::timing(parallel, matrix_s);
  const double speedup = bench::median_ratio(serial, parallel, matrix_s);
  std::printf("# matrix build, %d pairs: medians 1 thread %.6fs, %u threads %.6fs; median "
              "speedup %.2fx (cold pair %.6fs vs %.6fs)\n",
              bench::kPairs, serial_t.median_s, kThreads, parallel_t.median_s, speedup,
              serial_t.cold_s, parallel_t.cold_s);
  envelope.config("matrix, 1 thread", serial.timed, serial_t.values());
  bench::Values parallel_values = parallel_t.values();
  parallel_values.emplace_back("median_speedup", speedup);
  envelope.config("matrix, 4 threads", parallel.timed, parallel_values);
  const ys::SuiteCoverageMatrix& m = matrices[0];
  const ys::SuiteCoverageMatrix& p = matrices[1];
  const bool identical = m.covers == p.covers && m.vacuous == p.vacuous &&
                         m.vacuous_count == p.vacuous_count && m.rule_count == p.rule_count;

  // --- 2. Minimization + exact recomputation; 3. gap report -----------------
  ys::MinimizeResult min = ys::minimize_suite(m);
  ys::GapReport gaps;
  const bench::Run recompute = bench::measure([&] {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const ys::CoverageEngine full(mgr, tree.network, suite);
    ys::recompute_minimized(min, full, suite);
    gaps = ys::build_gap_report(full);
  });
  const bool exact = min.recomputed_full == min.recomputed_subset &&
                     min.achieved_coverage == min.recomputed_subset;
  std::printf("# minimize: kept %zu/%zu tests, coverage %.6f (recomputed full %.6f, "
              "subset %.6f)\n",
              min.selected.size(), min.suite_size, min.achieved_coverage,
              min.recomputed_full, min.recomputed_subset);
  for (const ys::PrioritizedTest& t : ys::prioritize_suite(m).order) {
    std::printf("#   prioritize: %-20s +%.6f in %.6fs -> %.6f after %.6fs\n", t.name.c_str(),
                t.marginal, t.seconds, t.cumulative_coverage, t.cumulative_seconds);
  }
  std::printf("# gap report: %zu uncovered rules, %zu packet witnesses, %zu state-only\n",
              gaps.uncovered_rules, gaps.packet_witnesses, gaps.state_only);
  envelope.config("minimize and recompute", recompute,
                  {{"kept", static_cast<double>(min.selected.size())},
                   {"suite_size", static_cast<double>(min.suite_size)},
                   {"full_coverage", min.full_coverage},
                   {"achieved_coverage", min.achieved_coverage},
                   {"recomputed_full", min.recomputed_full},
                   {"recomputed_subset", min.recomputed_subset},
                   {"uncovered_rules", static_cast<double>(gaps.uncovered_rules)},
                   {"packet_witnesses", static_cast<double>(gaps.packet_witnesses)},
                   {"state_only", static_cast<double>(gaps.state_only)}});

  envelope.gate("matrices identical at 1 and 4 threads", identical, 1, identical);
  envelope.gate("minimized suite recomputes to the full suite's coverage", exact, 1, exact);
  const double min_speedup = bench::knob("YS_SUITEOPT_MIN_SPEEDUP", 0.0);
  if (min_speedup > 0.0) {
    envelope.gate("median matrix-build speedup at 4 threads", speedup, min_speedup,
                  speedup >= min_speedup);
  }
  return envelope.write("BENCH_suiteopt.json");
}
