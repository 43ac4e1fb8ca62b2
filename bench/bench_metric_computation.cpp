// Figure 9 reproduction: time to compute coverage metrics after testing.
//
// For each fat-tree size (YS_FATTREE_KS, default "4 8 12 16"), collect a
// realistic trace (DefaultRouteCheck + ToRContract + ToRPingmesh), then run
// the offline phase and the path-coverage sweep on a fresh manager, once at
// 1 thread and once at 4. Stage times are the engine's spans: steps 1-3
// (match sets, covered sets, the measure table every local metric folds
// over, so all three local metrics together cost one table) and the path
// sweep, capped at YS_PATH_BUDGET_S seconds (default 60; the paper's
// 1-hour timeout). The 1- and 4-thread results must be identical (n/a when
// the budget truncated either sweep, marked `+` after the path count:
// truncation points are timing-dependent by design).
//
// Two more sections reuse the workload: the Equation-3 ablation (DESIGN.md
// §5) and the observability overhead gate (DESIGN.md §9): the offline phase
// plus all local metrics at k=16 with tracing off vs on, under the
// harness's timing rule, must cost < 3% more traced. Results go to stdout
// and BENCH_observability.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

namespace {

constexpr unsigned kThreads = 4;
constexpr int kObservabilityK = 16;
constexpr double kObservabilityBudgetPct = 3.0;

bench::TracedFatTree traced(int k) {
  return bench::TracedFatTree(
      bench::routed_fat_tree(k),
      bench::suite<nettest::DefaultRouteCheck, nettest::ToRContract, nettest::ToRPingmesh>());
}

struct Offline {
  bench::Run run;
  ys::MetricRow row;
  ys::PathCoverageResult paths;
};

/// Steps 1-3, the local metrics and the path sweep on a fresh manager.
Offline offline(const bench::TracedFatTree& t, unsigned threads, double path_budget) {
  Offline out;
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const coverage::CoverageTrace local = t.trace.imported_into(mgr);
  ys::EngineOptions options;
  options.threads = threads;
  out.run = bench::measure([&] {
    const ys::CoverageEngine engine(mgr, t.tree.network, local, options);
    out.row = engine.metrics();
    out.paths = engine.path_coverage(path_budget);
  });
  return out;
}

}  // namespace

int main() {
  const std::vector<int> ks = bench::knob_list("YS_FATTREE_KS", {4, 8, 12, 16});
  const double path_budget = bench::knob("YS_PATH_BUDGET_S", 60.0);
  bench::Envelope envelope("observability");

  std::printf("# bench_metric_computation (Figure 9), path budget %.0fs; 1 thread, then "
              "%u threads (one run each)\n",
              path_budget, kThreads);
  std::printf("%4s %7s %13s %15s %16s %12s %10s %12s %11s %10s %4s\n", "k", "routers",
              "match-sets(s)", "covered-sets(s)", "measure-table(s)", "all-local(s)", "path(s)",
              "paths", "local-4t(s)", "path-4t(s)", "same");
  for (const int k : ks) {
    const bench::TracedFatTree t = traced(k);
    const Offline serial = offline(t, 1, path_budget);
    const Offline parallel = offline(t, kThreads, path_budget);
    const ys::MetricRow& a = serial.row;
    const ys::MetricRow& b = parallel.row;
    const ys::PathCoverageResult& pa = serial.paths;
    const ys::PathCoverageResult& pb = parallel.paths;
    const bool truncated = pa.truncated || pb.truncated;
    const bool identical =
        a.device_fractional == b.device_fractional &&
        a.interface_fractional == b.interface_fractional &&
        a.rule_fractional == b.rule_fractional && a.rule_weighted == b.rule_weighted &&
        (truncated || (pa.total_paths == pb.total_paths && pa.covered_paths == pb.covered_paths &&
                       pa.fractional == pb.fractional && pa.mean == pb.mean));
    const bench::Run& s = serial.run;
    const bench::Run& p = parallel.run;
    std::printf("%4d %7zu %13.6f %15.6f %16.6f %12.6f %10.6f %11llu%s %11.6f %10.6f %4s\n", k,
                t.tree.network.device_count(), s.seconds({"match_sets.build"}),
                s.seconds({"covered_sets.build"}), s.seconds({"measure_table.build"}),
                s.offline_seconds(), s.seconds({"path_coverage.sweep"}),
                static_cast<unsigned long long>(pa.total_paths), pa.truncated ? "+" : " ",
                p.offline_seconds(), p.seconds({"path_coverage.sweep"}),
                !identical ? "NO" : truncated ? "n/a" : "yes");
    const std::string name = "fig9 k=" + std::to_string(k);
    for (const auto& [label, result] :
         {std::pair{", 1 thread", &serial}, std::pair{", 4 threads", &parallel}}) {
      envelope.config(name + label, result->run,
                      {{"routers", static_cast<double>(t.tree.network.device_count())},
                       {"paths", static_cast<double>(result->paths.total_paths)},
                       {"covered_paths", static_cast<double>(result->paths.covered_paths)},
                       {"path_truncated", result->paths.truncated ? 1.0 : 0.0}});
    }
    envelope.gate(name + ": 1- and 4-thread results identical", identical, 1, identical);
  }

  // Equation-3 ablation (DESIGN.md §5): survivor sets threaded through the
  // DFS against the naive design, which re-walks every emitted path with
  // path_measure (quadratic in path length), on the same bounded sample
  // of the smallest topology's universe: its first kSamplePaths paths,
  // ingress port by ingress port.
  {
    const int k = ks.front();
    bench::TracedFatTree t(bench::routed_fat_tree(k), bench::suite<nettest::ToRPingmesh>());
    const ys::CoverageEngine engine(t.mgr, t.tree.network, t.trace);
    constexpr uint64_t kSamplePaths = 5000;
    const auto sample_universe = [&](const coverage::CoveredSets* covered, const auto& visit) {
      const coverage::PathExplorer explorer(engine.transfer(), covered);
      const packet::PacketSet all = packet::PacketSet::all(t.mgr);
      uint64_t seen = 0;
      for (const net::Interface& intf : engine.network().interfaces()) {
        if (seen == kSamplePaths) break;
        if (intf.kind != net::PortKind::HostPort && intf.kind != net::PortKind::ExternalPort) {
          continue;
        }
        explorer.explore(intf.device, intf.id, all, [&](const coverage::ExploredPath& path) {
          visit(path);
          return ++seen < kSamplePaths;
        });
      }
      return seen;
    };
    uint64_t sample = 0;
    uint64_t streamed_covered = 0;
    uint64_t naive_covered = 0;
    const bench::Run streamed = bench::measure([&] {
      sample = sample_universe(&engine.covered_sets(), [&](const coverage::ExploredPath& path) {
        if (path.covered_ratio > 0.0) ++streamed_covered;
      });
    });
    const bench::Run naive = bench::measure([&] {
      const coverage::Measure measure = coverage::path_measure(engine.transfer());
      (void)sample_universe(nullptr, [&](const coverage::ExploredPath& path) {
        // Re-derive the guard and re-walk the path (the naive design).
        packet::PacketSet guard = path.final_set;
        for (auto it = path.rules.rbegin(); it != path.rules.rend(); ++it) {
          const net::Rule& rule = engine.network().rule(*it);
          guard = engine.transfer().rewrite_preimage(rule, guard).intersect(
              engine.match_sets().match_set(*it));
        }
        const coverage::GuardedString g{guard, path.rules, packet::kNoLocation};
        if (measure(engine.covered_sets(), g).value > 0.0) ++naive_covered;
      });
    });
    const double streamed_s = streamed.seconds({"bench.run"});
    const double naive_s = naive.seconds({"bench.run"});
    std::printf("\n# Equation-3 ablation on %llu paths (k=%d): streamed %.6fs vs per-path "
                "recompute %.6fs (%.1fx); covered %llu/%llu agree=%s\n",
                static_cast<unsigned long long>(sample), k, streamed_s, naive_s,
                naive_s / streamed_s, static_cast<unsigned long long>(streamed_covered),
                static_cast<unsigned long long>(naive_covered),
                streamed_covered == naive_covered ? "yes" : "NO");
  }

  // Observability overhead gate (DESIGN.md §9).
  const bench::TracedFatTree t = traced(kObservabilityK);
  const auto local_metrics = [&](bool traced_run) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const coverage::CoverageTrace local = t.trace.imported_into(mgr);
    return bench::measure(
        [&] {
          const ys::CoverageEngine engine(mgr, t.tree.network, local);
          (void)engine.devices_coverage(coverage::fractional_aggregator());
          (void)engine.interfaces_coverage(coverage::fractional_aggregator());
          (void)engine.rules_coverage(coverage::fractional_aggregator());
        },
        traced_run);
  };
  const auto [off, on] = bench::alternate([&] { return local_metrics(false); },
                                          [&] { return local_metrics(true); });
  const auto wall_s = [](const bench::Run& run) { return run.seconds({"bench.run"}); };
  const bench::Timing off_t = bench::timing(off, wall_s);
  const bench::Timing on_t = bench::timing(on, wall_s);
  const double overhead_pct = (bench::median_ratio(on, off, wall_s) - 1.0) * 100.0;
  std::printf("\n# observability overhead (k=%d, offline phase + all-local metrics, %d "
              "pairs): medians off %.6fs, on %.6fs; median overhead %+.2f%% (cold pair %.6fs "
              "vs %.6fs)\n",
              kObservabilityK, bench::kPairs, off_t.median_s, on_t.median_s, overhead_pct,
              off_t.cold_s, on_t.cold_s);
  envelope.config("k=16, tracing off", off.timed, off_t.values());
  envelope.config("k=16, tracing on", on.timed, on_t.values());
  envelope.gate("observability overhead (%)", overhead_pct, kObservabilityBudgetPct,
                overhead_pct < kObservabilityBudgetPct);
  return envelope.write("BENCH_observability.json");
}
