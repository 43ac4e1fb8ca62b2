// Scaling trajectory (DESIGN.md §12): the offline phase across fat-tree
// arities, shard-manager garbage collection on vs off.
//
// For each k of YS_SCALING_KS (default "4 8 16 32 48") the trace of
// DefaultRouteCheck + ToRContract goes through steps 1-3 and the local
// metrics twice, on fresh managers with 4 worker threads: GC at threshold
// 0.5, then GC off. Each run records its stage spans, its own peak RSS, the
// peak arena nodes of a cap-less budget attached for its cross-manager node
// accounting (primary + shards: the number GC exists to shrink), the
// apply-cache hit rate and the GC's work counters. The two runs' metric
// rows must be bit-identical: GC only renumbers shard-private nodes.
//
// Gates:
//   always                       metrics identical with GC on and off
//   YS_SCALING_GATE_K            GC-on peak arena nodes strictly below
//                                GC-off at this k
//   YS_SCALING_MAX_OVERHEAD_PCT  arming the GC with a threshold that never
//                                fires (1.0) costs at most this much
//                                offline time over GC off, at k=16 under
//                                the harness's timing rule
// Results go to stdout and BENCH_scaling.json.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

namespace {

constexpr unsigned kThreads = 4;
constexpr double kGcThreshold = 0.5;
constexpr int kOverheadK = 16;

struct Offline {
  bench::Run run;
  ys::MetricRow row;
  size_t peak_arena_nodes = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_reclaimed_nodes = 0;
  bench::Values values;
};

/// One offline phase on a fresh manager.
Offline run_offline(const bench::TracedFatTree& t, double gc_threshold) {
  const auto counter = [](const char* name) { return obs::metrics().counter(name).value(); };
  const uint64_t gc_runs = counter("ys.bdd.gc.runs");
  const uint64_t reclaimed = counter("ys.bdd.gc.reclaimed_nodes");
  const uint64_t shard_hits = counter("ys.bdd.shard_cache_hits");
  const uint64_t shard_misses = counter("ys.bdd.shard_cache_misses");
  Offline out;
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const coverage::CoverageTrace local = t.trace.imported_into(mgr);
  ys::ResourceBudget budget;  // accounting only: no caps, no deadline
  out.run = bench::measure([&] {
    const ys::CoverageEngine engine(mgr, t.tree.network, local,
                                    ys::EngineOptions{&budget, kThreads, "", gc_threshold});
    out.row = engine.metrics();
  });
  const bdd::BddManager::Stats primary = mgr.stats();
  const double hits =
      static_cast<double>(primary.cache_hits + counter("ys.bdd.shard_cache_hits") - shard_hits);
  const double misses = static_cast<double>(
      primary.cache_misses + counter("ys.bdd.shard_cache_misses") - shard_misses);
  out.peak_arena_nodes = budget.peak_bdd_nodes();
  out.gc_runs = counter("ys.bdd.gc.runs") - gc_runs;
  out.gc_reclaimed_nodes = counter("ys.bdd.gc.reclaimed_nodes") - reclaimed;
  out.values = {{"gc_threshold", gc_threshold},
                {"peak_arena_nodes", static_cast<double>(out.peak_arena_nodes)},
                {"cache_hit_rate", hits + misses == 0 ? 0.0 : hits / (hits + misses)},
                {"gc_runs", static_cast<double>(out.gc_runs)},
                {"gc_reclaimed_nodes", static_cast<double>(out.gc_reclaimed_nodes)},
                {"op_cache_entries", static_cast<double>(primary.op_cache_entries)}};
  return out;
}

bench::TracedFatTree traced(int k) {
  return bench::TracedFatTree(bench::routed_fat_tree(k),
                              bench::suite<nettest::DefaultRouteCheck, nettest::ToRContract>());
}

}  // namespace

int main() {
  const std::vector<int> ks = bench::knob_list("YS_SCALING_KS", {4, 8, 16, 32, 48});
  const int gate_k = static_cast<int>(bench::knob("YS_SCALING_GATE_K", 0));
  const double max_overhead = bench::knob("YS_SCALING_MAX_OVERHEAD_PCT", 0.0);
  bench::Envelope envelope("scaling");

  std::printf("# bench_scaling: offline phase, GC on (threshold %.2f) vs off, %u worker "
              "threads\n",
              kGcThreshold, kThreads);
  std::printf("%4s %7s %9s | %10s %11s %8s %7s %10s | %10s %11s %8s | %8s %4s\n", "k",
              "routers", "rules", "on-wall(s)", "on-peaknode", "on-rss(M)", "gc-runs",
              "reclaimed", "off-wall(s)", "off-peaknode", "off-rss(M)", "peak-red", "same");
  for (const int k : ks) {
    const bench::TracedFatTree t = traced(k);
    const Offline on = run_offline(t, kGcThreshold);
    const Offline off = run_offline(t, 0.0);
    const bool identical = on.row.device_fractional == off.row.device_fractional &&
                           on.row.interface_fractional == off.row.interface_fractional &&
                           on.row.rule_fractional == off.row.rule_fractional &&
                           on.row.rule_weighted == off.row.rule_weighted;
    const double reduction_pct =
        off.peak_arena_nodes == 0
            ? 0.0
            : (1.0 - static_cast<double>(on.peak_arena_nodes) /
                         static_cast<double>(off.peak_arena_nodes)) * 100.0;
    std::printf("%4d %7zu %9zu | %10.6f %11zu %8.1f %7llu %10llu | %10.6f %11zu %8.1f | "
                "%7.1f%% %4s\n",
                k, t.tree.network.device_count(), t.tree.network.rule_count(),
                on.run.offline_seconds(), on.peak_arena_nodes,
                static_cast<double>(on.run.peak_rss_kb) / 1024.0,
                static_cast<unsigned long long>(on.gc_runs),
                static_cast<unsigned long long>(on.gc_reclaimed_nodes),
                off.run.offline_seconds(), off.peak_arena_nodes,
                static_cast<double>(off.run.peak_rss_kb) / 1024.0, reduction_pct,
                identical ? "yes" : "NO");
    const std::string name = "k=" + std::to_string(k);
    const bench::Values size = {{"k", k},
                                {"routers", static_cast<double>(t.tree.network.device_count())},
                                {"rules", static_cast<double>(t.tree.network.rule_count())}};
    for (const auto& [label, result] : {std::pair{", GC on", &on}, std::pair{", GC off", &off}}) {
      bench::Values values = size;
      values.insert(values.end(), result->values.begin(), result->values.end());
      envelope.config(name + label, result->run, values);
    }
    envelope.gate(name + ": metrics identical with GC on and off", identical, 1, identical);
    if (k == gate_k) {
      envelope.gate(name + ": GC-on peak arena nodes strictly below GC-off",
                    static_cast<double>(on.peak_arena_nodes),
                    static_cast<double>(off.peak_arena_nodes),
                    on.peak_arena_nodes < off.peak_arena_nodes);
    }
  }
  if (gate_k > 0 && std::find(ks.begin(), ks.end(), gate_k) == ks.end()) {
    envelope.gate("YS_SCALING_GATE_K is in the sweep", 0, gate_k, false);
  }

  // Overhead probe: arming the GC with a threshold that never fires (1.0)
  // costs only its bookkeeping (root tracking, gc_due() polls) against a
  // plain GC-off run. k=16: smaller ks finish in milliseconds, where fixed
  // costs swamp the percentage.
  const bench::TracedFatTree t = traced(kOverheadK);
  const auto [off, armed] = bench::alternate([&] { return run_offline(t, 0.0).run; },
                                             [&] { return run_offline(t, 1.0).run; });
  const auto offline_s = [](const bench::Run& run) { return run.offline_seconds(); };
  const bench::Timing off_t = bench::timing(off, offline_s);
  const bench::Timing armed_t = bench::timing(armed, offline_s);
  const double overhead_pct = (bench::median_ratio(armed, off, offline_s) - 1.0) * 100.0;
  std::printf("\n# GC armed-but-idle overhead (k=%d, %d pairs): medians off %.6fs, armed "
              "%.6fs; median overhead %+.2f%% (cold pair %.6fs vs %.6fs)\n",
              kOverheadK, bench::kPairs, off_t.median_s, armed_t.median_s, overhead_pct,
              off_t.cold_s, armed_t.cold_s);
  envelope.config("k=16, GC off (overhead probe)", off.timed, off_t.values());
  bench::Values armed_values = armed_t.values();
  armed_values.emplace_back("median_overhead_pct", overhead_pct);
  envelope.config("k=16, GC armed at 1.0 (overhead probe)", armed.timed, armed_values);
  if (max_overhead > 0.0) {
    envelope.gate("GC armed-but-idle overhead (%)", overhead_pct, max_overhead,
                  overhead_pct <= max_overhead);
  }
  return envelope.write("BENCH_scaling.json");
}
