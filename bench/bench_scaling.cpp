// Scaling trajectory (DESIGN.md §12): the offline phase across fat-tree
// arities, at 4 workers and at 1.
//
// For each k of YS_SCALING_KS (default "4 8 16 32 48") the trace of
// DefaultRouteCheck + ToRContract goes through steps 1-3 and the local
// metrics twice, on fresh managers: `threads` 4, then 1. Steps 1 and 2
// take no workers: both build in the engine's manager at every count, so
// the two runs do the same work and their stages should read alike. Each
// run records its stage spans, the VmRSS it started from, its own peak RSS
// and the difference (an in-process peak carries what earlier runs left
// resident, so only peak - start compares across configs), the peak arena
// nodes of a cap-less budget attached for its node accounting and the
// apply-cache hit rate. The two runs' metric rows must be bit-identical.
//
// Gate: metrics identical at 4 workers and at 1, at every k.
// Results go to stdout and BENCH_scaling.json.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

namespace {

struct Offline {
  bench::Run run;
  ys::MetricRow row;
  size_t peak_arena_nodes = 0;
  bench::Values values;
};

/// Peak minus starting RSS: what the run itself added.
double rss_growth_kb(const bench::Run& run) {
  return static_cast<double>(run.peak_rss_kb) - static_cast<double>(run.start_rss_kb);
}

/// One offline phase on a fresh manager.
Offline run_offline(const bench::TracedFatTree& t, unsigned workers) {
  Offline out;
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const coverage::CoverageTrace local = t.trace.imported_into(mgr);
  ys::ResourceBudget budget;  // accounting only: no caps, no deadline
  out.run = bench::measure([&] {
    const ys::CoverageEngine engine(mgr, t.tree.network, local,
                                    ys::EngineOptions{&budget, workers, ""});
    out.row = engine.metrics();
  });
  const bdd::BddManager::Stats primary = mgr.stats();
  out.peak_arena_nodes = budget.peak_bdd_nodes();
  out.values = {{"workers", workers},
                {"start_rss_kb", static_cast<double>(out.run.start_rss_kb)},
                {"rss_growth_kb", rss_growth_kb(out.run)},
                {"peak_arena_nodes", static_cast<double>(out.peak_arena_nodes)},
                {"cache_hit_rate", primary.cache_hit_rate()},
                {"op_cache_entries", static_cast<double>(primary.op_cache_entries)}};
  return out;
}

}  // namespace

int main() {
  const std::vector<int> ks = bench::knob_list("YS_SCALING_KS", {4, 8, 16, 32, 48});
  bench::Envelope envelope("scaling");

  std::printf("# bench_scaling: offline phase (steps 1-3) at 4 workers vs 1 (steps 1-2 take "
              "no workers); grow = peak - start RSS\n");
  std::printf("%4s %7s %9s | %10s %9s %9s %11s %9s | %10s %9s %9s %11s %9s | %4s\n", "k",
              "routers", "rules", "4w-wall(s)", "4w-m1(s)", "4w-m2(s)", "4w-peaknode",
              "4w-grow(M)", "1w-wall(s)", "1w-m1(s)", "1w-m2(s)", "1w-peaknode", "1w-grow(M)",
              "same");
  for (const int k : ks) {
    const bench::TracedFatTree t(
        bench::routed_fat_tree(k),
        bench::suite<nettest::DefaultRouteCheck, nettest::ToRContract>());
    const Offline four = run_offline(t, 4);
    const Offline one = run_offline(t, 1);
    const bool identical = four.row.device_fractional == one.row.device_fractional &&
                           four.row.interface_fractional == one.row.interface_fractional &&
                           four.row.rule_fractional == one.row.rule_fractional &&
                           four.row.rule_weighted == one.row.rule_weighted &&
                           four.row.truncated == one.row.truncated;
    std::printf("%4d %7zu %9zu", k, t.tree.network.device_count(), t.tree.network.rule_count());
    for (const Offline* o : {&four, &one}) {
      std::printf(" | %10.6f %9.6f %9.6f %11zu %9.1f", o->run.offline_seconds(),
                  o->run.seconds({"match_sets.build"}), o->run.seconds({"covered_sets.build"}),
                  o->peak_arena_nodes, rss_growth_kb(o->run) / 1024.0);
    }
    std::printf(" | %4s\n", identical ? "yes" : "NO");
    const std::string name = "k=" + std::to_string(k);
    const bench::Values size = {{"k", k},
                                {"routers", static_cast<double>(t.tree.network.device_count())},
                                {"rules", static_cast<double>(t.tree.network.rule_count())}};
    for (const auto& [label, result] : {std::pair{", 4 workers", &four},
                                        std::pair{", 1 worker", &one}}) {
      bench::Values values = size;
      values.insert(values.end(), result->values.begin(), result->values.end());
      envelope.config(name + label, result->run, values);
    }
    envelope.gate(name + ": metrics identical at 4 workers and at 1", identical, 1, identical);
  }
  return envelope.write("BENCH_scaling.json");
}
