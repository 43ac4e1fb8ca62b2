// The parallel offline phase must be a pure performance feature: sharded
// builds (per-thread BDD managers merged by structural import) and the
// concurrent path sweep have to produce bit-identical match sets, covered
// sets, metric rows and path-universe results for every thread count —
// including 0 (hardware concurrency) — and degrade to the same truncated
// flags under a tripping resource budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>

#include "fault_injection.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "yardstick/analysis.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick {
namespace {

/// One engine run at a given thread count, self-contained: its own
/// manager, its own structural copy of the shared trace, its own engine.
struct EngineRun {
  std::unique_ptr<bdd::BddManager> mgr;
  coverage::CoverageTrace trace;
  std::unique_ptr<ys::CoverageEngine> engine;
};

EngineRun run_engine(const net::Network& network, const coverage::CoverageTrace& trace,
                     unsigned threads, const ys::ResourceBudget* budget = nullptr,
                     double gc_threshold = 0.0) {
  EngineRun run;
  run.mgr = std::make_unique<bdd::BddManager>(packet::kNumHeaderBits);
  run.trace = trace.imported_into(*run.mgr);
  run.engine = std::make_unique<ys::CoverageEngine>(
      *run.mgr, network, run.trace,
      ys::EngineOptions{budget, threads, /*cache_dir=*/"", gc_threshold});
  return run;
}

void expect_same_sets(const net::Network& network, const ys::CoverageEngine& serial,
                      const ys::CoverageEngine& parallel, unsigned threads) {
  for (const net::Rule& rule : network.rules()) {
    EXPECT_EQ(serial.match_sets().match_set_size(rule.id),
              parallel.match_sets().match_set_size(rule.id))
        << "match set of rule " << rule.id.value << " at " << threads << " threads";
    EXPECT_EQ(serial.covered_sets().covered_size(rule.id),
              parallel.covered_sets().covered_size(rule.id))
        << "covered set of rule " << rule.id.value << " at " << threads << " threads";
  }
}

void expect_same_metrics(const ys::MetricRow& serial, const ys::MetricRow& parallel,
                         unsigned threads) {
  EXPECT_EQ(serial.device_fractional, parallel.device_fractional) << threads << " threads";
  EXPECT_EQ(serial.interface_fractional, parallel.interface_fractional)
      << threads << " threads";
  EXPECT_EQ(serial.rule_fractional, parallel.rule_fractional) << threads << " threads";
  EXPECT_EQ(serial.rule_weighted, parallel.rule_weighted) << threads << " threads";
  EXPECT_EQ(serial.truncated, parallel.truncated) << threads << " threads";
}

constexpr unsigned kThreadCounts[] = {2, 4, 0};

/// Runs the wrapped test unchanged, counting its runs.
class CountingTest final : public nettest::NetworkTest {
 public:
  CountingTest(std::unique_ptr<nettest::NetworkTest> inner, std::atomic<size_t>& runs)
      : inner_(std::move(inner)), runs_(runs) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] nettest::TestCategory category() const override { return inner_->category(); }
  [[nodiscard]] nettest::TestResult run(const dataplane::Transfer& transfer,
                                        ys::CoverageTracker& tracker) const override {
    runs_.fetch_add(1);
    return inner_->run(transfer, tracker);
  }

 private:
  std::unique_ptr<nettest::NetworkTest> inner_;
  std::atomic<size_t>& runs_;
};

/// Records the spans `fn` opens and returns how many of them are named
/// `parallel.worker`, `match_sets.clone` or `covered_sets.clone`.
template <typename Fn>
size_t fan_out_spans(Fn&& fn) {
  obs::Tracer::global().clear();
  obs::set_enabled(true);
  fn();
  obs::set_enabled(false);
  size_t count = 0;
  for (const obs::TraceEvent& e : obs::Tracer::global().snapshot()) {
    for (const char* name : {"parallel.worker", "match_sets.clone", "covered_sets.clone"}) {
      count += std::strcmp(e.name, name) == 0 ? 1 : 0;
    }
  }
  obs::Tracer::global().clear();
  obs::metrics().reset_values();
  return count;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  /// Runs the fat-tree paper suite once (in a scratch manager) and returns
  /// the resulting trace, with a couple of rules marked via state
  /// inspection so both Algorithm 1 branches are exercised.
  coverage::CoverageTrace fat_tree_trace(const topo::FatTree& tree) {
    const dataplane::MatchSetIndex index(scratch_, tree.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
    (void)nettest::ToRContract().run(transfer, tracker);
    (void)nettest::ToRPingmesh().run(transfer, tracker);
    coverage::CoverageTrace trace = tracker.trace();
    const net::DeviceId tor = tree.tors.front();
    const auto& fib = tree.network.table(tor);
    if (!fib.empty()) trace.mark_rule(fib.front());
    return trace;
  }

  bdd::BddManager scratch_{packet::kNumHeaderBits};
};

TEST_F(ParallelDeterminismTest, FatTreeSetsAndMetricsBitIdentical) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  const EngineRun serial = run_engine(tree.network, trace, 1);
  ASSERT_FALSE(serial.engine->truncated());
  const ys::MetricRow serial_row = serial.engine->metrics();

  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(tree.network, trace, threads);
    EXPECT_FALSE(parallel.engine->truncated());
    expect_same_sets(tree.network, *serial.engine, *parallel.engine, threads);
    expect_same_metrics(serial_row, parallel.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, FatTreePathSweepBitIdentical) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  const EngineRun serial = run_engine(tree.network, trace, 1);
  const ys::PathCoverageResult want = serial.engine->path_coverage();
  ASSERT_GT(want.total_paths, 0u);
  ASSERT_FALSE(want.truncated);

  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(tree.network, trace, threads);
    const ys::PathCoverageResult got = parallel.engine->path_coverage();
    EXPECT_EQ(want.total_paths, got.total_paths) << threads << " threads";
    EXPECT_EQ(want.covered_paths, got.covered_paths) << threads << " threads";
    EXPECT_EQ(want.fractional, got.fractional) << threads << " threads";
    EXPECT_EQ(want.mean, got.mean) << threads << " threads";
    EXPECT_EQ(want.truncated, got.truncated) << threads << " threads";
  }
}

TEST_F(ParallelDeterminismTest, RegionalSetsAndMetricsBitIdentical) {
  topo::RegionalParams params;
  params.datacenters = 2;
  params.pods_per_dc = 1;
  params.tors_per_pod = 2;
  params.aggs_per_pod = 2;
  params.spines_per_dc = 2;
  params.hubs = 2;
  params.wans = 1;
  params.host_ports_per_tor = 2;
  params.wide_area_prefix_count = 4;
  params.hubs_without_default = 1;
  topo::RegionalNetwork region = topo::make_regional(params);
  routing::FibBuilder::compute_and_build(region.network, region.routing);

  coverage::CoverageTrace trace;
  {
    const dataplane::MatchSetIndex index(scratch_, region.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
    (void)nettest::InternalRouteCheck().run(transfer, tracker);
    (void)nettest::ConnectedRouteCheck().run(transfer, tracker);
    trace = tracker.trace();
  }

  const EngineRun serial = run_engine(region.network, trace, 1);
  const ys::MetricRow serial_row = serial.engine->metrics();
  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(region.network, trace, threads);
    expect_same_sets(region.network, *serial.engine, *parallel.engine, threads);
    expect_same_metrics(serial_row, parallel.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, GcOnOffBitIdenticalAcrossThreadCounts) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  // Ground truth: serial, GC off.
  const EngineRun serial = run_engine(tree.network, trace, 1);
  ASSERT_FALSE(serial.engine->truncated());
  const ys::MetricRow serial_row = serial.engine->metrics();

  // GC only renumbers shard-private nodes, so an aggressive threshold must
  // leave every set and metric bit-identical at any thread count —
  // including 1, where an armed GC forces the sharded path.
  for (const unsigned threads : {1u, 4u, 8u}) {
    const EngineRun gc_run =
        run_engine(tree.network, trace, threads, nullptr, /*gc_threshold=*/0.05);
    EXPECT_FALSE(gc_run.engine->truncated()) << threads << " threads";
    expect_same_sets(tree.network, *serial.engine, *gc_run.engine, threads);
    expect_same_metrics(serial_row, gc_run.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, GcUnderBudgetKeepsAccountingBalanced) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  // Roomy cap: the build completes; GC'd shards must return their charge so
  // the budget drains back to exactly the primary manager's arena.
  ys::ResourceBudget budget;
  budget.with_max_bdd_nodes(50'000'000);
  const EngineRun run =
      run_engine(tree.network, trace, 4, &budget, /*gc_threshold=*/0.05);
  EXPECT_FALSE(run.engine->truncated());
  EXPECT_EQ(budget.used_bdd_nodes(), run.mgr->arena_size());
  EXPECT_GE(budget.peak_bdd_nodes(), budget.used_bdd_nodes());

  // A failure other than the budget, in step 1 or in step 2, aborts the
  // engine; the shards must still hand their charge back, leaving only the
  // primary manager's own.
  for (const bool in_step_2 : {false, true}) {
    ys::ResourceBudget failing;
    failing.with_max_bdd_nodes(50'000'000);
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const coverage::CoverageTrace local = trace.imported_into(mgr);
    std::optional<testutil::ScopedFault> boom;
    const auto arm = [&boom] {
      boom.emplace("bdd.make", testutil::throw_io("injected allocation failure"), 50);
    };
    if (!in_step_2) arm();
    const auto online = [&](const dataplane::Transfer&) -> const coverage::CoverageTrace& {
      if (in_step_2) arm();
      return local;
    };
    EXPECT_THROW(ys::CoverageEngine(mgr, tree.network, online,
                                    ys::EngineOptions{&failing, 4, "", 0.05}),
                 ys::IoError)
        << (in_step_2 ? "step 2" : "step 1");
    EXPECT_EQ(failing.used_bdd_nodes(), mgr.arena_size()) << (in_step_2 ? "step 2" : "step 1");
  }
}

TEST_F(ParallelDeterminismTest, TrippingBudgetTruncatesInEveryMode) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  for (const unsigned threads : {1u, 2u, 4u}) {
    // A node cap far below what the fat tree needs: the build must complete
    // degraded (no exception), flag itself truncated, and still answer
    // metric queries with well-formed partial results.
    ys::ResourceBudget budget;
    budget.with_max_bdd_nodes(2000);
    const EngineRun run = run_engine(tree.network, trace, threads, &budget);
    EXPECT_TRUE(run.engine->truncated()) << threads << " threads";
    const ys::MetricRow row = run.engine->metrics();
    EXPECT_TRUE(row.truncated) << threads << " threads";
    EXPECT_GE(row.rule_fractional, 0.0);
    EXPECT_LE(row.rule_fractional, 1.0);
  }

  // A budget already exhausted when the path sweep or the suite matrix
  // starts stops either fan-out before its first item: no test runs, no
  // path is emitted, no worker starts and nothing is cloned.
  std::atomic<size_t> runs{0};
  nettest::TestSuite suite("counted");
  for (int copy = 0; copy < 3; ++copy) {
    suite.add(std::make_unique<CountingTest>(std::make_unique<nettest::DefaultRouteCheck>(),
                                             runs));
    suite.add(std::make_unique<CountingTest>(std::make_unique<nettest::ToRContract>(), runs));
  }
  for (const unsigned threads : {1u, 4u}) {
    const EngineRun run = run_engine(tree.network, trace, threads);
    for (const bool cancelled : {true, false}) {
      ys::ResourceBudget exhausted;
      if (cancelled) {
        exhausted.request_cancel();
      } else {
        exhausted.with_deadline(0.0);
      }
      const std::string label = std::string(cancelled ? "cancelled" : "past deadline") +
                                " at " + std::to_string(threads) + " threads";
      std::optional<ys::SuiteCoverageMatrix> matrix;
      EXPECT_EQ(fan_out_spans([&] {
                  matrix = ys::build_suite_matrix(run.engine->transfer(), suite, &exhausted,
                                                  threads);
                }),
                0u)
          << label;
      EXPECT_EQ(runs.load(), 0u) << label;
      EXPECT_TRUE(matrix->truncated) << label;
      for (size_t i = 0; i < matrix->test_count(); ++i) {
        EXPECT_EQ(matrix->covered_by(i), 0u) << label;
      }

      coverage::PathExplorerOptions options;
      options.budget = &exhausted;
      std::optional<ys::PathCoverageResult> paths;
      EXPECT_EQ(fan_out_spans([&] { paths = run.engine->path_coverage(options); }), 0u)
          << label;
      EXPECT_EQ(paths->total_paths, 0u) << label;
      EXPECT_TRUE(paths->truncated) << label;
    }
    // Without a budget the same fan-outs run every test once, untruncated.
    EXPECT_FALSE(ys::build_suite_matrix(run.engine->transfer(), suite, nullptr, threads)
                     .truncated);
    EXPECT_EQ(runs.exchange(0), suite.size());
    EXPECT_GT(run.engine->path_coverage().total_paths, 0u);
  }
}

}  // namespace
}  // namespace yardstick
