// The thread count must be a pure performance knob: steps 1 and 2 build in
// the engine's manager at every count, and the concurrent path sweep and
// suite matrix clone into per-worker managers, so match sets, covered sets,
// metric rows and path-universe results must be bit-identical for every
// thread count — including 0 (hardware concurrency) — and degrade to the
// same truncated flags under a tripping resource budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

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
/// manager and its own engine, which keeps its structural copy of the
/// shared trace.
struct EngineRun {
  std::unique_ptr<bdd::BddManager> mgr;
  std::unique_ptr<ys::CoverageEngine> engine;
};

EngineRun run_engine(const net::Network& network, const coverage::CoverageTrace& trace,
                     const ys::EngineOptions& options) {
  EngineRun run;
  run.mgr = std::make_unique<bdd::BddManager>(packet::kNumHeaderBits);
  run.engine = std::make_unique<ys::CoverageEngine>(*run.mgr, network,
                                                    trace.imported_into(*run.mgr), options);
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

/// Reports a given trace, then calls `after`: a probe into the engine's
/// online phase, between its steps 1 and 2.
class ReplayTest final : public nettest::NetworkTest {
 public:
  ReplayTest(const coverage::CoverageTrace& trace, std::function<void()> after)
      : trace_(trace), after_(std::move(after)) {}
  [[nodiscard]] std::string name() const override { return "Replay"; }
  [[nodiscard]] nettest::TestCategory category() const override {
    return nettest::TestCategory::StateInspection;
  }
  [[nodiscard]] nettest::TestResult run(const dataplane::Transfer&,
                                        ys::CoverageTracker& tracker) const override {
    tracker.mark_packet(trace_.marked_packets());
    for (const net::RuleId rid : trace_.marked_rules()) tracker.mark_rule(rid);
    after_();
    return make_result();
  }

 private:
  const coverage::CoverageTrace& trace_;
  std::function<void()> after_;
};

/// Runs `fn` with tracing on and returns the spans it recorded.
template <typename Fn>
std::vector<obs::TraceEvent> traced(Fn&& fn) {
  obs::Tracer::global().clear();
  obs::set_enabled(true);
  fn();
  obs::set_enabled(false);
  std::vector<obs::TraceEvent> events = obs::Tracer::global().snapshot();
  obs::Tracer::global().clear();
  obs::metrics().reset_values();
  return events;
}

/// Records the spans `fn` opens and returns how many of them are named
/// `parallel.worker`, `match_sets.clone` or `covered_sets.clone`.
template <typename Fn>
size_t fan_out_spans(Fn&& fn) {
  size_t count = 0;
  for (const obs::TraceEvent& e : traced(fn)) {
    for (const char* name : {"parallel.worker", "match_sets.clone", "covered_sets.clone"}) {
      count += std::strcmp(e.name, name) == 0 ? 1 : 0;
    }
  }
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

  const EngineRun serial = run_engine(tree.network, trace, {.threads = 1});
  ASSERT_FALSE(serial.engine->truncated());
  const ys::MetricRow serial_row = serial.engine->metrics();

  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(tree.network, trace, {.threads = threads});
    EXPECT_FALSE(parallel.engine->truncated());
    expect_same_sets(tree.network, *serial.engine, *parallel.engine, threads);
    expect_same_metrics(serial_row, parallel.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, FatTreePathSweepBitIdentical) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  const EngineRun serial = run_engine(tree.network, trace, {.threads = 1});
  const ys::PathCoverageResult want = serial.engine->path_coverage();
  ASSERT_GT(want.total_paths, 0u);
  ASSERT_FALSE(want.truncated);

  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(tree.network, trace, {.threads = threads});
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

  const EngineRun serial = run_engine(region.network, trace, {.threads = 1});
  const ys::MetricRow serial_row = serial.engine->metrics();
  for (const unsigned threads : kThreadCounts) {
    const EngineRun parallel = run_engine(region.network, trace, {.threads = threads});
    expect_same_sets(region.network, *serial.engine, *parallel.engine, threads);
    expect_same_metrics(serial_row, parallel.engine->metrics(), threads);
  }
}

TEST_F(ParallelDeterminismTest, BudgetAccountingBalancedThroughAFaultInStepOneOrTwo) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const coverage::CoverageTrace trace = fat_tree_trace(tree);

  // Roomy cap: the build completes, and the budget holds exactly the
  // primary manager's arena, where steps 1 and 2 built at 4 threads.
  ys::ResourceBudget budget;
  budget.with_max_bdd_nodes(50'000'000);
  const EngineRun run = run_engine(tree.network, trace, {.budget = &budget, .threads = 4});
  EXPECT_FALSE(run.engine->truncated());
  EXPECT_EQ(budget.used_bdd_nodes(), run.mgr->arena_size());
  EXPECT_GE(budget.peak_bdd_nodes(), budget.used_bdd_nodes());

  // A failure other than the budget aborts the engine, in step 1 or in
  // step 2, both in the primary manager; the engine must still hand its
  // charge back, leaving the budget off the manager and empty.
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
    nettest::TestSuite suite;
    suite.add(std::make_unique<ReplayTest>(local, [&] {
      if (in_step_2) arm();
    }));
    EXPECT_THROW(ys::CoverageEngine(mgr, tree.network, suite,
                                    ys::EngineOptions{&failing, 4, ""}),
                 ys::IoError)
        << (in_step_2 ? "step 2" : "step 1");
    EXPECT_EQ(mgr.budget(), nullptr) << (in_step_2 ? "step 2" : "step 1");
    EXPECT_EQ(failing.used_bdd_nodes(), 0u) << (in_step_2 ? "step 2" : "step 1");
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
    const EngineRun run = run_engine(tree.network, trace, {.budget = &budget, .threads = threads});
    EXPECT_TRUE(run.engine->truncated()) << threads << " threads";
    const ys::MetricRow row = run.engine->metrics();
    EXPECT_TRUE(row.truncated) << threads << " threads";
    EXPECT_GE(row.rule_fractional, 0.0);
    EXPECT_LE(row.rule_fractional, 1.0);
  }

  // A node cap attached to the manager bounds every stage the same way at
  // every thread count: the primary charges it at one thread, and every
  // worker manager of the suite matrix and the path sweep attaches it at
  // more. Steps 1 and 2 build in the primary at every count. The engines were built unbudgeted, so their
  // arenas alone already exceed the cap. The cap trips only on a fresh
  // node: the pair's flood builds sets the engines' trace does not hold (a
  // ToRContract fold would find all of its own).
  {
    ys::ResourceBudget cap;
    cap.with_max_bdd_nodes(1000);
    bdd::BddManager mgr(packet::kNumHeaderBits);
    {
      const bdd::ScopedBudget attach(mgr, &cap);
      EXPECT_TRUE(dataplane::MatchSetIndex(mgr, tree.network).truncated());
    }
    EXPECT_EQ(cap.used_bdd_nodes(), 0u);
  }
  nettest::TestSuite pair("pair");
  pair.add(std::make_unique<nettest::DefaultRouteCheck>());
  pair.add(std::make_unique<nettest::ToRReachability>());
  for (const unsigned threads : {1u, 4u}) {
    const std::string label = "1,000-node cap at " + std::to_string(threads) + " threads";
    ys::ResourceBudget cap;
    cap.with_max_bdd_nodes(1000);
    const EngineRun matrix_run = run_engine(tree.network, trace, {.threads = threads});
    {
      const bdd::ScopedBudget attach(*matrix_run.mgr, &cap);
      EXPECT_TRUE(ys::build_suite_matrix(matrix_run.engine->transfer(), pair, threads).truncated)
          << label;
    }
    const EngineRun sweep_run = run_engine(tree.network, trace, {.threads = threads});
    {
      const bdd::ScopedBudget attach(*sweep_run.mgr, &cap);
      EXPECT_TRUE(sweep_run.engine->path_coverage().truncated) << label;
    }
    EXPECT_EQ(cap.used_bdd_nodes(), 0u) << label;
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
    const EngineRun run = run_engine(tree.network, trace, {.threads = threads});
    for (const bool cancelled : {true, false}) {
      ys::ResourceBudget exhausted;
      if (cancelled) {
        exhausted.request_cancel();
      } else {
        exhausted.with_deadline(0.0);
      }
      const bdd::ScopedBudget attach(*run.mgr, &exhausted);
      const std::string label = std::string(cancelled ? "cancelled" : "past deadline") +
                                " at " + std::to_string(threads) + " threads";
      std::optional<ys::SuiteCoverageMatrix> matrix;
      EXPECT_EQ(fan_out_spans([&] {
                  matrix = ys::build_suite_matrix(run.engine->transfer(), suite, threads);
                }),
                0u)
          << label;
      EXPECT_EQ(runs.load(), 0u) << label;
      EXPECT_TRUE(matrix->truncated) << label;
      for (size_t i = 0; i < matrix->test_count(); ++i) {
        EXPECT_EQ(matrix->covered_by(i), 0u) << label;
      }

      std::optional<ys::PathCoverageResult> paths;
      EXPECT_EQ(fan_out_spans([&] { paths = run.engine->path_coverage(); }), 0u) << label;
      EXPECT_EQ(paths->total_paths, 0u) << label;
      EXPECT_TRUE(paths->truncated) << label;
    }
    // Without a budget the same fan-outs run every test once, untruncated.
    EXPECT_FALSE(ys::build_suite_matrix(run.engine->transfer(), suite, threads).truncated);
    EXPECT_EQ(runs.exchange(0), suite.size());
    EXPECT_GT(run.engine->path_coverage().total_paths, 0u);
  }
}

TEST_F(ParallelDeterminismTest, BudgetStoppingStepTwoLeavesOnlyPrimaryHandles) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  // A port range at every ToR cuts across the match sets there, so step 2
  // builds covered sets the primary does not hold yet.
  coverage::CoverageTrace trace = fat_tree_trace(tree);
  const packet::PacketSet ports =
      packet::PacketSet::field_range(scratch_, packet::Field::DstPort, 1000, 2000);
  for (const net::DeviceId tor : tree.tors) trace.mark_packet(net::device_location(tor), ports);

  // At 2 threads step 2 builds in the primary, which releases no charge
  // while the engine lives, so step 2's charge only rises and peaks at its
  // last fresh node: a cap one below that peak stops step 2 there.
  // `between` runs in the online phase, where the budget is off every
  // manager and nothing is charged: it sets step 2's cap there.
  const auto run = [&](ys::ResourceBudget& budget, const std::function<void()>& between) {
    EngineRun r;
    r.mgr = std::make_unique<bdd::BddManager>(packet::kNumHeaderBits);
    const coverage::CoverageTrace local = trace.imported_into(*r.mgr);
    nettest::TestSuite suite;
    suite.add(std::make_unique<ReplayTest>(local, [&] {
      EXPECT_EQ(budget.used_bdd_nodes(), 0u);
      between();
    }));
    r.engine = std::make_unique<ys::CoverageEngine>(*r.mgr, tree.network, suite,
                                                    ys::EngineOptions{&budget, 2, ""});
    return r;
  };
  // The budget's peak is monotone and step 1 may peak higher than step 2,
  // so the uncapped run charges step 1's peak between the steps: step 2's
  // own peak is what the budget's peak adds to it.
  ys::ResourceBudget roomy;
  size_t step1_peak = 0;
  const EngineRun uncapped = run(roomy, [&] {
    step1_peak = roomy.peak_bdd_nodes();
    roomy.charge_bdd_nodes(step1_peak);
  });
  const size_t step2_peak = roomy.peak_bdd_nodes() - step1_peak;
  roomy.release_bdd_nodes(step1_peak);
  ASSERT_FALSE(uncapped.engine->truncated());
  const ys::MetricRow want = uncapped.engine->metrics();

  ys::ResourceBudget cap;
  const EngineRun capped = run(cap, [&] { cap.with_max_bdd_nodes(step2_peak - 1); });
  const ys::CoverageEngine& engine = *capped.engine;
  EXPECT_TRUE(engine.truncated());
  EXPECT_FALSE(engine.match_sets().truncated());
  EXPECT_TRUE(engine.covered_sets().truncated());
  for (const net::Rule& rule : tree.network.rules()) {
    EXPECT_EQ(engine.match_sets().match_set(rule.id).raw().manager(), capped.mgr.get())
        << "match set of rule " << rule.id.value;
    EXPECT_EQ(engine.covered_sets().covered(rule.id).raw().manager(), capped.mgr.get())
        << "covered set of rule " << rule.id.value;
    EXPECT_LE(engine.covered_sets().covered_size(rule.id),
              uncapped.engine->covered_sets().covered_size(rule.id))
        << "covered set of rule " << rule.id.value;
    EXPECT_TRUE(engine.match_sets().reached(rule.id)) << "rule " << rule.id.value;
  }
  for (const net::Device& dev : tree.network.devices()) {
    EXPECT_EQ(engine.match_sets().acl_permitted_space(dev.id).raw().manager(), capped.mgr.get())
        << "ACL space of " << dev.name;
  }
  const ys::MetricRow got = engine.metrics();
  EXPECT_TRUE(got.truncated);
  EXPECT_LE(got.device_fractional, want.device_fractional);
  EXPECT_LE(got.interface_fractional, want.interface_fractional);
  EXPECT_LE(got.rule_fractional, want.rule_fractional);
  EXPECT_LE(got.rule_weighted, want.rule_weighted);
  EXPECT_EQ(cap.used_bdd_nodes(), capped.mgr->arena_size());
}

}  // namespace
}  // namespace yardstick
