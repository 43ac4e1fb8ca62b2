// Tests for the Yardstick engine (phase 2) and tracker (phase 1).
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/json.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

// Pinned: the engine's transfer, covered sets and component factory point
// into its own index and trace.
static_assert(!std::is_move_constructible_v<CoverageEngine>);
static_assert(!std::is_copy_constructible_v<CoverageEngine>);

using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::TinyNetwork;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : tiny_(make_tiny()) {}

  [[nodiscard]] PacketSet dst(const Ipv4Prefix& p) {
    return PacketSet::dst_prefix(mgr_, p);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  CoverageTracker tracker_;
};

TEST_F(EngineTest, TrackerDisabledIsNoOp) {
  tracker_.set_enabled(false);
  tracker_.mark_packet(net::device_location(tiny_.leaf1), dst(tiny_.p1));
  tracker_.mark_rule(tiny_.l1_to_p1);
  EXPECT_EQ(tracker_.packet_calls(), 0u);
  EXPECT_EQ(tracker_.rule_calls(), 0u);
  EXPECT_TRUE(tracker_.trace().marked_packets().empty());
}

TEST_F(EngineTest, LogModeFoldsToSameTrace) {
  CoverageTracker dedup(CoverageTracker::Mode::Dedup);
  CoverageTracker log(CoverageTracker::Mode::Log);
  for (auto* t : {&dedup, &log}) {
    t->mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
    t->mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
    t->mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
    t->mark_rule(tiny_.sp_to_p1);
  }
  EXPECT_GT(log.log_entries(), 0u);
  EXPECT_EQ(log.trace().marked_packets(), dedup.trace().marked_packets());
  EXPECT_EQ(log.trace().marked_rules(), dedup.trace().marked_rules());
  EXPECT_EQ(log.log_entries(), 0u);  // folded on read
}

TEST_F(EngineTest, TrackerReset) {
  tracker_.mark_rule(tiny_.l1_to_p1);
  tracker_.reset();
  EXPECT_TRUE(tracker_.trace().marked_rules().empty());
  EXPECT_EQ(tracker_.rule_calls(), 0u);
}

TEST_F(EngineTest, SingleComponentQueries) {
  tracker_.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  EXPECT_DOUBLE_EQ(engine.rule_coverage(tiny_.l1_to_p2), 1.0);
  EXPECT_DOUBLE_EQ(engine.rule_coverage(tiny_.l1_to_p1), 0.0);
  EXPECT_GT(engine.device_coverage(tiny_.leaf1), 0.0);
  EXPECT_DOUBLE_EQ(engine.device_coverage(tiny_.spine), 0.0);
  EXPECT_GT(engine.interface_coverage(tiny_.l1_up), 0.0);
  EXPECT_DOUBLE_EQ(engine.interface_coverage(tiny_.l1_host), 0.0);
}

TEST_F(EngineTest, CollectionQueriesWithFilters) {
  tracker_.mark_rule(tiny_.l1_default);
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const double all_frac =
      engine.rules_coverage(coverage::fractional_aggregator());
  EXPECT_NEAR(all_frac, 1.0 / 9.0, 1e-12);
  const double tor_frac = engine.rules_coverage(coverage::fractional_aggregator(),
                                                role_filter(net::Role::ToR));
  EXPECT_NEAR(tor_frac, 1.0 / 6.0, 1e-12);
  const double spine_frac = engine.rules_coverage(coverage::fractional_aggregator(),
                                                  role_filter(net::Role::Spine));
  EXPECT_DOUBLE_EQ(spine_frac, 0.0);
}

TEST_F(EngineTest, FilterMatchingNoDeviceFoldsEmptyCollections) {
  // A filter that keeps nothing must not fall back to the whole network:
  // every collection is empty and aggregates to 1.0.
  tracker_.mark_rule(tiny_.l1_default);
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const DeviceFilter nothing = [](const net::Device&) { return false; };

  const MetricRow all = engine.metrics();
  EXPECT_LT(all.rule_fractional, 1.0);
  const MetricRow none = engine.metrics(nothing);
  EXPECT_EQ(none.device_fractional, 1.0);
  EXPECT_EQ(none.interface_fractional, 1.0);
  EXPECT_EQ(none.rule_fractional, 1.0);
  EXPECT_EQ(none.rule_weighted, 1.0);
  EXPECT_FALSE(none.truncated);

  EXPECT_EQ(engine.rules_coverage(coverage::weighted_average_aggregator(), nothing), 1.0);
  EXPECT_EQ(engine.devices_coverage(coverage::simple_average_aggregator(), nothing), 1.0);
  for (const auto direction :
       {coverage::InterfaceDirection::Outgoing, coverage::InterfaceDirection::Incoming}) {
    EXPECT_EQ(engine.interfaces_coverage(coverage::fractional_aggregator(), nothing,
                                         direction),
              1.0);
  }
  EXPECT_TRUE(engine.untested_rules(nothing).empty());
  EXPECT_TRUE(engine.untested_interfaces(nothing).empty());
  EXPECT_FALSE(engine.untested_rules().empty());
}

TEST_F(EngineTest, FlowCoverageQuery) {
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    tracker_.mark_rule(rid);
  }
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  EXPECT_DOUBLE_EQ(engine.flow_coverage(tiny_.leaf1, tiny_.l1_host, dst(tiny_.p2)), 1.0);
  EXPECT_DOUBLE_EQ(engine.flow_coverage(tiny_.leaf1, tiny_.l1_host, dst(tiny_.p1)), 0.0);
}

TEST_F(EngineTest, PathCoverageSweep) {
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    tracker_.mark_rule(rid);
  }
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const PathCoverageResult result = engine.path_coverage();
  EXPECT_EQ(result.total_paths, 6u);
  // Covered: the leaf1 -> leaf2 p2 path (all three rules inspected) and
  // leaf2's one-rule p2 hairpin path (l2_to_p2 inspected). Everything
  // else involves uninspected rules.
  EXPECT_EQ(result.covered_paths, 2u);
  EXPECT_NEAR(result.fractional, 2.0 / 6.0, 1e-12);
  EXPECT_FALSE(result.truncated);
}

TEST_F(EngineTest, PathCoverageBudgetTruncates) {
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const PathCoverageResult result = engine.path_coverage(0.0, /*max_paths=*/3);
  EXPECT_EQ(result.total_paths, 3u);
  EXPECT_TRUE(result.truncated);
}

TEST_F(EngineTest, FlowQueryOnASpentBudgetSeesNoPath) {
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    tracker_.mark_rule(rid);
  }
  ResourceBudget budget;
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace(), EngineOptions{&budget});
  EXPECT_DOUBLE_EQ(engine.flow_coverage(tiny_.leaf1, tiny_.l1_host, dst(tiny_.p1)), 0.0);
  // The flow's walk reads the manager's budget: once it is spent the walk
  // stops before its first hop, and the flow is vacuously covered.
  budget.request_cancel();
  EXPECT_DOUBLE_EQ(engine.flow_coverage(tiny_.leaf1, tiny_.l1_host, dst(tiny_.p1)), 1.0);
}

TEST_F(EngineTest, BudgetDoesNotOutliveItsEngine) {
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());

  // Engine A's budget is freed once A is gone: a manager still holding it
  // would charge freed memory.
  auto budget = std::make_unique<ResourceBudget>();
  budget->with_max_bdd_nodes(300);
  {
    const CoverageEngine a(mgr_, tree.network, suite, EngineOptions{budget.get()});
    EXPECT_TRUE(a.truncated());
    EXPECT_EQ(mgr_.budget(), budget.get());
  }
  EXPECT_EQ(mgr_.budget(), nullptr);
  EXPECT_EQ(budget->used_bdd_nodes(), 0u);
  budget.reset();

  const CoverageEngine b(mgr_, tree.network, suite);
  bdd::BddManager fresh_mgr(packet::kNumHeaderBits);
  const CoverageEngine fresh(fresh_mgr, tree.network, suite);
  const MetricRow got = b.metrics();
  const MetricRow want = fresh.metrics();
  EXPECT_FALSE(got.truncated);
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.device_fractional, want.device_fractional);
  EXPECT_EQ(got.interface_fractional, want.interface_fractional);
  EXPECT_EQ(got.rule_fractional, want.rule_fractional);
  EXPECT_EQ(got.rule_weighted, want.rule_weighted);
}

TEST_F(EngineTest, UntestedRulesAndInterfaces) {
  tracker_.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const auto untested = engine.untested_rules();
  // 9 rules total; l1_to_p2 / sp_to_p2 / l2_to_p2 covered? No: the marks
  // were only reported at leaf1, so only l1_to_p2 is covered.
  EXPECT_EQ(untested.size(), 8u);
  const auto tor_untested = engine.untested_rules(role_filter(net::Role::ToR));
  EXPECT_EQ(tor_untested.size(), 5u);
  const auto ifaces = engine.untested_interfaces();
  EXPECT_FALSE(ifaces.empty());
}

TEST_F(EngineTest, ReportShapesAndText) {
  nettest::DefaultRouteCheck check;
  const dataplane::MatchSetIndex index(mgr_, tiny_.net);
  const dataplane::Transfer transfer(index);
  (void)check.run(transfer, tracker_);
  const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
  const CoverageReport report = engine.report();

  ASSERT_EQ(report.by_role.size(), 2u);  // ToR + Spine
  EXPECT_EQ(report.by_role[0].role, net::Role::ToR);
  EXPECT_EQ(report.by_role[0].device_count, 2u);
  // DefaultRouteCheck fails on the spine's null default (not forwarding) —
  // but it still marked the rule, so spine rule coverage is non-zero.
  EXPECT_GT(report.by_role[1].metrics.rule_fractional, 0.0);
  // Weighted rule coverage is high everywhere (default routes dominate).
  EXPECT_GT(report.overall.rule_weighted, 0.9);
  // Fractional rule coverage is low (only defaults covered).
  EXPECT_NEAR(report.overall.rule_fractional, 3.0 / 9.0, 1e-12);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("ToR"), std::string::npos);
  EXPECT_NE(text.find("default"), std::string::npos);
  EXPECT_NE(text.find("ALL"), std::string::npos);

  bool has_default_gap = false;
  for (const auto& gap : report.gaps) {
    if (gap.kind == net::RouteKind::Default) {
      has_default_gap = true;
      EXPECT_EQ(gap.untested, 0u);
      EXPECT_EQ(gap.total, 3u);
    }
  }
  EXPECT_TRUE(has_default_gap);
}

TEST_F(EngineTest, EngineOwnsThePassedTrace) {
  tracker_.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  const CoverageEngine reference(mgr_, tiny_.net, tracker_.trace());
  auto trace = std::make_unique<coverage::CoverageTrace>(tracker_.trace());
  const CoverageEngine engine(mgr_, tiny_.net, *trace);
  trace.reset();
  // Incoming-interface coverage reads the trace after construction.
  const auto incoming = coverage::InterfaceDirection::Incoming;
  EXPECT_GT(engine.interface_coverage(tiny_.l1_host, incoming), 0.0);
  EXPECT_EQ(engine.interface_coverage(tiny_.l1_host, incoming),
            reference.interface_coverage(tiny_.l1_host, incoming));
  EXPECT_EQ(engine.trace().marked_packets(), tracker_.trace().marked_packets());
  EXPECT_TRUE(engine.results().empty());
}

TEST_F(EngineTest, SuiteConstructorRunsTheSuiteLikeAPlainIndex) {
  nettest::ReachabilityQuery q;
  q.source = tiny_.leaf1;
  q.source_interface = tiny_.l1_host;
  q.headers = dst(tiny_.p2);
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<nettest::ReachabilityTest>("HostToP2", std::vector{std::move(q)}));
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());

  const dataplane::MatchSetIndex index(mgr_, tiny_.net);
  const dataplane::Transfer transfer(index);
  const std::vector<nettest::TestResult> want = suite.run_all(transfer, tracker_);

  const CoverageEngine engine(mgr_, tiny_.net, suite);
  EXPECT_EQ(results_to_json(engine.results()), results_to_json(want));
  EXPECT_FALSE(engine.trace().marked_packets().empty());
  EXPECT_FALSE(engine.trace().marked_rules().empty());
  EXPECT_EQ(engine.trace().marked_packets(), tracker_.trace().marked_packets());
  EXPECT_EQ(engine.trace().marked_rules(), tracker_.trace().marked_rules());
}

TEST_F(EngineTest, MonotonicityAcrossEngineRuns) {
  // Engine-level monotonicity: adding marks never lowers any headline.
  std::vector<MetricRow> rows;
  const auto snapshot = [&] {
    const CoverageEngine engine(mgr_, tiny_.net, tracker_.trace());
    rows.push_back(engine.report().overall);
  };
  snapshot();
  tracker_.mark_rule(tiny_.l1_default);
  snapshot();
  tracker_.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  snapshot();
  tracker_.mark_packet(net::device_location(tiny_.spine), PacketSet::all(mgr_));
  snapshot();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].device_fractional, rows[i - 1].device_fractional);
    EXPECT_GE(rows[i].interface_fractional, rows[i - 1].interface_fractional);
    EXPECT_GE(rows[i].rule_fractional, rows[i - 1].rule_fractional);
    EXPECT_GE(rows[i].rule_weighted, rows[i - 1].rule_weighted - 1e-12);
  }
}

}  // namespace
}  // namespace yardstick::ys
