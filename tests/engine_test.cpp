// Tests for the Yardstick engine (phase 2) and tracker (phase 1).
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "fault_injection.hpp"
#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
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

/// A routed network and a suite that runs on it.
struct FoldSubject {
  std::string name;
  net::Network network;
  nettest::TestSuite suite;
};

/// The `fattree` suite on a k=4 fat tree (the CLI's `fattree --k 4 --suite
/// fattree`).
FoldSubject fattree_subject() {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  nettest::TestSuite suite("fattree");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::ToRReachability>());
  suite.add(std::make_unique<nettest::ToRPingmesh>());
  return {"fattree k=4", std::move(tree.network), std::move(suite)};
}

/// The `final` suite on the CLI's `regional --acl --transforms 2`.
FoldSubject regional_subject() {
  topo::RegionalNetwork regional = topo::make_regional({});
  const topo::TransformState transforms =
      topo::plan_transforms(regional, {.tunnels = 2, .nat_rules_per_wan = 2});
  routing::FibBuilder::compute_and_build(regional.network, regional.routing);
  topo::install_ingress_acls(regional.network, regional.tors);
  topo::install_transform_rules(regional.network, transforms, regional.routing);
  const std::unordered_set<net::DeviceId> excluded(
      regional.routing.no_default_devices.begin(), regional.routing.no_default_devices.end());
  nettest::TestSuite suite("final");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
  suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  suite.add(std::make_unique<nettest::InternalRouteCheck>());
  suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  suite.add(std::make_unique<nettest::AclBlockCheck>());
  suite.add(std::make_unique<nettest::BlockedPortCheck>());
  suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
  suite.add(std::make_unique<nettest::NatTranslationCheck>());
  return {"regional --acl --transforms 2", std::move(regional.network), std::move(suite)};
}

/// The values of `arg` on every span named `name` the tracer holds.
std::vector<uint64_t> span_args(const char* name, const char* arg) {
  std::vector<uint64_t> out;
  for (const obs::TraceEvent& e : obs::Tracer::global().snapshot()) {
    if (std::string_view(e.name) != name) continue;
    for (int a = 0; a < e.num_args; ++a) {
      if (std::string_view(e.args[a].key) == arg) out.push_back(e.args[a].value);
    }
  }
  return out;
}

TEST(TrackerFoldTest, EveryBoundFoldsToTheSequentialTrace) {
  for (const auto make : {&fattree_subject, &regional_subject}) {
    const FoldSubject subject = make();
    SCOPED_TRACE(subject.name);
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const dataplane::MatchSetIndex index(mgr, subject.network);
    const dataplane::Transfer transfer(index);

    // The reference: one CoverageTrace::mark_packet per report, in call
    // order. Each test runs on its own tracker, whose buffer holds the
    // test's reports unfolded (fewer than the bound at this size).
    coverage::CoverageTrace sequential;
    uint64_t reports = 0;
    for (size_t i = 0; i < subject.suite.size(); ++i) {
      CoverageTracker tracker;
      (void)subject.suite.test(i).run(transfer, tracker);
      ASSERT_LT(tracker.packet_calls(), CoverageTracker::kBound);
      for (const coverage::PacketReport& r : tracker.pending()) {
        sequential.mark_packet(r.location, PacketSet(bdd::Bdd(&mgr, r.packets)));
      }
      reports += tracker.pending().size();
      for (const net::RuleId rule : tracker.trace().marked_rules()) sequential.mark_rule(rule);
    }
    ASSERT_GT(reports, 0u);

    for (const size_t bound : {size_t{1}, size_t{2}, size_t{7}, CoverageTracker::kBound}) {
      SCOPED_TRACE(bound);
      obs::Tracer::global().clear();
      obs::set_enabled(true);
      CoverageTracker tracker(bound);
      (void)subject.suite.run_all(transfer, tracker);
      const coverage::CoverageTrace& trace = tracker.trace();
      obs::set_enabled(false);
      // Canonical sets: the same function is the same node.
      EXPECT_EQ(trace.marked_packets(), sequential.marked_packets());
      EXPECT_EQ(trace.marked_rules(), sequential.marked_rules());
      // Every report was folded once, and no fold held more than the bound.
      uint64_t folded = 0;
      for (const uint64_t n : span_args("tracker.fold", "reports")) {
        EXPECT_LE(n, bound);
        folded += n;
      }
      EXPECT_EQ(folded, reports);
    }
    obs::Tracer::global().clear();
  }
}

TEST(TrackerFoldTest, FoldAllocatesOnlyNodesOfTheFoldedSets) {
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  // An untracked run first builds the test's own packet sets, so what the
  // arena gains below is the tracker's.
  CoverageTracker off;
  off.set_enabled(false);
  (void)nettest::ToRContract().run(transfer, off);

  const size_t before = mgr.arena_size();
  CoverageTracker tracker;
  (void)nettest::ToRContract().run(transfer, tracker);
  const coverage::CoverageTrace& trace = tracker.trace();
  const size_t grown = mgr.arena_size() - before;

  // The nodes of the folded sets that the arena did not hold before.
  std::unordered_set<bdd::NodeIndex> fresh;
  std::vector<bdd::NodeIndex> stack;
  for (const auto& [loc, ps] : trace.marked_packets().entries()) stack.push_back(ps.raw().index());
  while (!stack.empty()) {
    const bdd::NodeIndex n = stack.back();
    stack.pop_back();
    if (n < before || !fresh.insert(n).second) continue;
    stack.push_back(mgr.node(n).low);
    stack.push_back(mgr.node(n).high);
  }
  EXPECT_GT(grown, 0u);
  EXPECT_EQ(grown, fresh.size()) << "the fold left nodes no folded set reaches";
  // A union per report left 10,078 nodes here, most of them garbage.
  EXPECT_LT(grown, 1000u);
}

TEST(TrackerFoldTest, AFoldThatThrowsLosesNothing) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);

  CoverageTracker tracker;
  (void)nettest::ToRContract().run(transfer, tracker);
  const packet::LocatedPacketSet first = tracker.trace().marked_packets();
  (void)nettest::ToRPingmesh().run(transfer, tracker);
  const std::vector<coverage::PacketReport> reports(tracker.pending().begin(),
                                                    tracker.pending().end());

  // The trace's own fold: nothing is stored unless every location's set
  // was computed.
  coverage::CoverageTrace trace;
  for (const auto& [loc, ps] : first.entries()) trace.mark_packet(loc, ps);
  {
    const testutil::ScopedFault boom("bdd.make", testutil::trip_budget("fold"), 20);
    EXPECT_THROW((void)trace.fold(mgr, reports), BudgetExceededError);
  }
  EXPECT_EQ(trace.marked_packets(), first);

  // The tracker's: its buffer survives the throw and folds once disarmed.
  {
    const testutil::ScopedFault boom("bdd.make", testutil::trip_budget("fold"), 20);
    EXPECT_THROW((void)tracker.trace(), BudgetExceededError);
  }
  EXPECT_EQ(tracker.pending().size(), reports.size());
  const coverage::CoverageTrace& folded = tracker.trace();
  EXPECT_TRUE(tracker.pending().empty());
  (void)trace.fold(mgr, reports);

  CoverageTracker reference;
  (void)nettest::ToRContract().run(transfer, reference);
  (void)nettest::ToRPingmesh().run(transfer, reference);
  EXPECT_EQ(folded.marked_packets(), reference.trace().marked_packets());
  EXPECT_EQ(trace.marked_packets(), reference.trace().marked_packets());
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
