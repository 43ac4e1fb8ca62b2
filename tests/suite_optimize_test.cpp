// Tests for suite optimization: set-cover minimization (known minimal
// subsets, slack monotonicity, edge cases), cost-aware prioritization,
// gap-witness synthesis + dataplane replay, and thread-count bit-identity
// of everything derived from the coverage matrix.
#include <gtest/gtest.h>

#include <optional>

#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "yardstick/optimize.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

using packet::PacketSet;

/// Marks a fixed set of rules (state inspection), so tests control the
/// coverage matrix exactly.
class MarkRulesTest final : public nettest::NetworkTest {
 public:
  MarkRulesTest(std::string name, std::vector<net::RuleId> rules)
      : name_(std::move(name)), rules_(std::move(rules)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] nettest::TestCategory category() const override {
    return nettest::TestCategory::StateInspection;
  }
  [[nodiscard]] nettest::TestResult run(const dataplane::Transfer&,
                                        CoverageTracker& tracker) const override {
    for (const net::RuleId r : rules_) tracker.mark_rule(r);
    nettest::TestResult res;
    res.name = name_;
    res.checks = rules_.size();
    return res;
  }

 private:
  std::string name_;
  std::vector<net::RuleId> rules_;
};

class SuiteOptimizeTest : public ::testing::Test {
 protected:
  SuiteOptimizeTest()
      : tiny_(testutil::make_tiny()), index_(mgr_, tiny_.net), transfer_(index_) {}

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  testutil::TinyNetwork tiny_;
  dataplane::MatchSetIndex index_;
  dataplane::Transfer transfer_;
};

TEST_F(SuiteOptimizeTest, MinimizationFindsKnownMinimalSubset) {
  // alpha covers {l1_to_p1}; beta covers {sp_to_p1, sp_to_p2}; gamma
  // duplicates alpha. The unique minimum cover is {beta, alpha} (gamma
  // loses the name tie-break).
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<MarkRulesTest>(
      "alpha", std::vector<net::RuleId>{tiny_.l1_to_p1}));
  suite.add(std::make_unique<MarkRulesTest>(
      "beta", std::vector<net::RuleId>{tiny_.sp_to_p1, tiny_.sp_to_p2}));
  suite.add(std::make_unique<MarkRulesTest>(
      "gamma", std::vector<net::RuleId>{tiny_.l1_to_p1}));

  const SuiteCoverageMatrix m = build_suite_matrix(transfer_, suite);
  const MinimizeResult min = minimize_suite(m);

  ASSERT_EQ(min.selected.size(), 2u);
  EXPECT_EQ(min.selected[0].name, "beta");   // biggest gain first
  EXPECT_EQ(min.selected[1].name, "alpha");  // name beats gamma on the tie
  EXPECT_EQ(min.selected[0].added_rules, 2u);
  EXPECT_EQ(min.selected[1].added_rules, 1u);
  // Exact preservation, stated in the same doubles the engine computes.
  EXPECT_EQ(min.achieved_coverage, min.full_coverage);
  EXPECT_EQ(min.dropped(m), std::vector<std::string>{"gamma"});
  EXPECT_TRUE(min.contains(0));
  EXPECT_TRUE(min.contains(1));
  EXPECT_FALSE(min.contains(2));
}

TEST_F(SuiteOptimizeTest, SlackKnobIsMonotoneAndPrefixStable) {
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<MarkRulesTest>(
      "a", std::vector<net::RuleId>{tiny_.l1_to_p1}));
  suite.add(std::make_unique<MarkRulesTest>(
      "b", std::vector<net::RuleId>{tiny_.sp_to_p1, tiny_.sp_to_p2}));
  suite.add(std::make_unique<MarkRulesTest>(
      "c", std::vector<net::RuleId>{tiny_.l2_to_p2}));
  suite.add(std::make_unique<MarkRulesTest>(
      "d", std::vector<net::RuleId>{tiny_.l2_default}));
  const SuiteCoverageMatrix m = build_suite_matrix(transfer_, suite);

  std::vector<MinimizeResult> results;
  for (const double f : {0.2, 0.5, 0.8, 0.95, 1.0}) {
    results.push_back(minimize_suite(m, f));
    EXPECT_GE(results.back().achieved_coverage,
              f * results.back().full_coverage);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    // Sizes are monotone in the knob and looser selections are prefixes of
    // stricter ones (greedy order does not depend on the target).
    ASSERT_GE(results[i].selected.size(), results[i - 1].selected.size());
    for (size_t j = 0; j < results[i - 1].selected.size(); ++j) {
      EXPECT_EQ(results[i].selected[j].index, results[i - 1].selected[j].index);
    }
  }
  EXPECT_EQ(results.back().achieved_coverage, results.back().full_coverage);
}

TEST_F(SuiteOptimizeTest, EmptySuiteMinimizesToNothing) {
  const nettest::TestSuite suite("empty");
  const SuiteCoverageMatrix m = build_suite_matrix(transfer_, suite);
  EXPECT_EQ(m.test_count(), 0u);

  const MinimizeResult min = minimize_suite(m);
  EXPECT_TRUE(min.selected.empty());
  EXPECT_EQ(min.achieved_coverage, min.full_coverage);

  const PrioritizeResult pri = prioritize_suite(m);
  EXPECT_TRUE(pri.order.empty());
  EXPECT_EQ(pri.full_coverage, m.coverage_of(0));
}

TEST_F(SuiteOptimizeTest, AllRedundantSuiteKeepsExactlyOne) {
  // Three byte-identical tests under different names: any one preserves
  // full coverage; the name tie-break keeps the lexicographically first.
  nettest::TestSuite suite("s");
  for (const char* name : {"charlie", "alice", "bob"}) {
    suite.add(std::make_unique<MarkRulesTest>(
        name, std::vector<net::RuleId>{tiny_.sp_to_p1}));
  }
  const SuiteCoverageMatrix m = build_suite_matrix(transfer_, suite);
  const MinimizeResult min = minimize_suite(m);
  ASSERT_EQ(min.selected.size(), 1u);
  EXPECT_EQ(min.selected[0].name, "alice");
  EXPECT_EQ(min.achieved_coverage, min.full_coverage);
}

TEST_F(SuiteOptimizeTest, ZeroCoverageSuiteSelectsNothing) {
  // A test that marks nothing cannot help; minimization must terminate
  // with an empty selection instead of spinning on zero-gain candidates.
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<MarkRulesTest>("noop", std::vector<net::RuleId>{}));
  const SuiteCoverageMatrix m = build_suite_matrix(transfer_, suite);
  const MinimizeResult min = minimize_suite(m);
  EXPECT_TRUE(min.selected.empty());
  EXPECT_EQ(min.achieved_coverage, min.full_coverage);
}

TEST_F(SuiteOptimizeTest, PrioritizationOrdersByMarginalCoveragePerSecond) {
  // Hand-built matrix so the cost side is deterministic: "fast-small"
  // buys 1 rule for 0.01s (100 rules/s); "slow-big" buys 3 rules for 1s
  // (3 rules/s). Value-per-second greedy schedules fast-small first even
  // though slow-big has the larger marginal.
  SuiteCoverageMatrix m;
  m.rule_count = 4;
  m.vacuous.assign(4, 0);
  m.names = {"slow-big", "fast-small"};
  m.seconds = {1.0, 0.01};
  m.covers = {{1, 1, 1, 0}, {0, 0, 0, 1}};

  const PrioritizeResult pri = prioritize_suite(m);
  ASSERT_EQ(pri.order.size(), 2u);
  EXPECT_EQ(pri.order[0].name, "fast-small");
  EXPECT_EQ(pri.order[1].name, "slow-big");
  // The cumulative curve ends at full coverage and total cost.
  EXPECT_EQ(pri.order.back().cumulative_coverage, pri.full_coverage);
  EXPECT_DOUBLE_EQ(pri.order.back().cumulative_seconds, 1.01);
  EXPECT_DOUBLE_EQ(pri.order[0].marginal, 0.25);
  EXPECT_DOUBLE_EQ(pri.order[1].marginal, 0.75);
}

TEST_F(SuiteOptimizeTest, PrioritizationDegradesToCoverageGreedyAtZeroCost) {
  // All-zero seconds (instant tests): cross-multiplied ratios tie, so the
  // order falls back to pure coverage greedy with the name tie-break.
  SuiteCoverageMatrix m;
  m.rule_count = 3;
  m.vacuous.assign(3, 0);
  m.names = {"small", "big"};
  m.seconds = {0.0, 0.0};
  m.covers = {{1, 0, 0}, {0, 1, 1}};

  const PrioritizeResult pri = prioritize_suite(m);
  ASSERT_EQ(pri.order.size(), 2u);
  EXPECT_EQ(pri.order[0].name, "big");
  EXPECT_EQ(pri.order[1].name, "small");
}

TEST_F(SuiteOptimizeTest, GapWitnessesReplayThroughTheTransferFunction) {
  // Cover one rule; every other rule must show up with a witness that,
  // pushed through the dataplane's concrete first-match lookup, hits
  // exactly the rule it claims to exercise.
  CoverageTracker tracker;
  tracker.mark_rule(tiny_.l1_to_p1);
  const CoverageEngine engine(mgr_, tiny_.net, tracker.trace());

  const GapReport report = build_gap_report(engine);
  EXPECT_EQ(report.uncovered_rules, 8u);  // 9 rules - 1 covered
  EXPECT_EQ(report.state_only, 0u);
  size_t replayed = 0;
  for (const DeviceGaps& d : report.devices) {
    for (const GapWitness& g : d.gaps) {
      ASSERT_FALSE(g.state_only);
      const net::RuleId hit =
          transfer_.lookup(d.device, net::InterfaceId{}, g.witness,
                           tiny_.net.rule(g.rule).table);
      EXPECT_EQ(hit, g.rule) << g.content_key;
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, report.uncovered_rules);
}

TEST_F(SuiteOptimizeTest, GapReportIsExhaustiveAndGroupedByDevice) {
  const coverage::CoverageTrace empty;
  const CoverageEngine engine(mgr_, tiny_.net, empty);
  const GapReport report = build_gap_report(engine);

  // Exhaustive: one entry per untested rule, same set as the engine's.
  const std::vector<net::RuleId> untested = engine.untested_rules();
  EXPECT_EQ(report.uncovered_rules, untested.size());
  size_t total = 0;
  std::vector<net::DeviceId> device_order;
  for (const DeviceGaps& d : report.devices) {
    total += d.gaps.size();
    device_order.push_back(d.device);
    for (const GapWitness& g : d.gaps) {
      EXPECT_EQ(tiny_.net.rule(g.rule).device, d.device);
    }
  }
  EXPECT_EQ(total, untested.size());
  // Devices appear in network order.
  const std::vector<net::DeviceId> expected{tiny_.leaf1, tiny_.spine, tiny_.leaf2};
  EXPECT_EQ(device_order, expected);

  // A device filter keeps only the devices it selects, whole.
  const GapReport spine_only = build_gap_report(engine, role_filter(net::Role::Spine));
  ASSERT_EQ(spine_only.devices.size(), 1u);
  EXPECT_EQ(spine_only.devices.front().device, tiny_.spine);
  EXPECT_EQ(spine_only.uncovered_rules, 3u);
  EXPECT_EQ(spine_only.packet_witnesses, 3u);
}

TEST_F(SuiteOptimizeTest, AclShadowedRuleBecomesStateOnly) {
  // leaf1 permits only TCP/80; a UDP-only FIB rule on leaf1 has an empty
  // exercisable space — no injected packet can cover it, and the report
  // must say so instead of fabricating a witness.
  net::MatchSpec permit_web;
  permit_web.proto = 6;
  permit_web.dst_port = net::PortRange{80, 80};
  tiny_.net.add_rule(tiny_.leaf1, permit_web, net::Action::permit(),
                     net::RouteKind::Security, 0, net::TableKind::Acl);
  net::MatchSpec udp_only;
  udp_only.proto = 17;
  const net::RuleId udp_rule =
      tiny_.net.add_rule(tiny_.leaf1, udp_only, net::Action::forward({tiny_.l1_up}),
                         net::RouteKind::Other, 1);

  const coverage::CoverageTrace empty;
  const CoverageEngine engine(mgr_, tiny_.net, empty);
  const GapReport report = build_gap_report(engine);
  EXPECT_GE(report.state_only, 1u);
  bool found = false;
  for (const DeviceGaps& d : report.devices) {
    for (const GapWitness& g : d.gaps) {
      if (g.rule == udp_rule) {
        found = true;
        EXPECT_TRUE(g.state_only);
      } else if (!g.state_only && d.device == tiny_.leaf1 &&
                 tiny_.net.rule(g.rule).table == net::TableKind::Fib) {
        // Witnesses on the ACL'd device sample the permitted space only.
        EXPECT_EQ(g.witness.proto, 6) << g.content_key;
        EXPECT_EQ(g.witness.dst_port, 80) << g.content_key;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SuiteOptimizeTest, ByteIdenticalTwinsCollapseUnderTheContentKey) {
  // Re-adding l1_to_p1 verbatim creates a shadowed twin: it is vacuous
  // (empty disjoint match set) so it never gets its own gap entry, and the
  // surviving representative is annotated as standing for both.
  const net::Rule orig = tiny_.net.rule(tiny_.l1_to_p1);
  tiny_.net.add_rule(orig.device, tiny_.net.match_spec(orig.id), tiny_.net.action(orig.id),
                     orig.kind, orig.priority, orig.table);
  const coverage::CoverageTrace empty;
  const CoverageEngine engine(mgr_, tiny_.net, empty);
  const GapReport report = build_gap_report(engine);
  bool found = false;
  for (const DeviceGaps& d : report.devices) {
    for (const GapWitness& g : d.gaps) {
      if (g.rule == tiny_.l1_to_p1) {
        found = true;
        EXPECT_EQ(g.collapsed, 2u) << g.content_key;
        EXPECT_EQ(g.content_key,
                  net::rule_content_key(tiny_.net, tiny_.net.rule_content(tiny_.l1_to_p1)));
      } else {
        EXPECT_EQ(g.collapsed, 1u) << g.content_key;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SuiteOptimizeTest, MatrixAndMinimizationAreBitIdenticalAcrossThreadCounts) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);

  auto run_at = [&](unsigned threads) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const dataplane::MatchSetIndex index(mgr, tree.network);
    const dataplane::Transfer transfer(index);
    nettest::TestSuite suite("s");
    suite.add(std::make_unique<nettest::DefaultRouteCheck>());
    suite.add(std::make_unique<nettest::ToRContract>());
    suite.add(std::make_unique<nettest::DefaultRouteCheck>());
    return build_suite_matrix(transfer, suite, threads);
  };
  const SuiteCoverageMatrix m1 = run_at(1);
  const SuiteCoverageMatrix m4 = run_at(4);
  const SuiteCoverageMatrix m8 = run_at(8);

  EXPECT_EQ(m1.covers, m4.covers);
  EXPECT_EQ(m1.covers, m8.covers);
  EXPECT_EQ(m1.vacuous, m4.vacuous);
  EXPECT_EQ(m1.vacuous_count, m8.vacuous_count);

  const MinimizeResult r1 = minimize_suite(m1);
  const MinimizeResult r4 = minimize_suite(m4);
  ASSERT_EQ(r1.selected.size(), r4.selected.size());
  for (size_t i = 0; i < r1.selected.size(); ++i) {
    EXPECT_EQ(r1.selected[i].index, r4.selected[i].index);
    EXPECT_EQ(r1.selected[i].cumulative_coverage, r4.selected[i].cumulative_coverage);
  }
  EXPECT_EQ(r1.achieved_coverage, r4.achieved_coverage);
}

TEST_F(SuiteOptimizeTest, MatrixWorkersChargeTheBudget) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::ToRPingmesh>());
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());

  struct Run {
    bdd::BddManager mgr{packet::kNumHeaderBits};
    std::optional<CoverageEngine> engine;
  };
  const auto run_engine = [&](Run& run, const EngineOptions& options) {
    run.engine.emplace(run.mgr, tree.network, suite, options);
  };
  Run unbudgeted;
  run_engine(unbudgeted, {});
  const size_t engine_nodes = unbudgeted.mgr.arena_size();

  // A cap with a quarter to spare fits the engine, but not four workers'
  // index clones on top of it.
  ResourceBudget budget;
  budget.with_max_bdd_nodes(engine_nodes + engine_nodes / 4);
  Run budgeted;
  run_engine(budgeted, {&budget});
  ASSERT_FALSE(budgeted.engine->truncated());
  EXPECT_TRUE(build_suite_matrix(budgeted.engine->transfer(), suite, 4).truncated);
  // The workers returned their charge, and without a budget nothing trips.
  EXPECT_EQ(budget.used_bdd_nodes(), budgeted.mgr.arena_size());
  const bdd::ScopedBudget detached(budgeted.mgr, nullptr);
  EXPECT_FALSE(build_suite_matrix(budgeted.engine->transfer(), suite, 4).truncated);
}

TEST_F(SuiteOptimizeTest, GapReportJsonIsBitIdenticalAcrossThreadCounts) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);

  auto gap_json_at = [&](unsigned threads) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    nettest::TestSuite suite("s");
    suite.add(std::make_unique<nettest::DefaultRouteCheck>());
    suite.add(std::make_unique<nettest::ToRContract>());
    bdd::BddManager run_mgr(packet::kNumHeaderBits);
    const dataplane::MatchSetIndex index(run_mgr, tree.network);
    const dataplane::Transfer transfer(index);
    CoverageTracker tracker;
    (void)suite.run_all(transfer, tracker);
    const CoverageEngine engine(run_mgr, tree.network, tracker.trace(),
                                EngineOptions{nullptr, threads, ""});
    const GapReport report = build_gap_report(engine);
    const SuiteCoverageMatrix m = build_suite_matrix(transfer, suite, threads);
    return optimize_to_json(m, nullptr, nullptr, &report);
  };
  const std::string j1 = gap_json_at(1);
  const std::string j4 = gap_json_at(4);
  const std::string j8 = gap_json_at(8);
  // Timing fields are part of the matrix section; strip nothing — the gap
  // section is the whole comparison, so serialize only it.
  const auto gap_section = [](const std::string& s) {
    return s.substr(s.find("\"gap_report\""));
  };
  EXPECT_EQ(gap_section(j1), gap_section(j4));
  EXPECT_EQ(gap_section(j1), gap_section(j8));
}

TEST_F(SuiteOptimizeTest, MinimizedFatTreeSuiteRecomputesToFullCoverage) {
  // The acceptance criterion, in-process: the minimized k=4 suite is a
  // strict subset whose engine-recomputed fractional rule coverage equals
  // the full suite's bit for bit.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);

  nettest::TestSuite suite("fattree");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::ToRReachability>());
  suite.add(std::make_unique<nettest::ToRPingmesh>());

  const SuiteCoverageMatrix m = build_suite_matrix(transfer, suite);
  const MinimizeResult min = minimize_suite(m);
  ASSERT_LT(min.selected.size(), suite.size());  // strict subset
  ASSERT_FALSE(min.selected.empty());

  CoverageTracker full_tracker;
  (void)suite.run_all(transfer, full_tracker);
  CoverageTracker subset_tracker;
  for (const SelectedTest& s : min.selected) {
    (void)suite.test(s.index).run(transfer, subset_tracker);
  }
  const CoverageEngine full_engine(mgr, tree.network, full_tracker.trace());
  const CoverageEngine subset_engine(mgr, tree.network, subset_tracker.trace());
  EXPECT_EQ(full_engine.metrics().rule_fractional,
            subset_engine.metrics().rule_fractional);
  EXPECT_EQ(min.achieved_coverage, full_engine.metrics().rule_fractional);

  // The shared cross-check, on an engine that ran the suite itself, gives
  // the same two numbers.
  MinimizeResult checked = min;
  const CoverageEngine engine(mgr, tree.network, suite);
  recompute_minimized(checked, engine, suite);
  EXPECT_EQ(checked.recomputed_full, full_engine.metrics().rule_fractional);
  EXPECT_EQ(checked.recomputed_subset, subset_engine.metrics().rule_fractional);
}

}  // namespace
}  // namespace yardstick::ys
