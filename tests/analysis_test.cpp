// Tests for suite analysis: per-test contributions (solo, marginal,
// redundancy) read off the suite's coverage matrix, and the probes
// `--suggest` draws from the gap report.
#include <gtest/gtest.h>

#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/fattree.hpp"
#include "yardstick/optimize.hpp"

namespace yardstick::ys {
namespace {

/// A trivial test that marks exactly one given rule.
class OneRuleTest final : public nettest::NetworkTest {
 public:
  OneRuleTest(std::string name, net::RuleId rule) : name_(std::move(name)), rule_(rule) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] nettest::TestCategory category() const override {
    return nettest::TestCategory::StateInspection;
  }
  [[nodiscard]] nettest::TestResult run(const dataplane::Transfer&,
                                        CoverageTracker& tracker) const override {
    tracker.mark_rule(rule_);
    nettest::TestResult r;
    r.name = name_;
    r.checks = 1;
    return r;
  }

 private:
  std::string name_;
  net::RuleId rule_;
};

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest() : tiny_(testutil::make_tiny()), index_(mgr_, tiny_.net), transfer_(index_) {}

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  testutil::TinyNetwork tiny_;
  dataplane::MatchSetIndex index_;
  dataplane::Transfer transfer_;
};

TEST_F(AnalysisTest, DetectsRedundantDuplicate) {
  nettest::TestSuite suite("s");
  suite.add(std::make_unique<OneRuleTest>("a", tiny_.l1_to_p1));
  suite.add(std::make_unique<OneRuleTest>("a-duplicate", tiny_.l1_to_p1));
  suite.add(std::make_unique<OneRuleTest>("b", tiny_.sp_to_p2));

  const SuiteCoverageMatrix matrix = build_suite_matrix(transfer_, suite);
  const std::vector<TestContribution> tests = test_contributions(matrix);

  ASSERT_EQ(tests.size(), 3u);
  // The duplicated pair: each is individually redundant (the other covers
  // the same rule); the distinct test is not.
  EXPECT_TRUE(tests[0].redundant);
  EXPECT_TRUE(tests[1].redundant);
  EXPECT_FALSE(tests[2].redundant);
  EXPECT_EQ(tests[0].marginal, 0.0);
  EXPECT_GT(tests[2].marginal, 0.0);
  EXPECT_EQ(tests[2].name, "b");
  // Solo coverages: one rule each out of 9.
  EXPECT_NEAR(tests[0].solo, 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(tests[2].marginal, 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(minimize_suite(matrix).full_coverage, 2.0 / 9.0, 1e-12);
}

TEST_F(AnalysisTest, RealSuiteContributions) {
  // On a fat-tree: DefaultRouteCheck and ToRContract cover disjoint rule
  // populations, so both have positive marginal value; a duplicated
  // DefaultRouteCheck is redundant.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);

  nettest::TestSuite suite("real");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());

  const SuiteCoverageMatrix matrix = build_suite_matrix(transfer, suite);
  const std::vector<TestContribution> tests = test_contributions(matrix);
  EXPECT_TRUE(tests[0].redundant);   // duplicated with [2]
  EXPECT_FALSE(tests[1].redundant);  // unique contract coverage
  EXPECT_TRUE(tests[2].redundant);
  EXPECT_GT(minimize_suite(matrix).full_coverage, tests[1].solo);
}

TEST_F(AnalysisTest, BudgetedAnalysisClampsMarginalsAndFlagsTruncation) {
  // Regression: under a tripping budget the leave-one-out run could cover
  // more than the (degraded) full-suite run, which used to produce
  // negative marginals. Folded from one matrix, marginals stay >= 0, and
  // the matrix carries the truncated flag instead of throwing.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);

  nettest::TestSuite suite("budgeted");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());

  ResourceBudget budget;
  // The unbudgeted index above already allocated well past this cap, so
  // every per-test covered-set computation degrades.
  budget.with_max_bdd_nodes(1000);
  const bdd::ScopedBudget attach(mgr, &budget);
  const SuiteCoverageMatrix matrix = build_suite_matrix(transfer, suite, &budget);

  EXPECT_TRUE(matrix.truncated);
  const std::vector<TestContribution> tests = test_contributions(matrix);
  ASSERT_EQ(tests.size(), 2u);
  for (const TestContribution& t : tests) {
    EXPECT_GE(t.marginal, 0.0) << t.name;
    EXPECT_GE(t.solo, 0.0) << t.name;
  }
}

TEST_F(AnalysisTest, SuggestionsRespectBudgetAndFilter) {
  // `--suggest N` prints the gap report's first N packet witnesses: a
  // budget of N gives N probes on distinct untested rules, and a device
  // filter keeps every probe on the devices it selects.
  const coverage::CoverageTrace empty;
  const CoverageEngine engine(mgr_, tiny_.net, empty);
  const auto suggest = [](const GapReport& report, size_t budget) {
    std::vector<std::pair<net::DeviceId, net::RuleId>> probes;
    for (const DeviceGaps& d : report.devices) {
      for (const GapWitness& g : d.gaps) {
        if (g.state_only || probes.size() == budget) continue;
        probes.emplace_back(d.device, g.rule);
      }
    }
    return probes;
  };
  const auto first_three = suggest(build_gap_report(engine), 3);
  ASSERT_EQ(first_three.size(), 3u);
  EXPECT_NE(first_three[0].second, first_three[1].second);
  EXPECT_NE(first_three[1].second, first_three[2].second);
  EXPECT_NE(first_three[0].second, first_three[2].second);

  const auto spine_only = suggest(build_gap_report(engine, role_filter(net::Role::Spine)), 100);
  EXPECT_EQ(spine_only.size(), 3u);
  for (const auto& [device, rule] : spine_only) {
    EXPECT_EQ(tiny_.net.device(device).role, net::Role::Spine);
    EXPECT_EQ(tiny_.net.rule(rule).device, device);
  }
}

}  // namespace
}  // namespace yardstick::ys
