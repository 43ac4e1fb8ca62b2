// One match-set index per snapshot (DESIGN.md §16). The engine constructor
// that runs a suite on its own index must give exactly what the two-index
// order gives — a serial MatchSetIndex for the tests, then the trace
// constructor: the same report JSON, metrics() rows, rule measures,
// serialized trace and test results, on three networks, at 1 and 4
// threads, and with a cold and a warm incremental cache. The budget bounds
// steps 1-3 only: a cap that trips step 1 hands the tests a partial data
// plane, and the run degrades instead of throwing.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/json.hpp"
#include "yardstick/persist.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

enum class NetworkKind { Tiny, FatTree, Regional };

struct Case {
  NetworkKind network;
  unsigned threads;
};

std::string label(const Case& c) {
  const char* net = c.network == NetworkKind::Tiny      ? "tiny"
                    : c.network == NetworkKind::FatTree ? "fattree_k4"
                                                        : "regional_acl_transforms";
  return std::string(net) + "_t" + std::to_string(c.threads);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) { return label(info.param); }

/// Keeps ctest's test names free of the struct's raw padding bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << label(c); }

/// Marks one rule by state inspection (the other branch of Algorithm 1).
class InspectRule final : public nettest::NetworkTest {
 public:
  explicit InspectRule(net::RuleId rule) : rule_(rule) {}
  [[nodiscard]] std::string name() const override { return "InspectRule"; }
  [[nodiscard]] nettest::TestCategory category() const override {
    return nettest::TestCategory::StateInspection;
  }
  [[nodiscard]] nettest::TestResult run(const dataplane::Transfer&,
                                        CoverageTracker& tracker) const override {
    tracker.mark_rule(rule_);
    nettest::TestResult r;
    r.name = name();
    r.checks = 1;
    return r;
  }

 private:
  net::RuleId rule_;
};

/// Runs `body` on the transfer it is handed: a probe into the engine's
/// online phase.
class Probe final : public nettest::NetworkTest {
 public:
  explicit Probe(std::function<void(const dataplane::Transfer&)> body)
      : body_(std::move(body)) {}
  [[nodiscard]] std::string name() const override { return "Probe"; }
  [[nodiscard]] nettest::TestCategory category() const override {
    return nettest::TestCategory::StateInspection;
  }
  [[nodiscard]] nettest::TestResult run(const dataplane::Transfer& transfer,
                                        CoverageTracker&) const override {
    body_(transfer);
    return make_result();
  }

 private:
  std::function<void(const dataplane::Transfer&)> body_;
};

/// A network with its forwarding state; the suite is built per manager,
/// because the tiny network's reachability query holds a packet set.
struct Subject {
  NetworkKind kind;
  testutil::TinyNetwork tiny;
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  const net::Network* network = nullptr;

  explicit Subject(NetworkKind k) : kind(k) {
    if (kind == NetworkKind::Tiny) {
      // A shadowed twin of leaf1's p1 route: a vacuous rule.
      tiny = testutil::make_tiny();
      tiny.net.add_rule(tiny.leaf1, net::MatchSpec::for_dst(tiny.p1),
                        net::Action::forward({tiny.l1_up}), net::RouteKind::Internal, 9);
      network = &tiny.net;
    } else if (kind == NetworkKind::FatTree) {
      fattree = topo::make_fat_tree({.k = 4});
      routing::FibBuilder::compute_and_build(fattree.network, fattree.routing);
      network = &fattree.network;
    } else {
      // The CLI's `regional --acl --transforms 2`.
      regional = topo::make_regional({});
      const topo::TransformState transforms =
          topo::plan_transforms(regional, {.tunnels = 2, .nat_rules_per_wan = 2});
      routing::FibBuilder::compute_and_build(regional.network, regional.routing);
      topo::install_ingress_acls(regional.network, regional.tors);
      topo::install_transform_rules(regional.network, transforms, regional.routing);
      network = &regional.network;
    }
  }

  [[nodiscard]] nettest::TestSuite suite(bdd::BddManager& mgr) const {
    nettest::TestSuite s("suite");
    if (kind == NetworkKind::Tiny) {
      nettest::ReachabilityQuery q;
      q.source = tiny.leaf1;
      q.source_interface = tiny.l1_host;
      q.headers = packet::PacketSet::dst_prefix(mgr, tiny.p2);
      s.add(std::make_unique<nettest::ReachabilityTest>("HostToP2",
                                                         std::vector{std::move(q)}));
      s.add(std::make_unique<InspectRule>(tiny.sp_to_p1));
    } else if (kind == NetworkKind::FatTree) {
      s.add(std::make_unique<nettest::DefaultRouteCheck>());
      s.add(std::make_unique<nettest::ToRContract>());
      s.add(std::make_unique<nettest::ToRReachability>());
      s.add(std::make_unique<nettest::ToRPingmesh>());
    } else {
      const std::unordered_set<net::DeviceId> excluded(
          regional.routing.no_default_devices.begin(),
          regional.routing.no_default_devices.end());
      s.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
      s.add(std::make_unique<nettest::AggCanReachTorLoopback>());
      s.add(std::make_unique<nettest::InternalRouteCheck>());
      s.add(std::make_unique<nettest::ConnectedRouteCheck>());
      s.add(std::make_unique<nettest::AclBlockCheck>());
      s.add(std::make_unique<nettest::BlockedPortCheck>());
      s.add(std::make_unique<nettest::TunnelRoundTripCheck>());
      s.add(std::make_unique<nettest::NatTranslationCheck>());
    }
    return s;
  }
};

/// Everything a run reports, timings aside.
struct Outcome {
  std::string report_json;
  MetricRow overall;
  std::vector<MetricRow> by_role;
  std::vector<RuleMeasure> measures;
  std::string trace;
  std::string results_json;
  CacheStats cache;
};

Outcome outcome(const CoverageEngine& engine, bdd::BddManager& mgr,
                const std::vector<nettest::TestResult>& results) {
  Outcome o;
  CoverageReport report = engine.report();
  report.timings = {};
  o.report_json = report_to_json(report);
  o.overall = engine.metrics();
  for (const net::Role role : {net::Role::ToR, net::Role::Aggregation, net::Role::Spine,
                               net::Role::RegionalHub, net::Role::Wan}) {
    o.by_role.push_back(engine.metrics(role_filter(role)));
  }
  for (const net::Rule& rule : engine.network().rules()) {
    o.measures.push_back(engine.rule_measure(rule.id));
  }
  o.trace = serialize_trace(engine.trace(), mgr);
  o.results_json = results_to_json(results);
  if (const CacheStats* cs = engine.cache_stats()) o.cache = *cs;
  return o;
}

/// The two-index order: a serial index for the tests, then the engine.
Outcome two_indexes(const Subject& s, const EngineOptions& options) {
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const nettest::TestSuite suite = s.suite(mgr);
  CoverageTracker tracker;
  std::vector<nettest::TestResult> results;
  {
    const dataplane::MatchSetIndex index(mgr, *s.network);
    const dataplane::Transfer transfer(index);
    results = suite.run_all(transfer, tracker);
  }
  const CoverageEngine engine(mgr, *s.network, tracker.trace(), options);
  return outcome(engine, mgr, results);
}

/// The engine's own index serves the tests.
Outcome one_index(const Subject& s, const EngineOptions& options) {
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const nettest::TestSuite suite = s.suite(mgr);
  const CoverageEngine engine(mgr, *s.network, suite, options);
  return outcome(engine, mgr, engine.results());
}

void expect_same_row(const MetricRow& a, const MetricRow& b) {
  EXPECT_EQ(a.device_fractional, b.device_fractional);
  EXPECT_EQ(a.interface_fractional, b.interface_fractional);
  EXPECT_EQ(a.rule_fractional, b.rule_fractional);
  EXPECT_EQ(a.rule_weighted, b.rule_weighted);
  EXPECT_EQ(a.truncated, b.truncated);
}

void expect_same(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(want.report_json, got.report_json);
  expect_same_row(want.overall, got.overall);
  ASSERT_EQ(want.by_role.size(), got.by_role.size());
  for (size_t i = 0; i < want.by_role.size(); ++i) {
    expect_same_row(want.by_role[i], got.by_role[i]);
  }
  ASSERT_EQ(want.measures.size(), got.measures.size());
  for (size_t r = 0; r < want.measures.size(); ++r) {
    EXPECT_EQ(want.measures[r].match, got.measures[r].match) << "rule " << r;
    EXPECT_EQ(want.measures[r].covered, got.measures[r].covered) << "rule " << r;
  }
  EXPECT_EQ(want.trace, got.trace);
  EXPECT_EQ(want.results_json, got.results_json);
}

class SingleIndexTest : public ::testing::TestWithParam<Case> {};

TEST_P(SingleIndexTest, MatchesTheTwoIndexOrder) {
  const Case& c = GetParam();
  const Subject s(c.network);
  const Outcome want = two_indexes(s, EngineOptions{nullptr, c.threads, ""});

  const std::string dir = ::testing::TempDir() + "/single_index_" + label(c);
  std::remove((dir + "/coverage.cache").c_str());
  const EngineOptions cached{nullptr, c.threads, dir};
  const Outcome cold = one_index(s, cached);
  expect_same(want, cold);
  EXPECT_FALSE(cold.cache.loaded);
  EXPECT_TRUE(cold.cache.saved) << cold.cache.save_error;

  const Outcome warm = one_index(s, cached);
  expect_same(want, warm);
  EXPECT_TRUE(warm.cache.loaded) << warm.cache.fallback_reason;
  EXPECT_EQ(warm.cache.match_hits, warm.cache.devices);
  EXPECT_EQ(warm.cache.cover_hits, warm.cache.devices);
  EXPECT_EQ(warm.cache.invalidated, 0u);
  std::remove((dir + "/coverage.cache").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Networks, SingleIndexTest,
    ::testing::Values(Case{NetworkKind::Tiny, 1}, Case{NetworkKind::Tiny, 4},
                      Case{NetworkKind::FatTree, 1}, Case{NetworkKind::FatTree, 4},
                      Case{NetworkKind::Regional, 1}, Case{NetworkKind::Regional, 4}),
    case_name);

TEST(SingleIndexBudgetTest, StepOneCapHandsTheTestsAPartialDataPlane) {
  const Subject s(NetworkKind::FatTree);
  const Outcome full = one_index(s, EngineOptions{});
  for (const unsigned threads : {1u, 4u}) {
    ResourceBudget budget;
    budget.with_max_bdd_nodes(300);  // far below the k=4 index
    bdd::BddManager mgr(packet::kNumHeaderBits);
    nettest::TestSuite suite = s.suite(mgr);
    const ResourceBudget* during_tests = &budget;
    suite.add(std::make_unique<Probe>([&](const dataplane::Transfer& transfer) {
      during_tests = transfer.index().manager().budget();
    }));
    std::optional<CoverageEngine> engine;
    ASSERT_NO_THROW(
        engine.emplace(mgr, *s.network, suite, EngineOptions{&budget, threads, ""}));
    EXPECT_EQ(during_tests, nullptr) << "the tests ran budgeted";
    EXPECT_EQ(mgr.budget(), &budget) << "the budget was not re-attached";
    EXPECT_TRUE(engine->match_sets().truncated());
    EXPECT_TRUE(engine->truncated());
    const MetricRow row = engine->metrics();
    EXPECT_TRUE(row.truncated);
    EXPECT_LE(row.device_fractional, full.overall.device_fractional);
    EXPECT_LE(row.interface_fractional, full.overall.interface_fractional);
    EXPECT_LE(row.rule_fractional, full.overall.rule_fractional);
    EXPECT_LE(row.rule_weighted, full.overall.rule_weighted);
    engine.reset();
    EXPECT_EQ(mgr.budget(), nullptr) << "the budget outlived the engine";
    EXPECT_EQ(budget.used_bdd_nodes(), 0u);
  }
}

TEST(SingleIndexBudgetTest, BudgetIsReattachedWhenTheOnlinePhaseThrows) {
  const testutil::TinyNetwork tiny = testutil::make_tiny();
  ResourceBudget outer;
  ResourceBudget budget;
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const bdd::ScopedBudget attach(mgr, &outer);
  nettest::TestSuite failing;
  failing.add(std::make_unique<Probe>(
      [](const dataplane::Transfer&) { throw std::runtime_error("test harness crashed"); }));
  const EngineOptions options{&budget, 1, ""};
  EXPECT_THROW((void)CoverageEngine(mgr, tiny.net, failing, options), std::runtime_error);
  // The engine that failed to construct put back the budget it found, and
  // its own holds no charge.
  EXPECT_EQ(mgr.budget(), &outer);
  EXPECT_EQ(budget.used_bdd_nodes(), 0u);
  EXPECT_EQ(outer.used_bdd_nodes(), mgr.arena_size());
}

}  // namespace
}  // namespace yardstick::ys
