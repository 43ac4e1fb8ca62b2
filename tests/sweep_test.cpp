// Parameterized sweeps over topology sizes: the generated forwarding
// state and the paper test suite must be correct at every scale, not just
// the fixture sizes other test files use.
#include <gtest/gtest.h>

#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "yardstick/engine.hpp"

namespace yardstick {
namespace {

class FatTreeSweep : public ::testing::TestWithParam<int> {
 protected:
  FatTreeSweep() : tree_(topo::make_fat_tree({.k = GetParam()})) {
    routing::FibBuilder::compute_and_build(tree_.network, tree_.routing);
    index_.emplace(mgr_, tree_.network);
    transfer_.emplace(*index_);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  topo::FatTree tree_;
  std::optional<dataplane::MatchSetIndex> index_;
  std::optional<dataplane::Transfer> transfer_;
};

TEST_P(FatTreeSweep, EveryRouterHasAForwardingDefault) {
  for (const net::Device& dev : tree_.network.devices()) {
    if (dev.role == net::Role::Wan) continue;
    bool found = false;
    for (const net::RuleId rid : tree_.network.table(dev.id)) {
      const net::Rule& rule = tree_.network.rule(rid);
      if (rule.dst_prefix()->length() == 0) {
        found = rule.action_type() == net::ActionType::Forward &&
                !tree_.network.out_interfaces(rid).empty();
      }
    }
    EXPECT_TRUE(found) << dev.name;
  }
}

TEST_P(FatTreeSweep, EcmpWidthMatchesTopology) {
  // A ToR's route to a different-pod prefix fans across all its k/2 aggs.
  const int half = GetParam() / 2;
  const net::DeviceId src = tree_.tors.front();
  const net::DeviceId dst = tree_.tors.back();
  const auto prefix = tree_.network.device(dst).host_prefixes.front();
  for (const net::RuleId rid : tree_.network.table(src)) {
    if (tree_.network.rule(rid).dst_prefix() == prefix) {
      EXPECT_EQ(tree_.network.out_interfaces(rid).size(), static_cast<size_t>(half));
    }
  }
}

TEST_P(FatTreeSweep, SuitePassesAtThisScale) {
  ys::CoverageTracker tracker;
  EXPECT_TRUE(nettest::DefaultRouteCheck().run(*transfer_, tracker).passed());
  EXPECT_TRUE(nettest::ToRContract().run(*transfer_, tracker).passed());
  EXPECT_TRUE(nettest::ToRPingmesh().run(*transfer_, tracker).passed());
  // Coverage accumulates sensibly at any scale.
  const ys::CoverageEngine engine(mgr_, tree_.network, tracker.trace());
  const auto report = engine.report();
  EXPECT_GT(report.overall.rule_fractional, 0.0);
  EXPECT_LE(report.overall.rule_fractional, 1.0);
  EXPECT_DOUBLE_EQ(report.overall.device_fractional, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Arity, FatTreeSweep, ::testing::Values(2, 4, 6, 8));

struct RegionalCase {
  int datacenters, pods, tors, aggs, spines, hubs, wans;
};

class RegionalSweep : public ::testing::TestWithParam<RegionalCase> {
 protected:
  RegionalSweep() {
    const RegionalCase& c = GetParam();
    topo::RegionalParams p;
    p.datacenters = c.datacenters;
    p.pods_per_dc = c.pods;
    p.tors_per_pod = c.tors;
    p.aggs_per_pod = c.aggs;
    p.spines_per_dc = c.spines;
    p.hubs = c.hubs;
    p.wans = c.wans;
    p.host_ports_per_tor = 2;
    p.hubs_without_default = 0;
    region_ = topo::make_regional(p);
    routing::FibBuilder::compute_and_build(region_.network, region_.routing);
    index_.emplace(mgr_, region_.network);
    transfer_.emplace(*index_);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  topo::RegionalNetwork region_;
  std::optional<dataplane::MatchSetIndex> index_;
  std::optional<dataplane::Transfer> transfer_;
};

TEST_P(RegionalSweep, InternalAndConnectedChecksPass) {
  ys::CoverageTracker tracker;
  const auto internal = nettest::InternalRouteCheck().run(*transfer_, tracker);
  EXPECT_TRUE(internal.passed()) << (internal.failure_messages.empty()
                                         ? ""
                                         : internal.failure_messages.front());
  EXPECT_TRUE(nettest::ConnectedRouteCheck().run(*transfer_, tracker).passed());
  EXPECT_TRUE(nettest::DefaultRouteCheck().run(*transfer_, tracker).passed());
}

TEST_P(RegionalSweep, AllTorPairsReach) {
  ys::CoverageTracker tracker;
  const auto result = nettest::ToRReachability().run(*transfer_, tracker);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
}

INSTANTIATE_TEST_SUITE_P(Shapes, RegionalSweep,
                         ::testing::Values(RegionalCase{1, 1, 1, 1, 1, 1, 1},
                                           RegionalCase{1, 2, 2, 2, 2, 2, 1},
                                           RegionalCase{2, 1, 2, 1, 2, 2, 2},
                                           RegionalCase{3, 2, 2, 2, 2, 3, 2}));

TEST(PathDeadlineTest, TightDeadlineTruncatesSweep) {
  // Regression: the sweep deadline used to be checked only every 1024
  // emitted paths, so a sweep stuck inside one huge DFS subtree could blow
  // far past its budget. The deadline is now gated per DFS node: an
  // already-expired deadline must stop the sweep almost immediately.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::CoverageTracker tracker;
  const ys::CoverageEngine engine(mgr, tree.network, tracker.trace());

  const ys::PathCoverageResult unbounded = engine.path_coverage();
  ASSERT_GT(unbounded.total_paths, 0u);
  EXPECT_FALSE(unbounded.truncated);

  const ys::PathCoverageResult tight = engine.path_coverage(1e-9);
  EXPECT_TRUE(tight.truncated);
  EXPECT_LT(tight.total_paths, unbounded.total_paths);
}

TEST(LinkFailureTest, TrafficRoutesAroundFailedLink) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  // Fail one ToR-agg link: the ToR still reaches everything via its other
  // agg, and neither BGP nor the static default uses the dead link.
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const net::DeviceId tor = tree.tors.front();
  const auto nbrs = tree.network.neighbors(tor);
  ASSERT_FALSE(nbrs.empty());
  const net::LinkId dead = tree.network.interface(nbrs[0].first).link;
  ASSERT_TRUE(dead.valid());
  tree.routing.failed_links.insert(dead);
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);

  // No rule on the ToR forwards out the failed interface.
  for (const net::RuleId rid : tree.network.table(tor)) {
    for (const net::InterfaceId out : tree.network.out_interfaces(rid)) {
      EXPECT_NE(out, nbrs[0].first);
    }
  }
  // And end-to-end reachability still holds.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  EXPECT_TRUE(nettest::ToRPingmesh().run(transfer, tracker).passed());
  // The dead link's /31 connected route is gone on both ends.
  const net::Link& link = tree.network.link(dead);
  for (const net::InterfaceId side : {link.a, link.b}) {
    for (const net::RuleId rid :
         tree.network.table(tree.network.interface(side).device)) {
      EXPECT_NE(tree.network.rule(rid).dst_prefix(), link.subnet);
    }
  }
}

}  // namespace
}  // namespace yardstick
