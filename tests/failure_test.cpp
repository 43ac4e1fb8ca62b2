// What-if failure analysis tests: the §2 motivating scenario driven
// through RoutingConfig::failed_devices, plus the LocalForwardCheck
// taxonomy cell.
#include <gtest/gtest.h>

#include "dataplane/simulator.hpp"
#include "nettest/local_forward.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "yardstick/engine.hpp"

namespace yardstick {
namespace {

using packet::ConcretePacket;
using packet::Ipv4Prefix;

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : tree_(topo::make_fat_tree({.k = 4})) {
    routing::FibBuilder::compute_and_build(tree_.network, tree_.routing);
  }

  [[nodiscard]] dataplane::ConcreteTrace trace_to(const net::Network& n, net::DeviceId src,
                                                  uint32_t dst_ip) {
    const dataplane::MatchSetIndex index(mgr_, n);
    const dataplane::Transfer transfer(index);
    const dataplane::ConcreteSimulator sim(transfer);
    ConcretePacket pkt;
    pkt.dst_ip = dst_ip;
    return sim.run(src, net::InterfaceId{}, pkt);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  topo::FatTree tree_;
};

TEST_F(FailureTest, FailedDeviceGetsEmptyFib) {
  tree_.routing.failed_devices.insert(tree_.cores.front());
  routing::FibBuilder::compute_and_build(tree_.network, tree_.routing);
  EXPECT_TRUE(tree_.network.table(tree_.cores.front()).empty());
  EXPECT_FALSE(tree_.network.table(tree_.cores.back()).empty());
}

TEST_F(FailureTest, TrafficRoutesAroundFailedCore) {
  // Fail one core: inter-pod traffic must still be delivered via the rest.
  tree_.routing.failed_devices.insert(tree_.cores.front());
  routing::FibBuilder::compute_and_build(tree_.network, tree_.routing);
  const net::DeviceId dst = tree_.tors.back();
  const auto trace = trace_to(
      tree_.network, tree_.tors.front(),
      tree_.network.device(dst).host_prefixes.front().first() + 1);
  ASSERT_EQ(trace.disposition, dataplane::Disposition::Delivered);
  EXPECT_EQ(tree_.network.interface(trace.egress).device, dst);
  for (const auto& hop : trace.hops) {
    EXPECT_NE(hop.device, tree_.cores.front());
  }
}

TEST_F(FailureTest, StaticDefaultsAvoidFailedNeighbors) {
  tree_.routing.failed_devices.insert(tree_.cores.front());
  routing::FibBuilder::compute_and_build(tree_.network, tree_.routing);
  // Aggs attached to the failed core must not list it as a default next hop.
  for (const net::DeviceId agg : tree_.aggs) {
    for (const net::RuleId rid : tree_.network.table(agg)) {
      if (tree_.network.rule(rid).dst_prefix()->length() != 0) continue;
      for (const net::InterfaceId out : tree_.network.out_interfaces(rid)) {
        EXPECT_NE(tree_.network.neighbor(out), tree_.cores.front());
      }
    }
  }
}

TEST_F(FailureTest, MotivatingOutageReplaysViaFailureConfig) {
  // Regional flavor of §2: no fleet static default, one WAN path null
  // routed at a hub; fail the healthy hub and WAN connectivity dies.
  topo::RegionalParams params;
  params.datacenters = 1;
  params.hubs = 2;
  params.wans = 1;
  params.hubs_without_default = 0;
  topo::RegionalNetwork region = topo::make_regional(params);
  region.routing.static_northbound_default = false;
  const net::DeviceId b1 = region.hubs[0];
  const net::DeviceId b2 = region.hubs[1];
  region.routing.null_default_devices.insert(b2);
  routing::FibBuilder::compute_and_build(region.network, region.routing);

  // Healthy: leaves reach the WAN (via B1 only, invisibly).
  const auto ok = trace_to(region.network, region.tors.front(), 0x08080808u);
  EXPECT_EQ(ok.disposition, dataplane::Disposition::Delivered);

  // B1 fails: the whole datacenter loses WAN connectivity despite B2.
  region.routing.failed_devices.insert(b1);
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  const auto broken = trace_to(region.network, region.tors.front(), 0x08080808u);
  EXPECT_NE(broken.disposition, dataplane::Disposition::Delivered);

  // And the pre-failure coverage signal exists: B2's default (the null
  // route) is never exercised by traffic that a reachability test to the
  // WAN would generate. (Replay the healthy state to check.)
  region.routing.failed_devices.clear();
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  bool b2_has_null_default = false;
  for (const net::RuleId rid : region.network.table(b2)) {
    const net::Rule& rule = region.network.rule(rid);
    if (rule.dst_prefix()->length() == 0) {
      b2_has_null_default = rule.action_type() == net::ActionType::Drop;
    }
  }
  EXPECT_TRUE(b2_has_null_default);
}

TEST_F(FailureTest, LocalForwardCheckPassesOnHealthyFatTree) {
  const dataplane::MatchSetIndex index(mgr_, tree_.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  const auto result = nettest::LocalForwardCheck().run(transfer, tracker);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
  EXPECT_GT(result.checks, 0u);
  EXPECT_EQ(to_string(result.category), std::string("local-concrete"));
  EXPECT_GT(tracker.packet_calls(), 0u);
}

TEST_F(FailureTest, LocalForwardCheckCatchesMisrouting) {
  // Point one agg's route for a remote ToR prefix at a wrong (northern)
  // next hop that is not on a shortest path... instead, null-route it,
  // which the check reports as a drop.
  const net::DeviceId agg = tree_.aggs.front();
  const Ipv4Prefix victim = tree_.network.device(tree_.tors.back()).host_prefixes[0];
  for (const net::RuleId rid : tree_.network.table(agg)) {
    if (tree_.network.rule(rid).dst_prefix() == victim) {
      tree_.network.set_action(rid, net::Action::drop());
    }
  }
  const dataplane::MatchSetIndex index(mgr_, tree_.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  EXPECT_FALSE(nettest::LocalForwardCheck().run(transfer, tracker).passed());
}

}  // namespace
}  // namespace yardstick
