// Tests for the test-tool substrate: all seven paper tests plus the
// generic reachability/probe utilities, on generated networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "prefix_reference.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"

namespace yardstick::nettest {
namespace {

using packet::Ipv4Prefix;
using packet::PacketSet;

class FatTreeFixture : public ::testing::Test {
 protected:
  FatTreeFixture() : tree_(topo::make_fat_tree({.k = 4})) {
    routing::FibBuilder::compute_and_build(tree_.network, tree_.routing);
    index_.emplace(mgr_, tree_.network);
    transfer_.emplace(*index_);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  topo::FatTree tree_;
  std::optional<dataplane::MatchSetIndex> index_;
  std::optional<dataplane::Transfer> transfer_;
  ys::CoverageTracker tracker_;
};

TEST_F(FatTreeFixture, DefaultRouteCheckPasses) {
  const TestResult result = DefaultRouteCheck().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
  EXPECT_EQ(result.checks, tree_.network.device_count() - 1);  // WAN excluded
  EXPECT_EQ(tracker_.rule_calls(), result.checks);
  EXPECT_EQ(tracker_.packet_calls(), 0u);
}

TEST_F(FatTreeFixture, DefaultRouteCheckCatchesNullRoute) {
  // Null-route one agg's default and rebuild: the check must fail on it.
  topo::FatTree broken = topo::make_fat_tree({.k = 4});
  broken.routing.null_default_devices.insert(broken.aggs.front());
  routing::FibBuilder::compute_and_build(broken.network, broken.routing);
  const dataplane::MatchSetIndex index(mgr_, broken.network);
  const dataplane::Transfer transfer(index);
  const TestResult result = DefaultRouteCheck().run(transfer, tracker_);
  EXPECT_FALSE(result.passed());
  EXPECT_EQ(result.failures, 1u);
  EXPECT_NE(result.failure_messages.front().find("null"), std::string::npos);
}

TEST_F(FatTreeFixture, ConnectedRouteCheckPasses) {
  const TestResult result = ConnectedRouteCheck().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed());
  // Two checks (both ends) per addressed link.
  EXPECT_EQ(result.checks, 2 * tree_.network.link_count());
  EXPECT_GT(tracker_.rule_calls(), 0u);
}

TEST_F(FatTreeFixture, ToRContractPasses) {
  const TestResult result = ToRContract().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
  EXPECT_GT(result.checks, 0u);
  EXPECT_GT(tracker_.packet_calls(), 0u);
  EXPECT_EQ(tracker_.rule_calls(), 0u);
}

TEST_F(FatTreeFixture, ToRReachabilityPasses) {
  const TestResult result = ToRReachability().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
  const size_t tors = tree_.tors.size();
  EXPECT_EQ(result.checks, tors * (tors - 1));
}

TEST_F(FatTreeFixture, ToRPingmeshPasses) {
  const TestResult result = ToRPingmesh().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
  const size_t tors = tree_.tors.size();
  EXPECT_EQ(result.checks, tors * (tors - 1));
  EXPECT_GT(tracker_.packet_calls(), result.checks);  // one per hop
}

TEST_F(FatTreeFixture, ToRReachabilityCatchesBrokenForwarding) {
  // Null-route the victim ToR's own hosted prefix (a point all paths
  // traverse — breaking a single ECMP branch is legitimately masked by
  // multipath): symbolic reachability must notice.
  topo::FatTree broken = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(broken.network, broken.routing);
  const net::DeviceId victim = broken.tors.front();
  const Ipv4Prefix prefix = broken.network.device(victim).host_prefixes[0];
  for (const net::RuleId rid : broken.network.table(victim)) {
    if (broken.network.rule(rid).dst_prefix() == prefix) {
      broken.network.set_action(rid, net::Action::drop());
    }
  }
  const dataplane::MatchSetIndex index(mgr_, broken.network);
  const dataplane::Transfer transfer(index);
  const TestResult result = ToRReachability().run(transfer, tracker_);
  EXPECT_FALSE(result.passed());
}

TEST_F(FatTreeFixture, ProbeMarksEveryHop) {
  packet::ConcretePacket pkt;
  pkt.dst_ip =
      tree_.network.device(tree_.tors.back()).host_prefixes.front().first() + 1;
  const auto src_ports =
      tree_.network.ports_of_kind(tree_.tors.front(), net::PortKind::HostPort);
  dataplane::ConcreteTrace trace;
  probe(*transfer_, tracker_, tree_.tors.front(), src_ports[0], pkt, trace);
  EXPECT_EQ(trace.disposition, dataplane::Disposition::Delivered);
  EXPECT_EQ(tracker_.packet_calls(), trace.hops.size());
}

class RegionalFixture : public ::testing::Test {
 protected:
  RegionalFixture() : region_(topo::make_regional(small_params())) {
    routing::FibBuilder::compute_and_build(region_.network, region_.routing);
    index_.emplace(mgr_, region_.network);
    transfer_.emplace(*index_);
  }

  static topo::RegionalParams small_params() {
    topo::RegionalParams p;
    p.datacenters = 2;
    p.pods_per_dc = 1;
    p.tors_per_pod = 2;
    p.aggs_per_pod = 2;
    p.spines_per_dc = 2;
    p.hubs = 2;
    p.wans = 1;
    p.host_ports_per_tor = 2;
    p.hubs_without_default = 1;
    return p;
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  topo::RegionalNetwork region_;
  std::optional<dataplane::MatchSetIndex> index_;
  std::optional<dataplane::Transfer> transfer_;
  ys::CoverageTracker tracker_;
};

TEST_F(RegionalFixture, DefaultRouteCheckRespectsExclusions) {
  // Without exclusions the no-default hub fails the check.
  const TestResult strict = DefaultRouteCheck().run(*transfer_, tracker_);
  EXPECT_FALSE(strict.passed());
  // With the §7.2 exclusion list it passes.
  std::unordered_set<net::DeviceId> excluded(region_.routing.no_default_devices.begin(),
                                             region_.routing.no_default_devices.end());
  const TestResult tolerant = DefaultRouteCheck(excluded).run(*transfer_, tracker_);
  EXPECT_TRUE(tolerant.passed()) << (tolerant.failure_messages.empty()
                                         ? ""
                                         : tolerant.failure_messages.front());
}

TEST_F(RegionalFixture, InternalRouteCheckPasses) {
  const TestResult result = InternalRouteCheck().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
  EXPECT_GT(result.checks, region_.network.device_count());
}

TEST_F(RegionalFixture, InternalRouteCheckCatchesMissingRoute) {
  // Null-route a ToR loopback at one spine: the spine's local contract for
  // that prefix is violated.
  const net::DeviceId spine = region_.spines.front();
  const Ipv4Prefix lo = region_.network.device(region_.tors.front()).loopbacks.front();
  for (const net::RuleId rid : region_.network.table(spine)) {
    if (region_.network.rule(rid).dst_prefix() == lo) {
      region_.network.set_action(rid, net::Action::drop());
    }
  }
  const dataplane::MatchSetIndex index(mgr_, region_.network);
  const dataplane::Transfer transfer(index);
  const TestResult result = InternalRouteCheck().run(transfer, tracker_);
  EXPECT_FALSE(result.passed());
}

TEST_F(RegionalFixture, AggCanReachTorLoopbackPasses) {
  const TestResult result = AggCanReachTorLoopback().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
  // One check per (agg, ToR loopback) pair.
  EXPECT_EQ(result.checks, region_.aggs.size() * region_.tors.size());
}

TEST_F(RegionalFixture, ConnectedRouteCheckPasses) {
  const TestResult result = ConnectedRouteCheck().run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed());
}

TEST_F(RegionalFixture, GenericReachabilityTest) {
  // Leaf-to-WAN: packets to wide-area space from a ToR must all be
  // delivered (out the WAN's external port).
  const net::DeviceId wan = region_.wans.front();
  const auto external = region_.network.ports_of_kind(wan, net::PortKind::ExternalPort);
  ASSERT_EQ(external.size(), 1u);
  const PacketSet wide = PacketSet::dst_prefix(mgr_, Ipv4Prefix::parse("100.64.0.0/16"));

  std::vector<ReachabilityQuery> queries;
  ReachabilityQuery q;
  q.source = region_.tors.front();
  q.source_interface =
      region_.network.ports_of_kind(q.source, net::PortKind::HostPort).front();
  q.headers = wide;
  q.expected_egress = external.front();
  q.expected_delivered = wide;
  queries.push_back(q);

  const TestResult result =
      ReachabilityTest("LeafToWan", std::move(queries)).run(*transfer_, tracker_);
  EXPECT_TRUE(result.passed()) << (result.failure_messages.empty()
                                       ? ""
                                       : result.failure_messages.front());
}

TEST_F(RegionalFixture, SuiteRunsAllAndAccumulatesCoverage) {
  TestSuite suite("original");
  suite.add(std::make_unique<DefaultRouteCheck>(std::unordered_set<net::DeviceId>(
           region_.routing.no_default_devices.begin(),
           region_.routing.no_default_devices.end())))
      .add(std::make_unique<AggCanReachTorLoopback>());
  const auto results = suite.run_all(*transfer_, tracker_);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].passed());
  EXPECT_TRUE(results[1].passed());
  EXPECT_GT(tracker_.rule_calls(), 0u);
  EXPECT_GT(tracker_.packet_calls(), 0u);
  EXPECT_EQ(to_string(results[0].category), std::string("state-inspection"));
  EXPECT_EQ(to_string(results[1].category), std::string("local-symbolic"));
}

/// One FIB rule broken (its match or action edited) before the index is
/// built, and the verdict the contract loop gave for it when it still
/// scanned FIBs.
struct BrokenRule {
  const char* what;
  std::function<void(net::MatchSpec&, net::Action&)> mutate;
  size_t checks;
  size_t failures;
  std::string first_message;  // empty when the test passes
  size_t packet_calls;
};

/// Replaces rule `rid`'s match and action with `edit`'s edit of them. The
/// rules are re-added in id order, so each keeps its id and table position.
void edit_rule(net::Network& network, net::RuleId rid,
               const std::function<void(net::MatchSpec&, net::Action&)>& edit) {
  struct Row {
    net::Rule rule;
    net::MatchSpec match;
    net::Action action;
  };
  std::vector<Row> rows;
  for (const net::Rule& r : network.rules()) {
    rows.push_back({r, network.match_spec(r.id), network.action(r.id)});
  }
  edit(rows[rid.value].match, rows[rid.value].action);
  network.clear_rules();
  for (Row& row : rows) {
    (void)network.add_rule(row.rule.device, std::move(row.match), std::move(row.action),
                           row.rule.kind, row.rule.priority, row.rule.table);
  }
}

/// Break `victim`'s rule for `prefix` in `network`, then run `test` on a
/// fresh index and compare its verdict with `expected`.
void expect_verdict(net::Network network, net::DeviceId victim, const Ipv4Prefix& prefix,
                    const NetworkTest& test, const BrokenRule& expected) {
  SCOPED_TRACE(expected.what);
  const net::RuleId rid = dataplane::reference::rule_for_prefix(network, victim, prefix);
  ASSERT_TRUE(rid.valid());
  edit_rule(network, rid, expected.mutate);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  const TestResult result = test.run(transfer, tracker);
  EXPECT_EQ(result.checks, expected.checks);
  EXPECT_EQ(result.failures, expected.failures);
  EXPECT_EQ(result.failure_messages.empty() ? "" : result.failure_messages.front(),
            expected.first_message);
  EXPECT_EQ(tracker.packet_calls(), expected.packet_calls);
}

void drop_last(net::MatchSpec&, net::Action& action) { action.out_interfaces.pop_back(); }
void repeat_first(net::MatchSpec&, net::Action& action) {
  auto& outs = action.out_interfaces;
  outs.insert(outs.begin(), outs.front());
}
void repeat_in_place(net::MatchSpec&, net::Action& action) {
  action.out_interfaces.back() = action.out_interfaces.front();
}
void reverse_order(net::MatchSpec&, net::Action& action) {
  std::reverse(action.out_interfaces.begin(), action.out_interfaces.end());
}
void delete_route(net::MatchSpec& match, net::Action&) { match.dst_prefix.reset(); }

/// An interface of a device other than `victim` that faces `peer`.
net::InterfaceId foreign_interface_towards(const net::Network& n, net::DeviceId victim,
                                           net::DeviceId peer) {
  for (const net::Interface& intf : n.interfaces()) {
    if (intf.device != victim && n.neighbor(intf.id) == peer) return intf.id;
  }
  return net::InterfaceId{};
}

TEST(ContractVerdictTest, ToRContractOnBrokenFibs) {
  // The first aggregation switch (pod 0) forwards the last ToR's hosted
  // prefix over its two core uplinks; it also faces pod 0's ToRs, which
  // are farther from that prefix.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const net::Network& n = tree.network;
  const net::DeviceId agg = tree.aggs.front();
  const Ipv4Prefix prefix = n.device(tree.tors.back()).host_prefixes.front();
  ASSERT_EQ(n.out_interfaces(dataplane::reference::rule_for_prefix(n, agg, prefix)).size(), 2u);
  const net::InterfaceId farther = *n.interface_towards(agg, tree.tors.front());
  const net::InterfaceId foreign = n.device(tree.tors.back()).interfaces.front();
  // Another aggregation switch's uplink to one of this switch's cores: it
  // faces a neighbor one hop closer, but not from this device.
  const net::InterfaceId foreign_uplink = foreign_interface_towards(
      n, agg,
      n.neighbor(n.out_interfaces(dataplane::reference::rule_for_prefix(n, agg, prefix))
                     .front()));
  ASSERT_TRUE(foreign_uplink.valid());
  const std::string agg_name = n.device(agg).name;
  const std::string off_paths =
      agg_name + ": prefix " + prefix.to_string() + " not forwarded along all shortest paths";

  const BrokenRule cases[] = {
      {"drop one ECMP next hop", drop_last, 160, 1, off_paths, 160},
      {"repeat one next hop", repeat_first, 160, 1, off_paths, 160},
      {"repeat one in place of another", repeat_in_place, 160, 1, off_paths, 160},
      {"add a next hop toward a farther neighbor",
       [&](net::MatchSpec&, net::Action& a) { a.out_interfaces.push_back(farther); }, 160, 1,
       off_paths, 160},
      {"add another device's interface",
       [&](net::MatchSpec&, net::Action& a) { a.out_interfaces.push_back(foreign); }, 160, 1,
       off_paths, 160},
      {"another device's uplink in place of one",
       [&](net::MatchSpec&, net::Action& a) { a.out_interfaces.back() = foreign_uplink; }, 160,
       1, off_paths, 160},
      {"reverse the next-hop order", reverse_order, 160, 0, "", 160},
      {"delete the rule", delete_route, 160, 1,
       agg_name + ": no route for internal prefix " + prefix.to_string(), 159},
  };
  for (const BrokenRule& c : cases) expect_verdict(n, agg, prefix, ToRContract(), c);
}

TEST(ContractVerdictTest, InternalRouteCheckOnBrokenFibs) {
  // The regional net's first spine forwards the first ToR's loopback over
  // the two aggregation switches of that ToR's pod; it also faces the
  // hubs, which are farther from it.
  topo::RegionalParams params;
  params.datacenters = 2;
  params.pods_per_dc = 1;
  params.tors_per_pod = 2;
  params.aggs_per_pod = 2;
  params.spines_per_dc = 2;
  params.hubs = 2;
  params.wans = 1;
  params.host_ports_per_tor = 2;
  topo::RegionalNetwork region = topo::make_regional(params);
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  const net::Network& n = region.network;
  const net::DeviceId spine = region.spines.front();
  const Ipv4Prefix prefix = n.device(region.tors.front()).loopbacks.front();
  ASSERT_EQ(n.out_interfaces(dataplane::reference::rule_for_prefix(n, spine, prefix)).size(),
            2u);
  const net::InterfaceId farther = *n.interface_towards(spine, region.hubs.front());
  const net::InterfaceId foreign = n.device(region.tors.back()).interfaces.front();
  // The other spine's downlink to one of this spine's next hops.
  const net::InterfaceId foreign_downlink = foreign_interface_towards(
      n, spine,
      n.neighbor(n.out_interfaces(dataplane::reference::rule_for_prefix(n, spine, prefix))
                     .front()));
  ASSERT_TRUE(foreign_downlink.valid());
  const std::string spine_name = n.device(spine).name;
  const std::string off_paths = spine_name + ": prefix " + prefix.to_string() +
                                " not forwarded along all shortest paths";

  const BrokenRule cases[] = {
      {"drop one ECMP next hop", drop_last, 322, 1, off_paths, 322},
      {"repeat one next hop", repeat_first, 322, 1, off_paths, 322},
      {"repeat one in place of another", repeat_in_place, 322, 1, off_paths, 322},
      {"add a next hop toward a farther neighbor",
       [&](net::MatchSpec&, net::Action& a) { a.out_interfaces.push_back(farther); }, 322, 1,
       off_paths, 322},
      {"add another device's interface",
       [&](net::MatchSpec&, net::Action& a) { a.out_interfaces.push_back(foreign); }, 322, 1,
       off_paths, 322},
      {"another device's downlink in place of one",
       [&](net::MatchSpec&, net::Action& a) { a.out_interfaces.back() = foreign_downlink; }, 322,
       1,
       off_paths, 322},
      {"reverse the next-hop order", reverse_order, 322, 0, "", 322},
      {"delete the rule", delete_route, 322, 1,
       spine_name + ": no route for internal prefix " + prefix.to_string(), 321},
  };
  for (const BrokenRule& c : cases) expect_verdict(n, spine, prefix, InternalRouteCheck(), c);
}

}  // namespace
}  // namespace yardstick::nettest
