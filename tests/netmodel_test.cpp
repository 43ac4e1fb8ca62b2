// Tests for the network model container, id/location helpers and rule
// content keys.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netmodel/network.hpp"
#include "routing/fib_builder.hpp"
#include "topo/acl.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"

namespace yardstick::net {
namespace {

TEST(StrongIdTest, DistinctTypesAndValidity) {
  const DeviceId d{3};
  EXPECT_TRUE(d.valid());
  EXPECT_FALSE(DeviceId{}.valid());
  EXPECT_EQ(d, DeviceId{3});
  EXPECT_NE(d, DeviceId{4});
  EXPECT_LT(DeviceId{1}, DeviceId{2});
  // Distinct tag types do not compare (compile-time property; hash works).
  EXPECT_EQ(std::hash<DeviceId>{}(d), std::hash<DeviceId>{}(DeviceId{3}));
}

TEST(LocationTest, InterfaceAndDeviceLocationsDisjoint) {
  const InterfaceId intf{12};
  const DeviceId dev{5};
  EXPECT_FALSE(is_device_location(to_location(intf)));
  EXPECT_TRUE(is_device_location(device_location(dev)));
  EXPECT_EQ(device_of_location(device_location(dev)), dev);
  EXPECT_EQ(from_location(to_location(intf)), intf);
  EXPECT_FALSE(is_device_location(packet::kNoLocation));
}

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = net_.add_device("a", Role::ToR, 65001);
    b_ = net_.add_device("b", Role::Aggregation, 65002);
    a0_ = net_.add_interface(a_, "eth0");
    b0_ = net_.add_interface(b_, "eth0");
    host_ = net_.add_interface(a_, "host0", PortKind::HostPort);
  }

  Network net_;
  DeviceId a_, b_;
  InterfaceId a0_, b0_, host_;
};

TEST_F(NetworkTest, BasicTopology) {
  EXPECT_EQ(net_.device_count(), 2u);
  EXPECT_EQ(net_.interface_count(), 3u);
  EXPECT_EQ(net_.device(a_).name, "a");
  EXPECT_EQ(net_.interface(host_).kind, PortKind::HostPort);
  EXPECT_TRUE(net_.interface(host_).host_facing());
  EXPECT_FALSE(net_.interface(a0_).host_facing());
}

TEST_F(NetworkTest, DuplicateDeviceNameRejected) {
  EXPECT_THROW(net_.add_device("a", Role::ToR), std::invalid_argument);
}

TEST_F(NetworkTest, LinkAssignsSlash31Addresses) {
  const auto subnet = packet::Ipv4Prefix::parse("172.16.0.0/31");
  net_.add_link(a0_, b0_, subnet);
  EXPECT_EQ(net_.interface(a0_).peer, b0_);
  EXPECT_EQ(net_.interface(b0_).peer, a0_);
  EXPECT_EQ(net_.interface(a0_).address->address(), subnet.first() & ~1u);
  ASSERT_TRUE(net_.interface(b0_).address.has_value());
  EXPECT_EQ(net_.neighbor(a0_), b_);
  EXPECT_EQ(net_.neighbor(host_), DeviceId{});
}

TEST_F(NetworkTest, LinkRejectsNonSlash31AndDoubleLink) {
  EXPECT_THROW(net_.add_link(a0_, b0_, packet::Ipv4Prefix::parse("172.16.0.0/30")),
               std::invalid_argument);
  net_.add_link(a0_, b0_);
  EXPECT_THROW(net_.add_link(a0_, b0_), std::invalid_argument);
}

TEST_F(NetworkTest, NeighborsAndLookup) {
  net_.add_link(a0_, b0_);
  const auto nbrs = net_.neighbors(a_);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].second, b_);
  EXPECT_EQ(net_.find_device("b"), b_);
  EXPECT_FALSE(net_.find_device("zzz").has_value());
  EXPECT_EQ(net_.interface_towards(a_, b_), a0_);
  EXPECT_FALSE(net_.interface_towards(b_, DeviceId{99}).has_value());
}

TEST_F(NetworkTest, RulesSortedByPriority) {
  const RuleId low = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 10);
  const RuleId high = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 1);
  const RuleId mid = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 5);
  const auto table = net_.table(a_);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0], high);
  EXPECT_EQ(table[1], mid);
  EXPECT_EQ(table[2], low);
}

TEST_F(NetworkTest, EqualPrioritiesKeepInsertionOrder) {
  const RuleId first = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 5);
  const RuleId second = net_.add_rule(a_, MatchSpec{}, Action::drop(), RouteKind::Other, 5);
  const auto table = net_.table(a_);
  EXPECT_EQ(table[0], first);
  EXPECT_EQ(table[1], second);
}

TEST_F(NetworkTest, ClearRules) {
  net_.add_rule(a_, MatchSpec{}, Action::drop());
  net_.clear_rules();
  EXPECT_EQ(net_.rule_count(), 0u);
  EXPECT_TRUE(net_.table(a_).empty());
}

TEST_F(NetworkTest, PortsOfKind) {
  EXPECT_EQ(net_.ports_of_kind(a_, PortKind::HostPort),
            (std::vector<InterfaceId>{host_}));
  EXPECT_TRUE(net_.ports_of_kind(b_, PortKind::HostPort).empty());
}

TEST_F(NetworkTest, RolesAndSummary) {
  EXPECT_EQ(net_.devices_with_role(Role::ToR), (std::vector<DeviceId>{a_}));
  EXPECT_NE(net_.summary().find("devices=2"), std::string::npos);
}

TEST(RuleTest, ToStringMentionsMatchAndAction) {
  Rule r;
  r.id = RuleId{7};
  r.match = MatchSpec::for_dst(packet::Ipv4Prefix::parse("10.0.0.0/8"));
  r.action = Action::forward({InterfaceId{3}});
  EXPECT_NE(r.to_string().find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(r.to_string().find("fwd"), std::string::npos);
  r.action = Action::drop();
  EXPECT_NE(r.to_string().find("drop"), std::string::npos);
}

/// The content key as it was rendered before RuleContent existed, straight
/// from the rule's own fields.
std::string rule_fields_key(const Network& network, const Rule& rule) {
  return network.device(rule.device).name + "|" + to_string(rule.table) + "|" +
         std::to_string(rule.priority) + "|" + rule.match.to_string() + "|" +
         to_string(rule.kind);
}

/// Every pair of `rules` has equal contents exactly when it has equal keys,
/// and each content renders as its rule's key did.
void expect_content_matches_key(const Network& network, const std::vector<RuleId>& rules) {
  std::vector<RuleContent> contents;
  std::vector<std::string> keys;
  for (const RuleId rid : rules) {
    contents.push_back(RuleContent::of(network.rule(rid)));
    keys.push_back(rule_fields_key(network, network.rule(rid)));
    ASSERT_EQ(rule_content_key(network, contents.back()), keys.back());
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = 0; j < rules.size(); ++j) {
      ASSERT_EQ(contents[i] == contents[j], keys[i] == keys[j]) << keys[i] << " vs " << keys[j];
    }
  }
}

TEST(RuleContentTest, EqualExactlyWhenKeysAreEqualOnHandBuiltRules) {
  Network n;
  // Names with the key's separators: the device is still one field.
  const DeviceId d1 = n.add_device("edge|fib|8", Role::ToR);
  const DeviceId d2 = n.add_device("edge#2", Role::ToR);
  const DeviceId d3 = n.add_device("edge", Role::ToR);
  const InterfaceId i0 = n.add_interface(d1, "eth0");
  const InterfaceId i1 = n.add_interface(d1, "eth1");
  const auto p = [](const char* s) { return packet::Ipv4Prefix::parse(s); };

  std::vector<MatchSpec> matches(1);  // any
  MatchSpec m;
  m.dst_prefix = p("10.0.0.0/8");
  matches.push_back(m);
  m.dst_prefix = p("0.0.0.0/0");  // present, at the absent field's default
  matches.push_back(m);
  m = {};
  m.src_prefix = p("10.0.0.0/8");
  matches.push_back(m);
  m.src_prefix = p("0.0.0.0/0");
  matches.push_back(m);
  m = {};
  m.proto = 6;
  matches.push_back(m);
  m.proto = 0;
  matches.push_back(m);
  m = {};
  m.src_port = PortRange{80, 80};
  matches.push_back(m);
  m.src_port = PortRange{};
  matches.push_back(m);
  m = {};
  m.dst_port = PortRange{80, 80};
  matches.push_back(m);
  m.dst_port = PortRange{80, 81};
  matches.push_back(m);
  m.dst_port = PortRange{};
  matches.push_back(m);
  m = {};
  m.dst_prefix = p("10.1.0.0/16");
  m.src_prefix = p("10.2.0.0/16");
  m.proto = 17;
  m.src_port = PortRange{1024, 65535};
  m.dst_port = PortRange{53, 53};
  matches.push_back(m);

  for (const DeviceId dev : {d1, d2, d3}) {
    for (const MatchSpec& match : matches) {
      (void)n.add_rule(dev, match, Action::drop(), RouteKind::Security, 4, TableKind::Acl);
      (void)n.add_rule(dev, match, Action::drop(), RouteKind::DropRule, 4);
      (void)n.add_rule(dev, match, Action::drop(), RouteKind::DropRule, 5);
    }
  }
  // Twins that differ only in in_interfaces are conflated, as their keys are.
  MatchSpec on_eth0 = MatchSpec::for_dst(p("10.9.0.0/16"));
  on_eth0.in_interfaces = {i0};
  MatchSpec on_eth1 = on_eth0;
  on_eth1.in_interfaces = {i1};
  const RuleId a = n.add_rule(d1, on_eth0, Action::forward({i1}), RouteKind::Internal, 16);
  const RuleId b = n.add_rule(d1, on_eth1, Action::forward({i0}), RouteKind::Internal, 16);
  EXPECT_EQ(RuleContent::of(n.rule(a)), RuleContent::of(n.rule(b)));

  std::vector<RuleId> all;
  for (const Rule& rule : n.rules()) all.push_back(rule.id);
  expect_content_matches_key(n, all);
}

TEST(RuleContentTest, EqualExactlyWhenKeysAreEqualOnTheRegionalNetwork) {
  // The CLI's `regional --acl --transforms 2`: ACL, FIB, tunnel and NAT rules.
  topo::RegionalNetwork region = topo::make_regional({});
  const topo::TransformState transforms =
      topo::plan_transforms(region, {.tunnels = 2, .nat_rules_per_wan = 2});
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  topo::install_ingress_acls(region.network, region.tors);
  topo::install_transform_rules(region.network, transforms, region.routing);
  for (const Device& dev : region.network.devices()) {
    std::vector<RuleId> rules;
    for (const TableKind table : {TableKind::Acl, TableKind::Fib}) {
      for (const RuleId rid : region.network.table(dev.id, table)) rules.push_back(rid);
    }
    expect_content_matches_key(region.network, rules);
  }
}

}  // namespace
}  // namespace yardstick::net
