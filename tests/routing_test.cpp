// Tests for the BGP path-vector simulator and FIB builder on small
// hand-built Clos topologies, and a differential check of the fixpoint
// against the reference loop in bgp_reference.hpp on generated networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bgp_reference.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/subnets.hpp"
#include "topo/transforms.hpp"

namespace yardstick::routing {
namespace {

using net::DeviceId;
using net::InterfaceId;
using net::PortKind;
using net::Role;
using net::RouteKind;
using packet::Ipv4Prefix;

/// Two-tier Clos: two ToRs under two aggs (full mesh), plus one WAN router
/// above both aggs.
struct SmallClos {
  net::Network net;
  RoutingConfig config;
  DeviceId tor1, tor2, agg1, agg2, wan;
};

SmallClos make_small_clos() {
  SmallClos s;
  net::Network& n = s.net;
  topo::SubnetAllocator subnets;

  s.tor1 = n.add_device("tor1", Role::ToR, role_asn(Role::ToR));
  s.tor2 = n.add_device("tor2", Role::ToR, role_asn(Role::ToR));
  s.agg1 = n.add_device("agg1", Role::Aggregation, role_asn(Role::Aggregation));
  s.agg2 = n.add_device("agg2", Role::Aggregation, role_asn(Role::Aggregation));
  s.wan = n.add_device("wan", Role::Wan, role_asn(Role::Wan));

  const auto connect = [&](DeviceId a, DeviceId b) {
    const InterfaceId ia =
        n.add_interface(a, "eth" + std::to_string(n.device(a).interfaces.size()));
    const InterfaceId ib =
        n.add_interface(b, "eth" + std::to_string(n.device(b).interfaces.size()));
    n.add_link(ia, ib, subnets.next_link_subnet());
  };
  for (const DeviceId tor : {s.tor1, s.tor2}) {
    for (const DeviceId agg : {s.agg1, s.agg2}) connect(tor, agg);
  }
  for (const DeviceId agg : {s.agg1, s.agg2}) connect(agg, s.wan);

  for (const DeviceId tor : {s.tor1, s.tor2}) {
    n.device(tor).host_prefixes.push_back(subnets.next_host_prefix());
    n.add_interface(tor, "host0", PortKind::HostPort);
    n.device(tor).loopbacks.push_back(subnets.next_loopback());
    n.add_interface(tor, "local0", PortKind::LocalPort);
  }
  for (const DeviceId agg : {s.agg1, s.agg2}) {
    n.device(agg).loopbacks.push_back(subnets.next_loopback());
    n.add_interface(agg, "local0", PortKind::LocalPort);
  }
  n.add_interface(s.wan, "internet0", PortKind::ExternalPort);
  s.config.wide_area_prefixes[s.wan] = {Ipv4Prefix::parse("100.64.0.0/16")};
  return s;
}

const SimRibEntry* find_entry(const SimRib& rib, const Ipv4Prefix& p) {
  const uint64_t key = prefix_key(p);
  const auto it = std::find_if(rib.begin(), rib.end(),
                               [&](const SimRibEntry& e) { return e.prefix_key == key; });
  return it == rib.end() ? nullptr : &*it;
}

const net::Rule* find_fib_rule(const net::Network& n, DeviceId dev, const Ipv4Prefix& p) {
  for (const net::RuleId rid : n.table(dev)) {
    const net::Rule& r = n.rule(rid);
    if (r.dst_prefix() == p) return &r;
  }
  return nullptr;
}

class BgpSimTest : public ::testing::Test {
 protected:
  BgpSimTest() : clos_(make_small_clos()) {}
  SmallClos clos_;
};

TEST_F(BgpSimTest, ConvergesToFixpoint) {
  BgpSimulator sim(clos_.net, clos_.config);
  const auto ribs = sim.run();
  EXPECT_LT(sim.rounds_used(), clos_.config.max_rounds);
  EXPECT_EQ(ribs.size(), clos_.net.device_count());
}

TEST_F(BgpSimTest, HostPrefixPropagatesWithShortestPathsAndEcmp) {
  BgpSimulator sim(clos_.net, clos_.config);
  const auto ribs = sim.run();
  const Ipv4Prefix p2 = clos_.net.device(clos_.tor2).host_prefixes.front();

  // tor1 reaches tor2's prefix via both aggs (ECMP, path length 2).
  const SimRibEntry* at_tor1 = find_entry(ribs[clos_.tor1.value], p2);
  ASSERT_NE(at_tor1, nullptr);
  EXPECT_EQ(at_tor1->path_length, 2);
  EXPECT_EQ(at_tor1->next_hops.size(), 2u);

  // aggs reach it directly (length 1, single next hop).
  const SimRibEntry* at_agg1 = find_entry(ribs[clos_.agg1.value], p2);
  ASSERT_NE(at_agg1, nullptr);
  EXPECT_EQ(at_agg1->path_length, 1);
  ASSERT_EQ(at_agg1->next_hops.size(), 1u);
  EXPECT_EQ(clos_.net.neighbor(at_agg1->next_hops[0]), clos_.tor2);

  // WAN learns it two hops away via both aggs.
  const SimRibEntry* at_wan = find_entry(ribs[clos_.wan.value], p2);
  ASSERT_NE(at_wan, nullptr);
  EXPECT_EQ(at_wan->path_length, 2);
  EXPECT_EQ(at_wan->next_hops.size(), 2u);
}

TEST_F(BgpSimTest, DefaultRouteOriginatesAtWan) {
  BgpSimulator sim(clos_.net, clos_.config);
  const auto ribs = sim.run();
  const SimRibEntry* at_agg = find_entry(ribs[clos_.agg1.value], Ipv4Prefix(0, 0));
  ASSERT_NE(at_agg, nullptr);
  EXPECT_EQ(at_agg->kind, RouteKind::Default);
  EXPECT_EQ(at_agg->path_length, 1);
  const SimRibEntry* at_tor = find_entry(ribs[clos_.tor1.value], Ipv4Prefix(0, 0));
  ASSERT_NE(at_tor, nullptr);
  EXPECT_EQ(at_tor->path_length, 2);
  EXPECT_EQ(at_tor->next_hops.size(), 2u);
}

TEST_F(BgpSimTest, WideAreaRoutesStopAtSpineTier) {
  // In this small Clos the aggs are below the spine tier, so wide-area
  // prefixes must not reach them (nor the ToRs).
  BgpSimulator sim(clos_.net, clos_.config);
  const auto ribs = sim.run();
  const Ipv4Prefix wide = Ipv4Prefix::parse("100.64.0.0/16");
  EXPECT_EQ(find_entry(ribs[clos_.agg1.value], wide), nullptr);
  EXPECT_EQ(find_entry(ribs[clos_.tor1.value], wide), nullptr);
  // The WAN itself originates it.
  const SimRibEntry* at_wan = find_entry(ribs[clos_.wan.value], wide);
  ASSERT_NE(at_wan, nullptr);
  EXPECT_TRUE(at_wan->originated);
}

TEST_F(BgpSimTest, WideAreaRoutesReachSpinesWhenPresent) {
  // Insert a spine layer between aggs and WAN; spines must carry the
  // wide-area prefix, aggs must not.
  SmallClos s;
  net::Network& n = s.net;
  topo::SubnetAllocator subnets;
  const DeviceId agg = n.add_device("agg", Role::Aggregation, role_asn(Role::Aggregation));
  const DeviceId spine = n.add_device("spine", Role::Spine, role_asn(Role::Spine));
  const DeviceId wan = n.add_device("wan", Role::Wan, role_asn(Role::Wan));
  const auto connect = [&](DeviceId a, DeviceId b) {
    const auto ia = n.add_interface(a, "x" + std::to_string(n.device(a).interfaces.size()));
    const auto ib = n.add_interface(b, "x" + std::to_string(n.device(b).interfaces.size()));
    n.add_link(ia, ib, subnets.next_link_subnet());
  };
  connect(agg, spine);
  connect(spine, wan);
  RoutingConfig config;
  const Ipv4Prefix wide = Ipv4Prefix::parse("100.64.0.0/16");
  config.wide_area_prefixes[wan] = {wide};

  BgpSimulator sim(n, config);
  const auto ribs = sim.run();
  EXPECT_NE(find_entry(ribs[spine.value], wide), nullptr);
  EXPECT_EQ(find_entry(ribs[agg.value], wide), nullptr);
}

TEST_F(BgpSimTest, NullDefaultDeviceSuppressesReadvertisement) {
  // agg1 null-routes its static default: tor1/tor2 must then learn the
  // default only via agg2 (single next hop instead of two).
  clos_.config.null_default_devices.insert(clos_.agg1);
  BgpSimulator sim(clos_.net, clos_.config);
  const auto ribs = sim.run();
  const SimRibEntry* at_tor = find_entry(ribs[clos_.tor1.value], Ipv4Prefix(0, 0));
  ASSERT_NE(at_tor, nullptr);
  ASSERT_EQ(at_tor->next_hops.size(), 1u);
  EXPECT_EQ(clos_.net.neighbor(at_tor->next_hops[0]), clos_.agg2);
}

TEST_F(BgpSimTest, NoDefaultDeviceRejectsDefault) {
  clos_.config.no_default_devices.insert(clos_.agg1);
  BgpSimulator sim(clos_.net, clos_.config);
  const auto ribs = sim.run();
  EXPECT_EQ(find_entry(ribs[clos_.agg1.value], Ipv4Prefix(0, 0)), nullptr);
  // Other prefixes are unaffected.
  EXPECT_NE(find_entry(ribs[clos_.agg1.value],
                       clos_.net.device(clos_.tor1).host_prefixes.front()),
            nullptr);
}

class FibBuilderTest : public ::testing::Test {
 protected:
  FibBuilderTest() : clos_(make_small_clos()) {
    FibBuilder::compute_and_build(clos_.net, clos_.config);
  }
  SmallClos clos_;
};

TEST_F(FibBuilderTest, EveryDeviceGetsRules) {
  for (const net::Device& dev : clos_.net.devices()) {
    EXPECT_FALSE(clos_.net.table(dev.id).empty()) << dev.name;
  }
}

TEST_F(FibBuilderTest, TablesAreLongestPrefixFirst) {
  for (const net::Device& dev : clos_.net.devices()) {
    uint8_t last_len = 32;
    for (const net::RuleId rid : clos_.net.table(dev.id)) {
      const uint8_t len = clos_.net.rule(rid).dst_prefix()->length();
      EXPECT_LE(len, last_len);
      last_len = len;
    }
  }
}

TEST_F(FibBuilderTest, ConnectedRoutesOnBothLinkEnds) {
  for (const net::Link& link : clos_.net.links()) {
    ASSERT_TRUE(link.subnet.has_value());
    for (const InterfaceId side : {link.a, link.b}) {
      const net::Rule* rule =
          find_fib_rule(clos_.net, clos_.net.interface(side).device, *link.subnet);
      ASSERT_NE(rule, nullptr);
      EXPECT_EQ(rule->kind, RouteKind::Connected);
      EXPECT_EQ(clos_.net.action(rule->id).out_interfaces, (std::vector<InterfaceId>{side}));
    }
  }
}

TEST_F(FibBuilderTest, StaticDefaultPointsNorth) {
  const net::Rule* rule = find_fib_rule(clos_.net, clos_.tor1, Ipv4Prefix(0, 0));
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->kind, RouteKind::Default);
  ASSERT_EQ(clos_.net.out_interfaces(rule->id).size(), 2u);  // both aggs
  for (const InterfaceId i : clos_.net.out_interfaces(rule->id)) {
    EXPECT_EQ(clos_.net.device(clos_.net.neighbor(i)).role, Role::Aggregation);
  }
}

TEST_F(FibBuilderTest, NullDefaultInstallsDropRule) {
  SmallClos s = make_small_clos();
  s.config.null_default_devices.insert(s.agg1);
  FibBuilder::compute_and_build(s.net, s.config);
  const net::Rule* rule = find_fib_rule(s.net, s.agg1, Ipv4Prefix(0, 0));
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->action_type(), net::ActionType::Drop);
  EXPECT_EQ(rule->kind, RouteKind::Default);
}

TEST_F(FibBuilderTest, OwnLoopbackTerminatesOnLocalPort) {
  const Ipv4Prefix lo = clos_.net.device(clos_.tor1).loopbacks.front();
  const net::Rule* rule = find_fib_rule(clos_.net, clos_.tor1, lo);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->kind, RouteKind::Internal);
  ASSERT_EQ(clos_.net.out_interfaces(rule->id).size(), 1u);
  EXPECT_EQ(clos_.net.interface(clos_.net.out_interfaces(rule->id)[0]).kind,
            PortKind::LocalPort);
}

TEST_F(FibBuilderTest, RemoteLoopbackLearnedViaBgp) {
  const Ipv4Prefix lo = clos_.net.device(clos_.agg2).loopbacks.front();
  const net::Rule* rule = find_fib_rule(clos_.net, clos_.tor1, lo);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->kind, RouteKind::Internal);
  ASSERT_EQ(clos_.net.out_interfaces(rule->id).size(), 1u);
  EXPECT_EQ(clos_.net.neighbor(clos_.net.out_interfaces(rule->id)[0]), clos_.agg2);
}

TEST_F(FibBuilderTest, HostPrefixTerminatesOnHostPort) {
  const Ipv4Prefix p = clos_.net.device(clos_.tor1).host_prefixes.front();
  const net::Rule* rule = find_fib_rule(clos_.net, clos_.tor1, p);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(clos_.net.interface(clos_.net.out_interfaces(rule->id)[0]).kind,
            PortKind::HostPort);
}

TEST_F(FibBuilderTest, WanSendsOriginatedTrafficToExternalPort) {
  const net::Rule* def = find_fib_rule(clos_.net, clos_.wan, Ipv4Prefix(0, 0));
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(clos_.net.interface(clos_.net.out_interfaces(def->id)[0]).kind,
            PortKind::ExternalPort);
  const net::Rule* wide =
      find_fib_rule(clos_.net, clos_.wan, Ipv4Prefix::parse("100.64.0.0/16"));
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->kind, RouteKind::WideArea);
}

TEST_F(FibBuilderTest, RebuildIsIdempotent) {
  const size_t rules_before = clos_.net.rule_count();
  FibBuilder::compute_and_build(clos_.net, clos_.config);
  EXPECT_EQ(clos_.net.rule_count(), rules_before);
}


// --- differential: BgpSimulator::run against the reference fixpoint --------

/// The first field in which `got` differs from `want`, or "" when every
/// entry of every RIB is equal.
std::string first_difference(const std::vector<SimRib>& got, const std::vector<SimRib>& want) {
  if (got.size() != want.size()) return "device count";
  for (size_t v = 0; v < got.size(); ++v) {
    const std::string at = "device " + std::to_string(v);
    if (got[v].size() != want[v].size()) return at + ": entry count";
    for (size_t i = 0; i < got[v].size(); ++i) {
      const SimRibEntry& a = got[v][i];
      const SimRibEntry& b = want[v][i];
      const std::string entry = at + " entry " + std::to_string(i) + ": ";
      if (a.prefix_key != b.prefix_key) return entry + "prefix_key";
      if (a.prefix != b.prefix) return entry + "prefix";
      if (a.kind != b.kind) return entry + "kind";
      if (a.path_length != b.path_length) return entry + "path_length";
      if (a.originated != b.originated) return entry + "originated";
      if (a.asn_counts != b.asn_counts) return entry + "asn_counts";
      if (a.originator != b.originator) return entry + "originator";
      if (a.next_hops != b.next_hops) return entry + "next_hops";
    }
  }
  return "";
}

/// Runs both fixpoints and compares every SimRibEntry field and the round
/// count. Returns the RIB entry total so callers can rule out a vacuous pass.
size_t expect_matches_reference(const net::Network& network, const RoutingConfig& config,
                                const std::string& label) {
  BgpSimulator sim(network, config);
  const std::vector<SimRib> ribs = sim.run();
  const reference::Fixpoint want = reference::run(network, config);
  EXPECT_EQ(sim.rounds_used(), want.rounds_used) << label;
  EXPECT_EQ(first_difference(ribs, want.ribs), "") << label;
  size_t entries = 0;
  for (const SimRib& rib : ribs) entries += rib.size();
  return entries;
}

TEST(BgpDifferential, FatTrees) {
  for (const int k : {4, 6, 8}) {
    for (const auto& [label, params] :
         {std::pair<std::string, topo::FatTreeParams>{"default", {.k = k}},
          {"loopbacks", {.k = k, .with_loopbacks = true}},
          {"no-wan", {.k = k, .with_wan = false}}}) {
      const topo::FatTree ft = topo::make_fat_tree(params);
      EXPECT_GT(expect_matches_reference(ft.network, ft.routing,
                                         "k=" + std::to_string(k) + " " + label),
                0u);
    }
  }
}

TEST(BgpDifferential, RegionalDefaultAndWithTransforms) {
  topo::RegionalNetwork region = topo::make_regional({});
  EXPECT_GT(expect_matches_reference(region.network, region.routing, "default"), 0u);
  // Tunnel endpoints are BGP-originated, as under `--transforms 2`.
  (void)topo::plan_transforms(region, {.tunnels = 2, .nat_rules_per_wan = 2});
  EXPECT_GT(expect_matches_reference(region.network, region.routing, "transforms 2"), 0u);
}

TEST(BgpDifferential, EverySingleLinkFailureOfK4) {
  const topo::FatTree ft = topo::make_fat_tree({.k = 4});
  ASSERT_FALSE(ft.network.links().empty());
  for (const net::Link& link : ft.network.links()) {
    RoutingConfig config = ft.routing;
    config.failed_links.insert(link.id);
    expect_matches_reference(ft.network, config, "link " + std::to_string(link.id.value));
  }
}

TEST(BgpDifferential, FailedSpineHubAndWan) {
  const topo::RegionalNetwork region = topo::make_regional({});
  for (const auto& [label, dev] : {std::pair<std::string, DeviceId>{"spine", region.spines[0]},
                                   {"hub", region.hubs[0]},
                                   {"wan", region.wans[0]}}) {
    RoutingConfig config = region.routing;
    config.failed_devices.insert(dev);
    EXPECT_GT(expect_matches_reference(region.network, config, label), 0u);
  }
}

TEST(BgpDifferential, DefaultRoutePolicies) {
  const topo::RegionalNetwork region = topo::make_regional({});
  RoutingConfig null_default = region.routing;
  null_default.null_default_devices.insert(region.spines[0]);
  null_default.null_default_devices.insert(region.aggs[0]);
  expect_matches_reference(region.network, null_default, "regional null default");

  const topo::FatTree ft = topo::make_fat_tree({.k = 4});
  RoutingConfig no_default = ft.routing;
  no_default.no_default_devices.insert(ft.cores[0]);
  no_default.no_default_devices.insert(ft.aggs[1]);
  expect_matches_reference(ft.network, no_default, "fat-tree no default");
  RoutingConfig both = no_default;
  both.null_default_devices.insert(ft.aggs[0]);
  expect_matches_reference(ft.network, both, "fat-tree null and no default");
}

TEST(BgpDifferential, AllowAsInOnSmallClos) {
  for (const bool peering : {false, true}) {
    for (const int allow : {0, 1, 2}) {
      SmallClos s = make_small_clos();
      if (peering) {
        // A same-tier link: the exporter prepends the receiver's own ASN.
        s.net.add_link(s.net.add_interface(s.tor1, "peer0"),
                       s.net.add_interface(s.tor2, "peer0"));
      }
      s.config.allow_as_in = allow;
      EXPECT_GT(expect_matches_reference(s.net, s.config,
                                         "allow-as-in " + std::to_string(allow) +
                                             (peering ? " with tor peering" : "")),
                0u);
    }
  }
}

TEST(BgpDifferential, WideAreaRoutesUnconfined) {
  const topo::RegionalNetwork region = topo::make_regional({});
  RoutingConfig config = region.routing;
  config.limit_wan_routes_to_upper_layers = false;
  expect_matches_reference(region.network, config, "regional");
  const topo::FatTree ft = topo::make_fat_tree({.k = 4});
  RoutingConfig ft_config = ft.routing;
  ft_config.limit_wan_routes_to_upper_layers = false;
  expect_matches_reference(ft.network, ft_config, "fat-tree");
}

TEST(BgpDifferential, TruncatedFixpoints) {
  const topo::RegionalNetwork region = topo::make_regional({});
  const topo::FatTree ft = topo::make_fat_tree({.k = 4});
  for (const int rounds : {0, 1, 2}) {
    RoutingConfig config = region.routing;
    config.max_rounds = rounds;
    expect_matches_reference(region.network, config,
                             "regional max_rounds " + std::to_string(rounds));
    RoutingConfig ft_config = ft.routing;
    ft_config.max_rounds = rounds;
    expect_matches_reference(ft.network, ft_config,
                             "fat-tree max_rounds " + std::to_string(rounds));
  }
  // Without links no RIB moves: the first round is also the last.
  net::Network isolated;
  isolated.device(isolated.add_device("a", Role::ToR, role_asn(Role::ToR)))
      .host_prefixes.push_back(Ipv4Prefix::parse("10.0.0.0/24"));
  isolated.add_device("b", Role::Wan, role_asn(Role::Wan));
  EXPECT_GT(expect_matches_reference(isolated, RoutingConfig{}, "no links"), 0u);
}

TEST(BgpDifferential, DuplicateOriginations) {
  // tor1 originates its host prefix twice, tor2 announces the same prefix
  // as a loopback (anycast), and the WAN announces it both as a hosted and
  // as a wide-area route: the first origination of a duplicate wins, and
  // equal-length offers from different origins merge into one ECMP entry.
  SmallClos s = make_small_clos();
  const Ipv4Prefix p = s.net.device(s.tor1).host_prefixes.front();
  s.net.device(s.tor1).host_prefixes.push_back(p);
  s.net.device(s.tor2).loopbacks.push_back(p);
  s.net.device(s.wan).host_prefixes.push_back(p);
  s.config.wide_area_prefixes[s.wan].push_back(p);
  s.config.limit_wan_routes_to_upper_layers = false;
  // An isolated device keeps its duplicated originations unmerged.
  const DeviceId lone = s.net.add_device("lone", Role::ToR, role_asn(Role::ToR));
  s.net.device(lone).host_prefixes = {p, p};
  for (const int rounds : {1, 128}) {
    s.config.max_rounds = rounds;
    EXPECT_GT(expect_matches_reference(s.net, s.config,
                                       "max_rounds " + std::to_string(rounds)),
              0u);
  }
}

}  // namespace
}  // namespace yardstick::routing
