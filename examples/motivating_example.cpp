// The §2 / Figure 1 motivating example, end to end.
//
// A small data center: four leaves, two spines, two border routers, WAN.
// Border B2 carries a null-routed static default, so it silently stops
// re-advertising the default route — the data center's WAN connectivity
// secretly hangs on B1 alone.
//
// Three connectivity tests (leaf-to-leaf, leaf-to-WAN, border-to-leaf) all
// PASS despite the lurking misconfiguration. Rule coverage is what flags
// it: no test packet ever uses B2's default route, so its coverage is 0
// and visibly lower than symmetric B1. We then fail B1 and show the
// outage the metric would have prevented.
#include <cstdio>
#include <memory>

#include "nettest/reachability.hpp"
#include "routing/fib_builder.hpp"
#include "topo/subnets.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;
using net::DeviceId;
using net::InterfaceId;
using net::PortKind;
using net::Role;
using packet::Ipv4Prefix;
using packet::PacketSet;

namespace {

struct Figure1Network {
  net::Network net;
  routing::RoutingConfig routing;
  std::vector<DeviceId> leaves;
  std::vector<DeviceId> spines;
  DeviceId b1, b2, wan;
};

Figure1Network build(bool with_b1) {
  Figure1Network f;
  net::Network& n = f.net;
  topo::SubnetAllocator subnets;

  f.wan = n.add_device("wan", Role::Wan, routing::role_asn(Role::Wan));
  n.add_interface(f.wan, "internet0", PortKind::ExternalPort);
  if (with_b1) f.b1 = n.add_device("B1", Role::RegionalHub, routing::role_asn(Role::RegionalHub));
  f.b2 = n.add_device("B2", Role::RegionalHub, routing::role_asn(Role::RegionalHub));
  for (int s = 0; s < 2; ++s) {
    f.spines.push_back(
        n.add_device("S" + std::to_string(s + 1), Role::Spine, routing::role_asn(Role::Spine)));
  }
  for (int l = 0; l < 4; ++l) {
    const DeviceId leaf =
        n.add_device("L" + std::to_string(l + 1), Role::ToR, routing::role_asn(Role::ToR));
    f.leaves.push_back(leaf);
    n.device(leaf).host_prefixes.push_back(subnets.next_host_prefix());
    n.add_interface(leaf, "host0", PortKind::HostPort);
  }

  const auto connect = [&](DeviceId a, DeviceId b) {
    const InterfaceId ia =
        n.add_interface(a, "eth" + std::to_string(n.device(a).interfaces.size()));
    const InterfaceId ib =
        n.add_interface(b, "eth" + std::to_string(n.device(b).interfaces.size()));
    n.add_link(ia, ib, subnets.next_link_subnet());
  };
  if (with_b1) connect(f.b1, f.wan);
  connect(f.b2, f.wan);
  for (const DeviceId spine : f.spines) {
    if (with_b1) connect(spine, f.b1);
    connect(spine, f.b2);
    for (const DeviceId leaf : f.leaves) connect(spine, leaf);
  }

  // The misconfiguration: B2's static default is null-routed. The network
  // otherwise relies on BGP-propagated defaults (no fleet-wide static).
  f.routing.static_northbound_default = false;
  f.routing.null_default_devices.insert(f.b2);
  routing::FibBuilder::compute_and_build(f.net, f.routing);
  return f;
}

/// The three §2 tests as symbolic reachability queries.
nettest::TestSuite make_suite(const Figure1Network& f, bdd::BddManager& mgr) {
  nettest::TestSuite suite("figure-1");
  const net::Network& n = f.net;

  PacketSet dc_space = PacketSet::none(mgr);
  for (const DeviceId leaf : f.leaves) {
    dc_space = dc_space.union_with(
        PacketSet::dst_prefix(mgr, n.device(leaf).host_prefixes.front()));
  }

  // Test 1: each leaf reaches each other leaf's prefix.
  std::vector<nettest::ReachabilityQuery> leaf_to_leaf;
  for (const DeviceId src : f.leaves) {
    for (const DeviceId dst : f.leaves) {
      if (src == dst) continue;
      nettest::ReachabilityQuery q;
      q.source = src;
      q.source_interface = n.ports_of_kind(src, PortKind::HostPort).front();
      q.headers = PacketSet::dst_prefix(mgr, n.device(dst).host_prefixes.front());
      q.expected_egress = n.ports_of_kind(dst, PortKind::HostPort).front();
      q.expected_delivered = q.headers;
      leaf_to_leaf.push_back(std::move(q));
    }
  }
  suite.add(std::make_unique<nettest::ReachabilityTest>("LeafToLeaf",
                                                        std::move(leaf_to_leaf)));

  // Test 2: each leaf reaches the WAN with packets destined outside the DC.
  std::vector<nettest::ReachabilityQuery> leaf_to_wan;
  const InterfaceId internet = n.ports_of_kind(f.wan, PortKind::ExternalPort).front();
  for (const DeviceId src : f.leaves) {
    nettest::ReachabilityQuery q;
    q.source = src;
    q.source_interface = n.ports_of_kind(src, PortKind::HostPort).front();
    q.headers = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("8.8.8.0/24"));
    q.expected_egress = internet;
    q.expected_delivered = q.headers;
    leaf_to_wan.push_back(std::move(q));
  }
  suite.add(std::make_unique<nettest::ReachabilityTest>("LeafToWan",
                                                        std::move(leaf_to_wan)));

  // Test 3: each border reaches each leaf.
  std::vector<nettest::ReachabilityQuery> border_to_leaf;
  std::vector<DeviceId> borders{f.b2};
  if (f.b1.valid()) borders.insert(borders.begin(), f.b1);
  for (const DeviceId border : borders) {
    for (const DeviceId dst : f.leaves) {
      nettest::ReachabilityQuery q;
      q.source = border;
      q.source_interface = InterfaceId{};  // injected at the border
      q.headers = PacketSet::dst_prefix(mgr, n.device(dst).host_prefixes.front());
      q.expected_egress = n.ports_of_kind(dst, PortKind::HostPort).front();
      q.expected_delivered = q.headers;
      border_to_leaf.push_back(std::move(q));
    }
  }
  suite.add(std::make_unique<nettest::ReachabilityTest>("BorderToLeaf",
                                                        std::move(border_to_leaf)));
  return suite;
}

}  // namespace

int main() {
  bdd::BddManager mgr(packet::kNumHeaderBits);
  Figure1Network f = build(/*with_b1=*/true);
  std::printf("figure-1 network: %s\n\n", f.net.summary().c_str());

  const nettest::TestSuite suite = make_suite(f, mgr);
  const ys::CoverageEngine engine(mgr, f.net, suite);
  std::printf("-- running the three connectivity tests --\n");
  for (const auto& result : engine.results()) {
    std::printf("  %-14s %s (%zu checks)\n", result.name.c_str(),
                result.passed() ? "PASS" : "FAIL", result.checks);
  }

  std::printf("\n-- all tests pass; now ask Yardstick what they missed --\n");
  const auto default_rule_of = [&](DeviceId border) {
    for (const net::RuleId r : f.net.table(border)) {
      if (f.net.rule(r).dst_prefix()->length() == 0) return r;
    }
    return net::RuleId{};
  };
  const auto device_filter = [](DeviceId id) {
    return [id](const net::Device& d) { return d.id == id; };
  };
  for (const auto& [name, border] : {std::pair{"B1", f.b1}, std::pair{"B2", f.b2}}) {
    const double rule_frac =
        engine.rules_coverage(coverage::fractional_aggregator(), device_filter(border));
    const bool default_tested = engine.rule_coverage(default_rule_of(border)) > 0.0;
    std::printf("  %s: fractional rule coverage %5.1f%%, default route tested: %s\n",
                name, rule_frac * 100.0, default_tested ? "yes" : "NO");
  }
  std::printf("  -> B2's default route was never exercised by any test packet, and\n");
  std::printf("     B2's rule coverage sits below its symmetric peer B1: exactly the\n");
  std::printf("     signal that would have exposed the null-routed static default.\n");

  std::printf("\n-- what happens when B1 fails --\n");
  Figure1Network degraded = build(/*with_b1=*/false);
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex ms2(mgr2, degraded.net);
  const dataplane::Transfer tr2(ms2);
  const dataplane::ConcreteSimulator sim(tr2);
  packet::ConcretePacket pkt;
  pkt.dst_ip = 0x08080808u;  // 8.8.8.8
  const auto trace = sim.run(degraded.leaves.front(), InterfaceId{}, pkt);
  std::printf("  leaf L1 -> 8.8.8.8 without B1: %s", to_string(trace.disposition));
  if (!trace.hops.empty()) {
    std::printf(" at %s", degraded.net.device(trace.hops.back().device).name.c_str());
  }
  std::printf("\n  The whole data center loses WAN connectivity despite B2 being alive\n");
  std::printf("  -- exactly the outage the coverage report flagged in advance.\n");
  return 0;
}
