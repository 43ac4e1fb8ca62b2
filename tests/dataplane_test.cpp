// Tests for the dataplane layer: disjoint match sets (§5.2 step 1), the
// symbolic/concrete transfer functions, and the end-to-end simulators.
#include <gtest/gtest.h>

#include <map>

#include "dataplane/simulator.hpp"
#include "prefix_reference.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"

namespace yardstick::dataplane {
namespace {

using packet::ConcretePacket;
using packet::Field;
using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::packet_to;
using testutil::TinyNetwork;

class DataplaneTest : public ::testing::Test {
 protected:
  DataplaneTest() : tiny_(make_tiny()), index_(mgr_, tiny_.net), transfer_(index_) {}

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  MatchSetIndex index_;
  Transfer transfer_;
};

/// The rule's match field: what its table entry says.
PacketSet field_of(bdd::BddManager& mgr, const net::Network& network, net::RuleId rid) {
  return MatchSetIndex::build_match_field(mgr, network.rule(rid).match);
}

TEST_F(DataplaneTest, MatchFieldsAreRawPrefixes) {
  EXPECT_EQ(field_of(mgr_, tiny_.net, tiny_.l1_to_p1), PacketSet::dst_prefix(mgr_, tiny_.p1));
  EXPECT_TRUE(field_of(mgr_, tiny_.net, tiny_.l1_default).full());
}

TEST_F(DataplaneTest, MatchSetsSubtractEarlierRules) {
  // Default route's disjoint match set excludes both /24s.
  const PacketSet expected = PacketSet::all(mgr_)
                                 .minus(PacketSet::dst_prefix(mgr_, tiny_.p1))
                                 .minus(PacketSet::dst_prefix(mgr_, tiny_.p2));
  EXPECT_EQ(index_.match_set(tiny_.l1_default), expected);
  // Specific rules are not shadowed.
  EXPECT_EQ(index_.match_set(tiny_.l1_to_p1), field_of(mgr_, tiny_.net, tiny_.l1_to_p1));
}

TEST_F(DataplaneTest, MatchSetsPartitionTheMatchedSpace) {
  for (const net::Device& dev : tiny_.net.devices()) {
    PacketSet union_sets = PacketSet::none(mgr_);
    PacketSet matched_space = PacketSet::none(mgr_);
    bdd::Uint128 sum = 0;
    for (const net::RuleId rid : tiny_.net.table(dev.id)) {
      const PacketSet& ms = index_.match_set(rid);
      EXPECT_TRUE(ms.intersect(union_sets).empty()) << "overlap on " << dev.name;
      union_sets = union_sets.union_with(ms);
      matched_space = matched_space.union_with(field_of(mgr_, tiny_.net, rid));
      sum += ms.count();
    }
    EXPECT_EQ(union_sets, matched_space);
    EXPECT_EQ(sum, matched_space.count());
  }
}

TEST_F(DataplaneTest, ShadowedRuleHasEmptyMatchSet) {
  // A /32 inside p1 added after the /24 is fully shadowed.
  net::Network& n = tiny_.net;
  const net::RuleId shadowed =
      n.add_rule(tiny_.leaf1, net::MatchSpec::for_dst(Ipv4Prefix::parse("10.0.1.5/32")),
                 net::Action::drop(), net::RouteKind::Other, 40);
  const MatchSetIndex fresh(mgr_, n);
  EXPECT_TRUE(fresh.match_set(shadowed).empty());
  EXPECT_FALSE(field_of(mgr_, n, shadowed).empty());
}

TEST_F(DataplaneTest, SplitClaimsByFirstMatch) {
  const PacketSet input = PacketSet::dst_prefix(mgr_, Ipv4Prefix::parse("10.0.0.0/22"));
  const auto splits = transfer_.split(tiny_.leaf1, tiny_.l1_host, input);
  ASSERT_EQ(splits.size(), 3u);  // p1, p2, default remainder
  bdd::Uint128 total = 0;
  for (const RuleSplit& s : splits) total += s.packets.count();
  EXPECT_EQ(total, input.count());
}

TEST_F(DataplaneTest, SplitEmptyInput) {
  EXPECT_TRUE(transfer_.split(tiny_.leaf1, tiny_.l1_host, PacketSet::none(mgr_)).empty());
}

TEST_F(DataplaneTest, ApplyFansOutAndRespectsDrop) {
  const net::Rule& fwd = tiny_.net.rule(tiny_.sp_to_p1);
  const PacketSet input = PacketSet::dst_prefix(mgr_, tiny_.p1);
  const auto hops = transfer_.apply(fwd, input);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].out_interface, tiny_.sp_d1);
  EXPECT_EQ(hops[0].next_interface, tiny_.l1_up);
  EXPECT_EQ(hops[0].packets, input);

  const net::Rule& drop = tiny_.net.rule(tiny_.sp_default_drop);
  EXPECT_TRUE(transfer_.apply(drop, input).empty());
}

TEST_F(DataplaneTest, RewriteAppliesActionTransforms) {
  net::Rule rule = tiny_.net.rule(tiny_.sp_to_p1);
  rule.action.rewrites.push_back({Field::DstIp, 0x0a000105u});
  const PacketSet input = PacketSet::dst_prefix(mgr_, tiny_.p1);
  const PacketSet out = transfer_.rewrite(rule, input);
  EXPECT_EQ(out, PacketSet::field_equals(mgr_, Field::DstIp, 0x0a000105u));
  // Pre-image brings back the whole input domain.
  EXPECT_EQ(transfer_.rewrite_preimage(rule, out).intersect(input), input);
}

TEST_F(DataplaneTest, ConcreteLookupFollowsLpm) {
  EXPECT_EQ(transfer_.lookup(tiny_.leaf1, tiny_.l1_host, packet_to(tiny_.p1)),
            tiny_.l1_to_p1);
  EXPECT_EQ(transfer_.lookup(tiny_.leaf1, tiny_.l1_host, packet_to(tiny_.p2)),
            tiny_.l1_to_p2);
  EXPECT_EQ(transfer_.lookup(tiny_.leaf1, tiny_.l1_host,
                             packet_to(Ipv4Prefix::parse("99.0.0.0/8"))),
            tiny_.l1_default);
}

TEST_F(DataplaneTest, EcmpPickIsDeterministicAndValid) {
  net::Rule rule = tiny_.net.rule(tiny_.sp_to_p1);
  rule.action.out_interfaces = {tiny_.sp_d1, tiny_.sp_d2};
  const ConcretePacket pkt = packet_to(tiny_.p1);
  const net::InterfaceId first = transfer_.pick_ecmp(rule, pkt);
  EXPECT_EQ(transfer_.pick_ecmp(rule, pkt), first);
  EXPECT_TRUE(first == tiny_.sp_d1 || first == tiny_.sp_d2);
  // Different flows spread (not a strict requirement, but the hash must
  // depend on the packet at all).
  bool varies = false;
  for (uint16_t port = 0; port < 64 && !varies; ++port) {
    ConcretePacket probe = pkt;
    probe.src_port = port;
    varies = transfer_.pick_ecmp(rule, probe) != first;
  }
  EXPECT_TRUE(varies);
}

TEST_F(DataplaneTest, MatchSpecConcreteMatching) {
  net::MatchSpec spec;
  spec.dst_prefix = tiny_.p1;
  spec.proto = 6;
  spec.dst_port = net::PortRange{80, 443};
  ConcretePacket pkt = packet_to(tiny_.p1);
  EXPECT_TRUE(matches(spec, pkt, net::InterfaceId{}));
  pkt.proto = 17;
  EXPECT_FALSE(matches(spec, pkt, net::InterfaceId{}));
  pkt.proto = 6;
  pkt.dst_port = 8080;
  EXPECT_FALSE(matches(spec, pkt, net::InterfaceId{}));
  spec.in_interfaces = {tiny_.l1_host};
  pkt.dst_port = 80;
  EXPECT_TRUE(matches(spec, pkt, tiny_.l1_host));
  EXPECT_FALSE(matches(spec, pkt, tiny_.l1_up));
  // Local injection (invalid interface) bypasses ingress restrictions.
  EXPECT_TRUE(matches(spec, pkt, net::InterfaceId{}));
}

TEST_F(DataplaneTest, ConcreteSimulatorDeliversAcrossSpine) {
  const ConcreteSimulator sim(transfer_);
  const ConcreteTrace trace = sim.run(tiny_.leaf1, tiny_.l1_host, packet_to(tiny_.p2));
  EXPECT_EQ(trace.disposition, Disposition::Delivered);
  EXPECT_EQ(trace.egress, tiny_.l2_host);
  ASSERT_EQ(trace.hops.size(), 3u);
  EXPECT_EQ(trace.hops[0].device, tiny_.leaf1);
  EXPECT_EQ(trace.hops[1].device, tiny_.spine);
  EXPECT_EQ(trace.hops[2].device, tiny_.leaf2);
  EXPECT_EQ(trace.hops[1].rule, tiny_.sp_to_p2);
}

TEST_F(DataplaneTest, ConcreteSimulatorDropsOnNullRoute) {
  const ConcreteSimulator sim(transfer_);
  const ConcreteTrace trace =
      sim.run(tiny_.leaf1, tiny_.l1_host, packet_to(Ipv4Prefix::parse("99.0.0.0/8")));
  EXPECT_EQ(trace.disposition, Disposition::Dropped);
  EXPECT_EQ(trace.hops.back().device, tiny_.spine);
  EXPECT_EQ(trace.hops.back().rule, tiny_.sp_default_drop);
}

TEST_F(DataplaneTest, ConcreteSimulatorLoopDetection) {
  // Two devices defaulting at each other loop forever.
  net::Network n;
  const auto a = n.add_device("a", net::Role::Other);
  const auto b = n.add_device("b", net::Role::Other);
  const auto a0 = n.add_interface(a, "eth0");
  const auto b0 = n.add_interface(b, "eth0");
  n.add_link(a0, b0);
  n.add_rule(a, net::MatchSpec{}, net::Action::forward({a0}));
  n.add_rule(b, net::MatchSpec{}, net::Action::forward({b0}));
  const MatchSetIndex index(mgr_, n);
  const Transfer transfer(index);
  const ConcreteSimulator sim(transfer);
  EXPECT_EQ(sim.run(a, net::InterfaceId{}, packet_to(Ipv4Prefix::parse("1.0.0.0/8")), 16)
                .disposition,
            Disposition::Loop);
}

TEST_F(DataplaneTest, SymbolicFloodPartitionsDispositions) {
  const SymbolicSimulator sim(transfer_);
  const PacketSet everything = PacketSet::all(mgr_);
  const SymbolicResult result = sim.flood(tiny_.leaf1, tiny_.l1_host, everything);

  const PacketSet to_p1 = PacketSet::dst_prefix(mgr_, tiny_.p1);
  const PacketSet to_p2 = PacketSet::dst_prefix(mgr_, tiny_.p2);
  EXPECT_EQ(result.delivered.at(net::to_location(tiny_.l1_host)), to_p1);
  EXPECT_EQ(result.delivered.at(net::to_location(tiny_.l2_host)), to_p2);
  // Everything else dies on the spine's null default.
  EXPECT_EQ(result.dropped.at(net::to_location(tiny_.sp_d1)),
            everything.minus(to_p1).minus(to_p2));
  EXPECT_TRUE(result.unmatched.empty());
  // Conservation: delivered + dropped == injected.
  EXPECT_EQ(result.delivered.count() + result.dropped.count(), everything.count());
}

TEST_F(DataplaneTest, SymbolicFloodVisitorSeesEveryHop) {
  const SymbolicSimulator sim(transfer_);
  std::vector<net::DeviceId> visited;
  (void)sim.flood(tiny_.leaf1, tiny_.l1_host, PacketSet::dst_prefix(mgr_, tiny_.p2), 64,
                  [&](net::DeviceId dev, net::InterfaceId, const PacketSet& arriving) {
                    visited.push_back(dev);
                    EXPECT_FALSE(arriving.empty());
                  });
  EXPECT_EQ(visited, (std::vector<net::DeviceId>{tiny_.leaf1, tiny_.spine, tiny_.leaf2}));
}

TEST_F(DataplaneTest, SymbolicFloodTerminatesOnLoops) {
  net::Network n;
  const auto a = n.add_device("a", net::Role::Other);
  const auto b = n.add_device("b", net::Role::Other);
  const auto a0 = n.add_interface(a, "eth0");
  const auto b0 = n.add_interface(b, "eth0");
  n.add_link(a0, b0);
  n.add_rule(a, net::MatchSpec{}, net::Action::forward({a0}));
  n.add_rule(b, net::MatchSpec{}, net::Action::forward({b0}));
  const MatchSetIndex index(mgr_, n);
  const Transfer transfer(index);
  const SymbolicSimulator sim(transfer);
  const SymbolicResult result = sim.flood(a, net::InterfaceId{}, PacketSet::all(mgr_));
  // Loops deliver nothing; the flood must still terminate.
  EXPECT_TRUE(result.delivered.empty());
}

TEST_F(DataplaneTest, SymbolicAgreesWithConcreteOnSingletons) {
  const SymbolicSimulator sym(transfer_);
  const ConcreteSimulator conc(transfer_);
  for (const Ipv4Prefix& dst : {tiny_.p1, tiny_.p2, Ipv4Prefix::parse("8.8.8.0/24")}) {
    const ConcretePacket pkt = packet_to(dst);
    const ConcreteTrace trace = conc.run(tiny_.leaf1, tiny_.l1_host, pkt);
    const SymbolicResult result =
        sym.flood(tiny_.leaf1, tiny_.l1_host, PacketSet::from_packet(mgr_, pkt));
    if (trace.disposition == Disposition::Delivered) {
      EXPECT_TRUE(result.delivered.at(net::to_location(trace.egress)).contains(pkt));
    } else {
      EXPECT_TRUE(result.delivered.empty());
    }
  }
}

/// Ask `transfer` what the reference FIB scan answers, for every device:
/// each dst prefix in its FIB, each of those with its last bit flipped, a
/// /32 no rule has, and /0. Returns how many devices have no /0 rule.
size_t expect_index_matches_scan(const Transfer& transfer) {
  const net::Network& n = transfer.network();
  const auto expect_same = [&](net::DeviceId dev, const Ipv4Prefix& p) {
    EXPECT_EQ(transfer.rule_for_prefix(dev, p).value,
              reference::rule_for_prefix(n, dev, p).value)
        << n.device(dev).name << " " << p.to_string();
  };
  const Ipv4Prefix absent = Ipv4Prefix::parse("203.0.113.77/32");
  size_t without_default = 0;
  for (const net::Device& dev : n.devices()) {
    for (const net::RuleId rid : n.table(dev.id)) {
      const std::optional<Ipv4Prefix>& dst = n.rule(rid).match.dst_prefix;
      if (!dst) continue;
      expect_same(dev.id, *dst);
      if (dst->length() > 0) {
        expect_same(dev.id, Ipv4Prefix(dst->address() ^ (1u << (32 - dst->length())),
                                       dst->length()));
      }
    }
    EXPECT_FALSE(reference::rule_for_prefix(n, dev.id, absent).valid());
    expect_same(dev.id, absent);
    expect_same(dev.id, packet::default_route_prefix());
    if (!reference::rule_for_prefix(n, dev.id, packet::default_route_prefix()).valid()) {
      ++without_default;
    }
  }
  return without_default;
}

TEST(PrefixIndexTest, MatchesTheFibScanOnFatTrees) {
  for (const int k : {4, 8}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    topo::FatTree tree = topo::make_fat_tree({.k = k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const MatchSetIndex index(mgr, tree.network);
    (void)expect_index_matches_scan(Transfer(index));
    // 12 bytes per indexed (device, prefix) plus 4 per device.
    EXPECT_LE(index.prefixes().bytes(), 16 * index.prefixes().entries());
  }
}

TEST(PrefixIndexTest, FirstRuleInTableOrderAnswersOnTheRegionalNet) {
  // The failure-sweep shape, `regional --tors 8 --acl --transforms 2`:
  // 12,603 rules.
  topo::RegionalParams params;
  params.tors_per_pod = 8;
  topo::RegionalNetwork regional = topo::make_regional(params);
  const topo::TransformState transforms =
      topo::plan_transforms(regional, {.tunnels = 2, .nat_rules_per_wan = 2});
  routing::FibBuilder::compute_and_build(regional.network, regional.routing);
  topo::install_ingress_acls(regional.network, regional.tors);
  topo::install_transform_rules(regional.network, transforms, regional.routing);
  const net::Network& n = regional.network;

  // (device, dst prefix) pairs written by two FIB rules: only table order
  // tells which one answers.
  size_t shared_prefixes = 0;
  for (const net::Device& dev : n.devices()) {
    std::map<Ipv4Prefix, int> rules_per_prefix;
    for (const net::RuleId rid : n.table(dev.id)) {
      const auto& dst = n.rule(rid).match.dst_prefix;
      if (dst && ++rules_per_prefix[*dst] == 2) ++shared_prefixes;
    }
  }
  EXPECT_EQ(shared_prefixes, 4u);

  bdd::BddManager mgr(packet::kNumHeaderBits);
  const MatchSetIndex index(mgr, n);
  EXPECT_GT(expect_index_matches_scan(Transfer(index)), 0u);
}

TEST(PrefixIndexTest, HandBuiltTableCornerCases) {
  net::Network n;
  const auto a = n.add_device("a", net::Role::Other);
  const auto empty = n.add_device("empty", net::Role::Other);
  const auto b = n.add_device("b", net::Role::Other);
  const auto a0 = n.add_interface(a, "eth0");
  const auto b0 = n.add_interface(b, "eth0");
  n.add_link(a0, b0);
  const Ipv4Prefix p = Ipv4Prefix::parse("10.0.0.0/24");
  const Ipv4Prefix acl_only = Ipv4Prefix::parse("192.0.2.0/24");
  // Two rules of different kinds on one prefix: the later-added one sorts
  // first in the table (lower priority value), so it answers.
  n.add_rule(a, net::MatchSpec::for_dst(p), net::Action::forward({a0}), net::RouteKind::Internal,
             10);
  const net::RuleId first_in_table =
      n.add_rule(a, net::MatchSpec::for_dst(p), net::Action::drop(), net::RouteKind::DropRule, 5);
  // A rule without a dst prefix matches everything, but answers nothing.
  net::MatchSpec tcp;
  tcp.proto = 6;
  n.add_rule(a, tcp, net::Action::forward({a0}), net::RouteKind::Other, 0);
  n.add_rule(a, net::MatchSpec::for_dst(acl_only), net::Action::permit(),
             net::RouteKind::Security, 0, net::TableKind::Acl);
  const net::RuleId b_default = n.add_rule(
      b, net::MatchSpec::for_dst(packet::default_route_prefix()), net::Action::forward({b0}));

  bdd::BddManager mgr(packet::kNumHeaderBits);
  const MatchSetIndex index(mgr, n);
  const Transfer transfer(index);
  EXPECT_EQ(transfer.rule_for_prefix(a, p), first_in_table);
  EXPECT_FALSE(transfer.rule_for_prefix(a, packet::default_route_prefix()).valid());
  EXPECT_FALSE(transfer.rule_for_prefix(a, acl_only).valid());
  EXPECT_FALSE(transfer.rule_for_prefix(empty, p).valid());
  EXPECT_FALSE(transfer.rule_for_prefix(empty, packet::default_route_prefix()).valid());
  EXPECT_EQ(transfer.rule_for_prefix(b, packet::default_route_prefix()), b_default);
  EXPECT_FALSE(transfer.rule_for_prefix(b, p).valid());
  EXPECT_EQ(index.prefixes().entries(), 2u);  // a's 10.0.0.0/24 and b's /0
  EXPECT_EQ(expect_index_matches_scan(transfer), 2u);  // a and the empty device
}

TEST(PrefixIndexTest, ClonesShareThePrimarysIndex) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager primary_mgr(packet::kNumHeaderBits);
  const MatchSetIndex primary(primary_mgr, tree.network);
  bdd::BddManager clone_mgr(packet::kNumHeaderBits);
  const MatchSetIndex clone(clone_mgr, primary);
  EXPECT_EQ(&clone.prefixes(), &primary.prefixes());
  (void)expect_index_matches_scan(Transfer(clone));
}

}  // namespace
}  // namespace yardstick::dataplane
