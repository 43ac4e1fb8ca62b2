// Step 1 against its reference (tests/match_reference.hpp): MatchSetIndex
// builds each distinct match field once per manager and gives a rule whose
// dst prefix no earlier rule of its table overlaps its field as M[r], paying
// a difference only for the others (DESIGN.md §20). Every M[r] and every
// ACL-permitted space must be the reference's node, in one manager, at
// 1, 2 and 4 workers, with and without a cache prefill.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "dataplane/sharded_build.hpp"
#include "match_reference.hpp"
#include "routing/fib_builder.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"

namespace yardstick::dataplane {
namespace {

using net::Action;
using net::MatchSpec;
using net::TableKind;
using packet::Ipv4Prefix;

/// A prefix pool whose members nest, repeat and lie apart: per base address
/// a chain of prefixes of growing length, plus two sibling halves of one.
std::vector<Ipv4Prefix> prefix_pool(std::mt19937& rng) {
  std::vector<Ipv4Prefix> pool;
  for (int chain = 0; chain < 4; ++chain) {
    const uint32_t base = static_cast<uint32_t>(rng());
    for (uint8_t length = static_cast<uint8_t>(1 + rng() % 8); length <= 32;
         length = static_cast<uint8_t>(length + 1 + rng() % 8)) {
      pool.emplace_back(base, length);
    }
    const uint8_t length = static_cast<uint8_t>(8 + rng() % 16);
    pool.emplace_back(base, length);
    pool.emplace_back(base ^ (uint32_t{1} << (31 - length)), length);
  }
  return pool;
}

net::PortRange port_range(std::mt19937& rng) {
  const auto lo = static_cast<uint16_t>(rng() % 2000);
  return {lo, static_cast<uint16_t>(lo + rng() % 500)};
}

/// Eight devices with random tables: priorities in any order, dst prefixes
/// from the pool or none, ACL rules with src, proto and port fields that
/// permit or deny, FIB rules that forward or drop; half the devices have an
/// ACL.
net::Network random_network(uint32_t seed) {
  std::mt19937 rng(seed);
  const std::vector<Ipv4Prefix> pool = prefix_pool(rng);
  const auto chance = [&rng](uint32_t percent) { return rng() % 100 < percent; };
  const auto from_pool = [&] { return pool[rng() % pool.size()]; };
  net::Network network;
  for (int d = 0; d < 8; ++d) {
    const net::DeviceId dev = network.add_device("r" + std::to_string(d), net::Role::ToR);
    const uint32_t fib_rules = rng() % 40;
    for (uint32_t i = 0; i < fib_rules; ++i) {
      MatchSpec match;
      if (chance(90)) match.dst_prefix = from_pool();
      network.add_rule(dev, match, chance(80) ? Action::forward({}) : Action::drop(),
                       net::RouteKind::Other, rng() % 50);
    }
    if (d % 2 == 1) continue;
    const uint32_t acl_rules = 1 + rng() % 25;
    for (uint32_t i = 0; i < acl_rules; ++i) {
      MatchSpec match;
      if (chance(60)) match.dst_prefix = from_pool();
      if (chance(50)) match.src_prefix = from_pool();
      if (chance(40)) match.proto = chance(50) ? 6 : 17;
      if (chance(40)) match.src_port = port_range(rng);
      if (chance(40)) match.dst_port = port_range(rng);
      network.add_rule(dev, match, chance(60) ? Action::permit() : Action::drop(),
                       net::RouteKind::Security, rng() % 30, TableKind::Acl);
    }
  }
  return network;
}

/// Builds the index of `network` at 1, 2 and 4 workers, without and with
/// the reference's sets prefilled for every other device, each in a fresh
/// manager that also holds the reference, and expects the reference's node
/// for every set.
void expect_reference_sets(const net::Network& network, const std::string& label) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const bool prefilled : {false, true}) {
      const std::string config =
          label + ", " + std::to_string(threads) + " worker(s)" + (prefilled ? ", prefilled" : "");
      bdd::BddManager mgr(packet::kNumHeaderBits);
      const MatchSlots want = reference::match_slots(mgr, network);
      MatchPrefill half;
      half.match_sets.resize(network.rule_count());
      half.acl_permitted.resize(network.device_count());
      half.device_hit.assign(network.device_count(), 0);
      for (const net::Device& dev : network.devices()) {
        if (dev.id.value % 2 != 0) continue;
        half.device_hit[dev.id.value] = 1;
        for_each_slot(network, dev, static_cast<MatchSlots&>(half), want,
                      [](packet::PacketSet& to, const packet::PacketSet& from) { to = from; });
      }
      const MatchSetIndex index(mgr, network, threads, prefilled ? &half : nullptr);
      ASSERT_FALSE(index.truncated()) << config;
      for (const net::Rule& rule : network.rules()) {
        ASSERT_EQ(index.match_set(rule.id).raw(), want.match_sets[rule.id.value].raw())
            << "M[r] of rule " << rule.id.value << " ("
            << network.match_spec(rule.id).to_string() << "), " << config;
      }
      for (const net::Device& dev : network.devices()) {
        ASSERT_EQ(index.acl_permitted_space(dev.id).raw(),
                  want.acl_permitted[dev.id.value].raw())
            << "ACL space of device " << dev.id.value << ", " << config;
      }
    }
  }
}

TEST(MatchSetReferenceTest, RandomTables) {
  for (uint32_t seed = 1; seed <= 16; ++seed) {
    expect_reference_sets(random_network(seed), "seed " + std::to_string(seed));
  }
}

TEST(MatchSetReferenceTest, FatTrees) {
  for (const int k : {4, 6, 8}) {
    topo::FatTree tree = topo::make_fat_tree({.k = k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);
    expect_reference_sets(tree.network, "k=" + std::to_string(k));
  }
}

TEST(MatchSetReferenceTest, RegionalWithAclsAndTransforms) {
  // The network of `regional --acl --transforms 2`.
  topo::RegionalNetwork region = topo::make_regional({});
  const topo::TransformState transforms =
      topo::plan_transforms(region, {.tunnels = 2, .nat_rules_per_wan = 2});
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  topo::install_ingress_acls(region.network, region.tors);
  topo::install_transform_rules(region.network, transforms, region.routing);
  expect_reference_sets(region.network, "regional");
}

TEST(MatchSetReferenceTest, AclWithoutDstPrefixesAllocatesNoMoreThanTheReference) {
  // Without a dst prefix every rule overlaps every earlier one: the worst
  // case, one two-operand union and one difference per rule, as the
  // reference pays. The walk must still allocate no node the reference
  // does not.
  std::mt19937 rng(2000);
  const std::vector<Ipv4Prefix> pool = prefix_pool(rng);
  net::Network network;
  const net::DeviceId dev = network.add_device("acl", net::Role::ToR);
  for (uint32_t i = 0; i < 2000; ++i) {
    MatchSpec match;
    match.src_prefix = pool[rng() % pool.size()];
    if (rng() % 2 == 0) match.proto = rng() % 2 == 0 ? 6 : 17;
    match.dst_port = port_range(rng);
    network.add_rule(dev, match, rng() % 3 == 0 ? Action::drop() : Action::permit(),
                     net::RouteKind::Security, i, TableKind::Acl);
  }
  network.add_rule(dev, MatchSpec::for_dst(Ipv4Prefix::parse("10.0.0.0/8")),
                   Action::forward({}));

  bdd::BddManager walked(packet::kNumHeaderBits);
  const MatchSetIndex index(walked, network);
  const size_t walked_nodes = walked.arena_size();
  bdd::BddManager chained(packet::kNumHeaderBits);
  (void)reference::match_slots(chained, network);
  EXPECT_LE(walked_nodes, chained.arena_size());

  const MatchSlots want = reference::match_slots(walked, network);
  for (const net::Rule& rule : network.rules()) {
    ASSERT_EQ(index.match_set(rule.id).raw(), want.match_sets[rule.id.value].raw())
        << "rule " << rule.id.value;
  }
  EXPECT_EQ(index.acl_permitted_space(dev).raw(), want.acl_permitted[dev.value].raw());
}

}  // namespace
}  // namespace yardstick::dataplane
