// Step 2 against Algorithm 1 as the paper writes it: T[r] is M[r] for a
// state-inspected rule, else headers ∩ M[r], where the headers are the
// union of the trace's sets at the rule's device and at its interfaces,
// clipped to the ACL-permitted space for a FIB rule. CoveredSets decides
// most rules on the headers' cofactor at the rule's dst prefix and
// intersects only below it (DESIGN.md §22); every covered set must still be
// the plain intersection's node, in one manager, over random tables and
// random traces, after a complete step 1 and after a capped one.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <random>
#include <string>

#include "common/budget.hpp"
#include "coverage/covered_sets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "random_tables.hpp"

namespace yardstick::coverage {
namespace {

using net::Action;
using net::MatchSpec;
using packet::Ipv4Prefix;
using packet::PacketSet;

/// random_network's tables (nested, disjoint and repeated dst prefixes,
/// rules with none, ACLs with src, proto and port fields) plus, per device,
/// a /0, a /32, a prefix installed twice so the second copy is shadowed, a
/// FIB rule with src, proto and port fields, and three interfaces for the
/// trace to mark.
net::Network random_tables(uint32_t seed, const std::vector<Ipv4Prefix>& pool,
                           std::mt19937& rng) {
  net::Network network = testutil::random_network(seed);
  for (uint32_t d = 0; d < network.device_count(); ++d) {
    const net::DeviceId dev{d};
    for (int i = 0; i < 3; ++i) {
      (void)network.add_interface(dev, "r" + std::to_string(d) + "-" + std::to_string(i));
    }
    const auto priority = [&rng] { return static_cast<uint32_t>(rng() % 50); };
    const Ipv4Prefix some = pool[rng() % pool.size()];
    network.add_rule(dev, MatchSpec::for_dst(Ipv4Prefix(0, 0)), Action::forward({}),
                     net::RouteKind::Default, priority());
    network.add_rule(dev, MatchSpec::for_dst(Ipv4Prefix(some.address(), 32)), Action::drop(),
                     net::RouteKind::Other, priority());
    const Ipv4Prefix twice = pool[rng() % pool.size()];
    for (int copy = 0; copy < 2; ++copy) {
      network.add_rule(dev, MatchSpec::for_dst(twice), Action::forward({}),
                       net::RouteKind::Other, priority());
    }
    MatchSpec fields = MatchSpec::for_dst(pool[rng() % pool.size()]);
    fields.src_prefix = pool[rng() % pool.size()];
    fields.proto = 6;
    fields.dst_port = testutil::port_range(rng);
    network.add_rule(dev, fields, Action::forward({}), net::RouteKind::Other, priority());
  }
  return network;
}

/// A random header set. Mostly a union of up to three cubes, each fixing a
/// random subset of the first `depth` dst bits of a pool address, so the
/// set skips dst levels, and some also fixing a non-dst field; now and then
/// a pool prefix, everything or nothing.
PacketSet random_headers(bdd::BddManager& mgr, std::mt19937& rng,
                         const std::vector<Ipv4Prefix>& pool) {
  switch (rng() % 8) {
    case 0: return PacketSet::none(mgr);
    case 1: return PacketSet::all(mgr);
    case 2: return PacketSet::dst_prefix(mgr, pool[rng() % pool.size()]);
    default: break;
  }
  PacketSet headers = PacketSet::none(mgr);
  for (uint32_t cubes = 1 + rng() % 3; cubes-- > 0;) {
    const uint32_t address = pool[rng() % pool.size()].address();
    const auto depth = static_cast<bdd::Var>(rng() % 33);
    bdd::Bdd cube = mgr.one();
    for (bdd::Var v = 0; v < depth; ++v) {
      if (rng() % 3 == 0) continue;
      cube &= ((address >> (31 - v)) & 1U) != 0 ? mgr.var(v) : mgr.nvar(v);
    }
    PacketSet set(cube);
    switch (rng() % 4) {
      case 0:
        set = set.intersect(PacketSet::src_prefix(mgr, pool[rng() % pool.size()]));
        break;
      case 1:
        set = set.intersect(PacketSet::field_equals(mgr, packet::Field::Proto, 17));
        break;
      case 2: {
        const net::PortRange ports = testutil::port_range(rng);
        set = set.intersect(
            PacketSet::field_range(mgr, packet::Field::DstPort, ports.lo, ports.hi));
        break;
      }
      default: break;
    }
    headers = headers.union_with(set);
  }
  return headers;
}

/// Marks random headers at about half of the device and interface
/// locations, and about one rule in eight.
CoverageTrace random_trace(bdd::BddManager& mgr, const net::Network& network, std::mt19937& rng,
                           const std::vector<Ipv4Prefix>& pool) {
  CoverageTrace trace;
  for (const net::Device& dev : network.devices()) {
    if (rng() % 2 == 0) {
      trace.mark_packet(net::device_location(dev.id), random_headers(mgr, rng, pool));
    }
    for (const net::InterfaceId intf : dev.interfaces) {
      if (rng() % 2 == 0) trace.mark_packet(net::to_location(intf), random_headers(mgr, rng, pool));
    }
  }
  for (const net::Rule& rule : network.rules()) {
    if (rng() % 8 == 0) trace.mark_rule(rule.id);
  }
  return trace;
}

/// Algorithm 1 as the paper writes it, one plain intersection per rule.
PacketSet plain_cover(const dataplane::MatchSetIndex& index, const CoverageTrace& trace,
                      net::RuleId rid) {
  if (trace.rule_marked(rid)) return index.match_set(rid);
  const net::Network& network = index.network();
  const net::Rule& rule = network.rule(rid);
  PacketSet headers = PacketSet::none(index.manager());
  const PacketSet local = trace.marked_packets().at(net::device_location(rule.device));
  if (local.valid()) headers = headers.union_with(local);
  for (const net::InterfaceId intf : network.device(rule.device).interfaces) {
    const PacketSet at = trace.marked_packets().at(net::to_location(intf));
    if (at.valid()) headers = headers.union_with(at);
  }
  if (rule.table == net::TableKind::Fib && network.has_acl(rule.device)) {
    headers = headers.intersect(index.acl_permitted_space(rule.device));
  }
  return headers.intersect(index.match_set(rid));
}

/// The decision args of the last `covered_sets.build` span.
struct Decided {
  uint64_t all = 0;
  uint64_t none = 0;
  uint64_t intersected = 0;
  uint64_t marked = 0;
};

Decided last_build_args() {
  Decided out;
  for (const obs::TraceEvent& e : obs::Tracer::global().snapshot()) {
    if (std::strcmp(e.name, "covered_sets.build") != 0) continue;
    for (int a = 0; a < e.num_args; ++a) {
      const char* key = e.args[a].key;
      uint64_t* slot = std::strcmp(key, "all") == 0           ? &out.all
                       : std::strcmp(key, "none") == 0        ? &out.none
                       : std::strcmp(key, "intersected") == 0 ? &out.intersected
                       : std::strcmp(key, "marked") == 0      ? &out.marked
                                                              : nullptr;
      if (slot != nullptr) *slot = e.args[a].value;
    }
  }
  return out;
}

TEST(CoveredSetReferenceTest, RandomTablesAndTraces) {
  Decided total;
  size_t unreached = 0;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    for (const bool capped : {false, true}) {
      const std::string config = "seed " + std::to_string(seed) + (capped ? ", capped" : "");
      std::mt19937 rng(seed * 7919);
      const std::vector<Ipv4Prefix> pool = testutil::prefix_pool(rng);
      const net::Network network = random_tables(seed, pool, rng);
      bdd::BddManager mgr(packet::kNumHeaderBits);
      const CoverageTrace trace = random_trace(mgr, network, rng, pool);

      // A cap halfway through what step 1 allocates uncapped leaves the
      // rules it never reached with empty match sets.
      size_t step1_nodes = 0;
      {
        bdd::BddManager probe(packet::kNumHeaderBits);
        const dataplane::MatchSetIndex full(probe, network);
        step1_nodes = probe.arena_size();
      }
      ys::ResourceBudget cap;
      cap.with_max_bdd_nodes(mgr.arena_size() + step1_nodes / 2);
      std::optional<dataplane::MatchSetIndex> index;
      {
        const bdd::ScopedBudget attach(mgr, capped ? &cap : nullptr);
        index.emplace(mgr, network);
      }
      ASSERT_EQ(index->truncated(), capped) << config;
      for (const net::Rule& rule : network.rules()) unreached += !index->reached(rule.id);

      obs::Tracer::global().clear();
      obs::set_enabled(true);
      const CoveredSets covered(*index, trace);
      obs::set_enabled(false);
      const Decided decided = last_build_args();
      obs::Tracer::global().clear();
      obs::metrics().reset_values();
      EXPECT_EQ(covered.truncated(), capped) << config;
      EXPECT_EQ(decided.all + decided.none + decided.intersected + decided.marked,
                network.rule_count())
          << config;
      total.all += decided.all;
      total.none += decided.none;
      total.intersected += decided.intersected;
      total.marked += decided.marked;

      for (const net::Rule& rule : network.rules()) {
        ASSERT_EQ(covered.covered(rule.id).raw(), plain_cover(*index, trace, rule.id).raw())
            << "T[r] of rule " << rule.id.value << " ("
            << network.match_spec(rule.id).to_string() << "), " << config;
      }
    }
  }
  // The data reaches every branch of the decision, and a capped step 1
  // left rules unreached.
  EXPECT_GT(total.all, 0u);
  EXPECT_GT(total.none, 0u);
  EXPECT_GT(total.intersected, 0u);
  EXPECT_GT(total.marked, 0u);
  EXPECT_GT(unreached, 0u);
}

}  // namespace
}  // namespace yardstick::coverage
