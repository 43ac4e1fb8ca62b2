// Property-based tests on randomized networks.
//
// A seeded generator produces layered random topologies (links only point
// from lower to higher layers, so forwarding is loop-free and flood
// conservation is exact) with randomized LPM tables. Each property is
// checked across a sweep of seeds via TEST_P.
#include <gtest/gtest.h>

#include <random>

#include "coverage/components.hpp"
#include "coverage/path_explorer.hpp"
#include "dataplane/simulator.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/persist.hpp"

namespace yardstick {
namespace {

using dataplane::MatchSetIndex;
using dataplane::Transfer;
using packet::ConcretePacket;
using packet::Ipv4Prefix;
using packet::PacketSet;

struct RandomNet {
  net::Network network;
  net::DeviceId source;            // layer-0 device packets enter at
  net::InterfaceId source_port;    // its host port
};

/// Layered random network: `layers` tiers of `width` devices; every device
/// links to 1-2 devices in the next tier; the top tier has egress ports.
/// Each device gets a randomized LPM table over /8../24 prefixes with
/// forward/drop actions, plus (sometimes) a default route.
RandomNet make_random_net(uint32_t seed, int layers = 3, int width = 3) {
  std::mt19937 rng(seed);
  RandomNet out;
  net::Network& n = out.network;

  std::vector<std::vector<net::DeviceId>> tiers(layers);
  for (int layer = 0; layer < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      tiers[layer].push_back(n.add_device(
          "d" + std::to_string(layer) + "_" + std::to_string(i), net::Role::Other));
    }
  }
  out.source = tiers[0][0];
  out.source_port = n.add_interface(out.source, "in", net::PortKind::HostPort);

  // Links: each device to 1-2 next-tier devices.
  std::vector<std::vector<std::pair<net::InterfaceId, net::DeviceId>>> uplinks(
      n.device_count());
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (const net::DeviceId dev : tiers[layer]) {
      const int fanout = 1 + static_cast<int>(rng() % 2);
      for (int f = 0; f < fanout; ++f) {
        const net::DeviceId peer = tiers[layer + 1][rng() % width];
        const auto ia = n.add_interface(
            dev, "u" + std::to_string(n.device(dev).interfaces.size()));
        const auto ib = n.add_interface(
            peer, "d" + std::to_string(n.device(peer).interfaces.size()));
        n.add_link(ia, ib);
        uplinks[dev.value].emplace_back(ia, peer);
      }
    }
  }
  // Top tier egress ports.
  for (const net::DeviceId dev : tiers[layers - 1]) {
    const auto port = n.add_interface(dev, "out", net::PortKind::ExternalPort);
    uplinks[dev.value].emplace_back(port, net::DeviceId{});
  }

  // Random LPM tables.
  for (const net::Device& dev : n.devices()) {
    const auto& ups = uplinks[dev.id.value];
    if (ups.empty()) continue;
    const int rules = 2 + static_cast<int>(rng() % 6);
    for (int r = 0; r < rules; ++r) {
      const uint8_t len = static_cast<uint8_t>(8 + rng() % 17);
      const uint32_t addr = rng();
      const Ipv4Prefix prefix(addr, len);
      net::Action action;
      if (rng() % 4 == 0) {
        action = net::Action::drop();
      } else {
        action = net::Action::forward({ups[rng() % ups.size()].first});
      }
      n.add_rule(dev.id, net::MatchSpec::for_dst(prefix), std::move(action),
                 net::RouteKind::Other, 32u - len);
    }
    if (rng() % 2 == 0) {
      n.add_rule(dev.id, net::MatchSpec::for_dst(Ipv4Prefix(0, 0)),
                 net::Action::forward({ups[rng() % ups.size()].first}),
                 net::RouteKind::Default, 32);
    }
  }
  return out;
}

class RandomNetTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  RandomNetTest()
      : rnet_(make_random_net(GetParam())),
        index_(mgr_, rnet_.network),
        transfer_(index_) {}

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  RandomNet rnet_;
  MatchSetIndex index_;
  Transfer transfer_;
};

TEST_P(RandomNetTest, MatchSetsPartitionMatchedSpace) {
  for (const net::Device& dev : rnet_.network.devices()) {
    PacketSet acc = PacketSet::none(mgr_);
    PacketSet matched_space = PacketSet::none(mgr_);
    bdd::Uint128 total = 0;
    for (const net::RuleId rid : rnet_.network.table(dev.id)) {
      const PacketSet& ms = index_.match_set(rid);
      const PacketSet field =
          MatchSetIndex::build_match_field(mgr_, rnet_.network.match_spec(rid));
      EXPECT_TRUE(ms.intersect(acc).empty());
      // Every match set stays within its match field.
      EXPECT_TRUE(ms.raw().implies(field.raw()));
      acc = acc.union_with(ms);
      matched_space = matched_space.union_with(field);
      total += ms.count();
    }
    EXPECT_EQ(acc, matched_space);
    EXPECT_EQ(total, matched_space.count());
  }
}

TEST_P(RandomNetTest, FloodConservation) {
  // Loop-free single-copy forwarding: every injected packet is delivered,
  // dropped by a rule, or unmatched — exactly once.
  const dataplane::SymbolicSimulator sim(transfer_);
  const PacketSet injected = PacketSet::all(mgr_);
  const auto result = sim.flood(rnet_.source, rnet_.source_port, injected);
  EXPECT_EQ(result.delivered.count() + result.dropped.count() + result.unmatched.count(),
            injected.count());
}

TEST_P(RandomNetTest, SymbolicAgreesWithConcrete) {
  const dataplane::SymbolicSimulator sym(transfer_);
  const dataplane::ConcreteSimulator conc(transfer_);
  std::mt19937 rng(GetParam() * 31 + 7);
  for (int i = 0; i < 16; ++i) {
    ConcretePacket pkt;
    pkt.dst_ip = rng();
    pkt.src_ip = rng();
    pkt.proto = static_cast<uint8_t>(rng());
    const auto trace = conc.run(rnet_.source, rnet_.source_port, pkt);
    const auto flood =
        sym.flood(rnet_.source, rnet_.source_port, PacketSet::from_packet(mgr_, pkt));
    switch (trace.disposition) {
      case dataplane::Disposition::Delivered:
        EXPECT_TRUE(flood.delivered.at(net::to_location(trace.egress)).contains(pkt));
        break;
      case dataplane::Disposition::Dropped:
        EXPECT_EQ(flood.dropped.count(), bdd::Uint128{1});
        break;
      case dataplane::Disposition::NoRule:
        EXPECT_EQ(flood.unmatched.count(), bdd::Uint128{1});
        break;
      case dataplane::Disposition::Loop:
        ADD_FAILURE() << "layered networks cannot loop";
    }
  }
}

TEST_P(RandomNetTest, PathGuardsPartitionInjectedSpace) {
  // Without ECMP fan-out, the maximal paths from one ingress partition the
  // injected header space: guard sizes sum to 2^104.
  const coverage::PathExplorer explorer(transfer_, nullptr);
  bdd::Uint128 total = 0;
  explorer.explore(rnet_.source, rnet_.source_port, PacketSet::all(mgr_),
                   [&](const coverage::ExploredPath& p) {
                     total += p.guard_size;
                     return true;
                   });
  // Packets unmatched at the *first* device traverse no rule and belong to
  // no path; add them back for the balance check.
  const auto stage = transfer_.process(rnet_.source, rnet_.source_port,
                                       PacketSet::all(mgr_));
  PacketSet claimed = PacketSet::none(mgr_);
  for (const auto& s : stage.fib) claimed = claimed.union_with(s.packets);
  total += PacketSet::all(mgr_).minus(claimed).count();
  EXPECT_EQ(total, PacketSet::all(mgr_).count());
}

TEST_P(RandomNetTest, CoverageMonotoneUnderRandomMarks) {
  std::mt19937 rng(GetParam() ^ 0xabcdef);
  coverage::CoverageTrace trace;
  double last_rule = 0.0, last_weighted = 0.0, last_device = 0.0;
  for (int step = 0; step < 6; ++step) {
    // Random mark: either a rule inspection or a packet set somewhere.
    if (rng() % 2 == 0 && rnet_.network.rule_count() > 0) {
      trace.mark_rule(net::RuleId{static_cast<uint32_t>(rng() % rnet_.network.rule_count())});
    } else {
      const auto loc = static_cast<packet::LocationId>(
          rng() % rnet_.network.interface_count());
      trace.mark_packet(loc, PacketSet::dst_prefix(
                                 mgr_, Ipv4Prefix(rng(), static_cast<uint8_t>(rng() % 25))));
    }
    const coverage::CoveredSets covered(index_, trace);
    const coverage::ComponentFactory factory(transfer_);
    const double rule_frac = coverage::collection_coverage(
        covered, factory.all_rules(), coverage::fractional_aggregator());
    const double weighted = coverage::collection_coverage(
        covered, factory.all_rules(), coverage::weighted_average_aggregator());
    const double device = coverage::collection_coverage(
        covered, factory.all_devices(), coverage::simple_average_aggregator());
    EXPECT_GE(rule_frac, last_rule - 1e-12);
    EXPECT_GE(weighted, last_weighted - 1e-12);
    EXPECT_GE(device, last_device - 1e-12);
    EXPECT_GE(rule_frac, 0.0);
    EXPECT_LE(rule_frac, 1.0);
    EXPECT_LE(weighted, 1.0);
    EXPECT_LE(device, 1.0);
    last_rule = rule_frac;
    last_weighted = weighted;
    last_device = device;
  }
}

TEST_P(RandomNetTest, PersistenceRoundTripOnRandomTraces) {
  std::mt19937 rng(GetParam() + 99);
  coverage::CoverageTrace trace;
  for (int i = 0; i < 8; ++i) {
    const auto loc =
        static_cast<packet::LocationId>(rng() % rnet_.network.interface_count());
    trace.mark_packet(
        loc, PacketSet::dst_prefix(mgr_, Ipv4Prefix(rng(), static_cast<uint8_t>(rng() % 33)))
                 .intersect(PacketSet::field_equals(mgr_, packet::Field::Proto,
                                                    static_cast<uint8_t>(rng()))));
  }
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace loaded =
      ys::deserialize_trace(ys::serialize_trace(trace, mgr_), mgr2);
  ASSERT_EQ(loaded.marked_packets().location_count(),
            trace.marked_packets().location_count());
  for (const auto& [loc, ps] : trace.marked_packets().entries()) {
    EXPECT_EQ(loaded.marked_packets().at(loc).count(), ps.count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetTest, ::testing::Range(0u, 10u));

}  // namespace
}  // namespace yardstick
