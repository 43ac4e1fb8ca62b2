// Random small forwarding and ACL tables for the differential tests of
// steps 1 and 2 (match_reference_test, covered_sets_test).
#pragma once

#include <random>
#include <string>
#include <vector>

#include "netmodel/network.hpp"

namespace yardstick::testutil {

using net::Action;
using net::MatchSpec;
using net::TableKind;
using packet::Ipv4Prefix;

/// A prefix pool whose members nest, repeat and lie apart: per base address
/// a chain of prefixes of growing length, plus two sibling halves of one.
inline std::vector<Ipv4Prefix> prefix_pool(std::mt19937& rng) {
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

inline net::PortRange port_range(std::mt19937& rng) {
  const auto lo = static_cast<uint16_t>(rng() % 2000);
  return {lo, static_cast<uint16_t>(lo + rng() % 500)};
}

/// Eight devices with random tables: priorities in any order, dst prefixes
/// from the pool or none, ACL rules with src, proto and port fields that
/// permit or deny, FIB rules that forward or drop; half the devices have an
/// ACL.
inline net::Network random_network(uint32_t seed) {
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

}  // namespace yardstick::testutil
