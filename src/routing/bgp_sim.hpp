// Synchronous eBGP path-vector simulator.
//
// Reproduces the control plane of §7.1: per-tier private ASNs, allow-as-in,
// shortest-AS-path selection with ECMP across equal-cost neighbors, export
// policies (wide-area routes confined to upper layers), and origination of
// host prefixes, loopbacks and the WAN default. The output is one RIB per
// device; FibBuilder turns RIBs into forwarding rules.
//
// Implementation notes: routes carry a compact per-tier ASN occurrence
// count instead of a full AS path (there are only five tier ASNs), which
// keeps memory linear in |devices| x |prefixes| even on large fat-trees.
// Selection is monotone Bellman-Ford over path length, so iteration reaches
// a fixpoint in O(network diameter) synchronous rounds. A round allocates
// nothing per advertisement: prefixes get dense ids, candidates accumulate
// in one reused array indexed by id, and RIBs are double-buffered
// (DESIGN.md §17).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netmodel/network.hpp"
#include "routing/config.hpp"
#include "routing/route.hpp"

namespace yardstick::routing {

/// Compact per-device routing table entry used during simulation.
struct SimRibEntry {
  uint64_t prefix_key = 0;  // (addr << 6) | len
  packet::Ipv4Prefix prefix;
  net::RouteKind kind = net::RouteKind::Other;
  uint8_t path_length = 0;
  bool originated = false;
  /// Occurrences of each tier's ASN in the path (index = tier + 1).
  std::array<uint8_t, 6> asn_counts{};
  net::DeviceId originator;
  /// Egress interfaces of all equal-cost best paths.
  std::vector<net::InterfaceId> next_hops;

  [[nodiscard]] bool same_selection(const SimRibEntry& o) const {
    return prefix_key == o.prefix_key && kind == o.kind && path_length == o.path_length &&
           next_hops == o.next_hops;
  }
};

/// A device's converged routing table, sorted by prefix key.
using SimRib = std::vector<SimRibEntry>;

[[nodiscard]] inline uint64_t prefix_key(const packet::Ipv4Prefix& p) {
  return (static_cast<uint64_t>(p.address()) << 6) | p.length();
}

class BgpSimulator {
 public:
  BgpSimulator(const net::Network& network, RoutingConfig config)
      : network_(network), config_(std::move(config)) {}

  /// Run synchronous rounds to fixpoint. Returns one RIB per device
  /// (indexed by DeviceId).
  [[nodiscard]] std::vector<SimRib> run();

  /// Rounds executed by the last run() (diagnostic).
  [[nodiscard]] int rounds_used() const { return rounds_used_; }

 private:
  [[nodiscard]] SimRib originated_entries(const net::Device& dev) const;
  [[nodiscard]] bool export_allowed(const SimRibEntry& entry, const net::Device& exporter,
                                    const net::Device& receiver) const;
  /// Import policy for `entry` as offered by an exporter of tier index
  /// `exporter_tier_idx`, judged as if the exporter's ASN were prepended.
  [[nodiscard]] bool import_allowed(const SimRibEntry& entry, int exporter_tier_idx,
                                    const net::Device& receiver) const;

  const net::Network& network_;
  RoutingConfig config_;
  int rounds_used_ = 0;
};

}  // namespace yardstick::routing
