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
// a fixpoint in O(network diameter) synchronous rounds. A RIB entry is a
// fixed-size record and its ECMP next hops a bitset over the device's
// usable neighbours, so neither a round nor the output allocates per entry:
// prefixes get dense ids, candidates accumulate in one reused array indexed
// by id, and RIBs are double-buffered (DESIGN.md §17).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "netmodel/network.hpp"
#include "packet/prefix.hpp"
#include "routing/config.hpp"

namespace yardstick::routing {

/// One RIB entry. Its ECMP next hops live in the owning SimRib.
struct SimRibEntry {
  packet::Ipv4Prefix prefix;
  net::DeviceId originator;
  /// Occurrences of each tier's ASN in the path (index = tier + 1).
  std::array<uint8_t, 6> asn_counts{};
  net::RouteKind kind = net::RouteKind::Other;
  uint8_t path_length = 0;
  bool originated = false;
};
static_assert(sizeof(SimRibEntry) <= 24);

/// A device's converged routing table, sorted by prefix key.
///
/// Entry i's ECMP next hops are a bitset over the device's usable
/// neighbour interfaces in ascending id order: bit b stands for the b-th
/// of them. A device with d usable neighbours gives each entry ceil(d / 64)
/// 64-bit words, with no cap. Round 1 reads raw origination lists, so a
/// neighbour that originates a prefix twice offers it twice and its
/// interface is listed twice; each such extra listing is one `Repeat`. No
/// later round can make one.
class SimRib {
 public:
  /// One extra listing of neighbour bit `bit` in entry `entry`'s next hops.
  struct Repeat {
    uint32_t entry = 0;
    uint32_t bit = 0;
    friend auto operator<=>(const Repeat&, const Repeat&) = default;
  };

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] const SimRibEntry& operator[](size_t i) const { return entries_[i]; }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  /// The device's usable neighbour interfaces, ascending: bit b of a
  /// next-hop set stands for the b-th.
  [[nodiscard]] std::span<const net::InterfaceId> neighbours() const { return neighbours_; }

  /// Appends entry `i`'s next hops to `out` in ascending interface order,
  /// a repeated one as often as it was offered. Allocates only if `out`
  /// grows.
  void append_next_hops(size_t i, std::vector<net::InterfaceId>& out) const;
  /// Entry `i`'s next hops as a fresh vector (tests and diagnostics).
  [[nodiscard]] std::vector<net::InterfaceId> next_hops(size_t i) const;

  /// Heap bytes held by this RIB's arrays.
  [[nodiscard]] size_t heap_bytes() const;

 private:
  friend class BgpSimulator;

  std::vector<SimRibEntry> entries_;
  std::vector<uint64_t> hops_;  // width_ words per entry
  std::vector<Repeat> repeats_;  // sorted
  std::vector<net::InterfaceId> neighbours_;  // bit -> interface
  uint32_t width_ = 0;
};

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
  [[nodiscard]] std::vector<SimRibEntry> originated_entries(const net::Device& dev) const;

  const net::Network& network_;
  RoutingConfig config_;
  int rounds_used_ = 0;
};

}  // namespace yardstick::routing
