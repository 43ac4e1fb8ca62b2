// Shortest-path forwarding contracts.
//
// The §7.3 InternalRouteCheck (and the RCDC-style local tests) decompose
// "internal destinations are routed along all topological shortest paths"
// into per-device contracts: a device d hops from the originator must
// forward the prefix to exactly its neighbors at distance d-1. This header
// provides the BFS machinery shared by those tests.
#pragma once

#include <span>
#include <vector>

#include "netmodel/network.hpp"

namespace yardstick::nettest {

inline constexpr int kUnreachable = -1;

/// BFS hop distances over links (host/local/external ports have no peer,
/// so they carry no fabric traffic) from one origin at a time, and the
/// local contract's next-hop tests against them. The constructor copies the
/// adjacency into one flat array and sizes every buffer, so from() and the
/// tests allocate nothing: build one per test run.
class FabricDistances {
 public:
  explicit FabricDistances(const net::Network& network);

  /// Recompute the distances from `origin`, replacing the previous ones.
  void from(net::DeviceId origin);

  /// Hops from the current origin to `device`; kUnreachable without a path.
  [[nodiscard]] int operator[](net::DeviceId device) const { return dist_[device.value]; }

  /// True when `out` is an interface of `device` that faces a neighbor one
  /// hop closer to the origin. False at the origin and at unreachable
  /// devices.
  [[nodiscard]] bool toward_origin(net::DeviceId device, net::InterfaceId out) const;

  /// The local contract: `outs` lists every interface of `device` that
  /// faces a neighbor one hop closer to the origin, each exactly once, in
  /// any order. A repeated interface fails, as in a sorted-multiset
  /// comparison.
  [[nodiscard]] bool is_contract_next_hops(net::DeviceId device,
                                           std::span<const net::InterfaceId> outs) const;

 private:
  const net::Network& network_;
  /// Device v's link peers are peers_[offsets_[v], offsets_[v + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<net::DeviceId> peers_;
  std::vector<int> dist_;
  std::vector<net::DeviceId> queue_;
};

}  // namespace yardstick::nettest
