// k-ary fat-tree generator (Al-Fares et al. [1]) used by the performance
// evaluation (§8): k pods of k/2 edge (ToR) and k/2 aggregation switches,
// (k/2)^2 cores, 5k^2/4 routers total. Each ToR hosts one prefix; routing
// runs as in §7.1 (eBGP, static northbound defaults, optional WAN
// attachment announcing the default route and wide-area prefixes).
#pragma once

#include <vector>

#include "netmodel/network.hpp"
#include "routing/config.hpp"

namespace yardstick::topo {

struct FatTreeParams {
  /// Fat-tree arity; must be even and >= 2. Router count is 5k^2/4.
  int k = 4;
  /// Attach one WAN router above the core layer that originates the
  /// default route and `wide_area_prefix_count` external prefixes.
  bool with_wan = true;
  int wide_area_prefix_count = 8;
  /// Give every router a loopback (/32) and a local port. Off by default
  /// for the §8 benchmarks, which only need hosted prefixes.
  bool with_loopbacks = false;
};

struct FatTree {
  net::Network network;
  routing::RoutingConfig routing;
  std::vector<net::DeviceId> tors;
  std::vector<net::DeviceId> aggs;
  std::vector<net::DeviceId> cores;
  net::DeviceId wan;  // invalid when with_wan == false
};

/// Build the topology and its routing configuration. Call
/// routing::FibBuilder::compute_and_build(tree.network, tree.routing)
/// afterwards to install the forwarding state.
[[nodiscard]] FatTree make_fat_tree(const FatTreeParams& params);

}  // namespace yardstick::topo
