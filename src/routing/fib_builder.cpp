#include "routing/fib_builder.hpp"

#include <algorithm>
#include <tuple>

#include "obs/trace.hpp"

namespace yardstick::routing {

using net::Action;
using net::ActionType;
using net::MatchSpec;
using net::RouteKind;
using packet::Ipv4Prefix;

namespace {

/// Candidate FIB entry before administrative-distance deduplication.
struct Candidate {
  Ipv4Prefix prefix;
  RouteKind kind;
  Action action;
  int admin_distance;
};

constexpr int kAdConnected = 0;
constexpr int kAdStatic = 1;
constexpr int kAdEbgp = 20;

void install_device(net::Network& network, const net::Device& dev, const SimRib& rib,
                    const RoutingConfig& config) {
  // Every offer in arrival order. A prefix's rule is its earliest offer of
  // the lowest administrative distance.
  std::vector<Candidate> offers;
  const auto offer = [&](Candidate&& c) { offers.push_back(std::move(c)); };

  const auto link_up = [&](net::InterfaceId iid) { return config.link_usable(network, iid); };

  // Connected routes: the /31 of every addressed fabric link (§7.1; these
  // are never redistributed into eBGP). Links to failed devices are down.
  for (const net::InterfaceId iid : dev.interfaces) {
    const net::Interface& intf = network.interface(iid);
    if (!intf.address || !link_up(iid)) continue;
    offer({Ipv4Prefix(intf.address->address(), 31), RouteKind::Connected,
           Action::forward({iid}), kAdConnected});
  }

  // Own loopbacks terminate at the device's local port.
  const std::vector<net::InterfaceId> local_ports =
      network.ports_of_kind(dev.id, net::PortKind::LocalPort);
  if (!local_ports.empty()) {
    for (const Ipv4Prefix& p : dev.loopbacks) {
      offer({p, RouteKind::Internal, Action::forward(local_ports), kAdConnected});
    }
  }

  // Hosted subnets exit through the ToR's host-facing ports — one port per
  // subnet when the counts line up, otherwise ECMP across all of them.
  const std::vector<net::InterfaceId> host_ports =
      network.ports_of_kind(dev.id, net::PortKind::HostPort);
  if (!host_ports.empty()) {
    const bool one_to_one = host_ports.size() == dev.host_prefixes.size();
    for (size_t i = 0; i < dev.host_prefixes.size(); ++i) {
      offer({dev.host_prefixes[i], RouteKind::Internal,
             Action::forward(one_to_one ? std::vector<net::InterfaceId>{host_ports[i]}
                                        : host_ports),
             kAdConnected});
    }
  }

  // WAN devices send their originated default/wide-area traffic out the
  // external attachment (the un-modeled backbone).
  const std::vector<net::InterfaceId> external_ports =
      network.ports_of_kind(dev.id, net::PortKind::ExternalPort);

  // Fail-safe static default route pointing at all northern neighbors
  // (§7.1) — or a null route on misconfigured devices (§2). A null-routed
  // static default is device-local configuration, so it is installed even
  // when the fleet-wide static default policy is off.
  if (config.null_default_devices.contains(dev.id)) {
    offer({packet::default_route_prefix(), RouteKind::Default, Action::drop(),
           kAdStatic});
  } else if (config.static_northbound_default && dev.role != net::Role::Wan &&
             !config.no_default_devices.contains(dev.id)) {
    {
      std::vector<net::InterfaceId> northern;
      for (const auto& [intf, peer] : network.neighbors(dev.id)) {
        if (!config.link_usable(network, intf)) continue;
        if (tier(network.device(peer).role) > tier(dev.role)) northern.push_back(intf);
      }
      if (!northern.empty()) {
        offer({packet::default_route_prefix(), RouteKind::Default,
               Action::forward(std::move(northern)), kAdStatic});
      }
    }
  }

  // BGP-learned routes; locally originated WAN routes exit externally.
  for (const SimRibEntry& e : rib) {
    if (e.originated) {
      const bool wan_originated =
          e.kind == RouteKind::Default || e.kind == RouteKind::WideArea;
      if (wan_originated && !external_ports.empty()) {
        offer({e.prefix, e.kind, Action::forward(external_ports), kAdConnected});
      }
      // Internal originations (loopbacks / host subnets) were installed above.
      continue;
    }
    if (e.next_hops.empty()) continue;
    offer({e.prefix, e.kind, Action::forward(e.next_hops), kAdEbgp});
  }

  // Emit in longest-prefix-first order: priority = 32 - length, so the
  // ordered table realizes LPM under first-match semantics. Offers are
  // sorted by (length descending, prefix key, distance, arrival) through a
  // compact index; the first of each prefix wins.
  struct Rank {
    uint64_t order;  // (32 - length) << 38 | prefix_key: one key per prefix
    int admin_distance;
    uint32_t offer;
  };
  std::vector<Rank> ranks;
  ranks.reserve(offers.size());
  for (uint32_t i = 0; i < offers.size(); ++i) {
    const Ipv4Prefix& p = offers[i].prefix;
    ranks.push_back({(uint64_t{32u - p.length()} << 38) | prefix_key(p),
                     offers[i].admin_distance, i});
  }
  std::sort(ranks.begin(), ranks.end(), [](const Rank& a, const Rank& b) {
    return std::tie(a.order, a.admin_distance, a.offer) <
           std::tie(b.order, b.admin_distance, b.offer);
  });
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0 && ranks[i].order == ranks[i - 1].order) continue;
    Candidate& c = offers[ranks[i].offer];
    network.add_rule(dev.id, MatchSpec::for_dst(c.prefix), std::move(c.action), c.kind,
                     32u - c.prefix.length());
  }
}

}  // namespace

void FibBuilder::build(net::Network& network, const std::vector<SimRib>& ribs,
                       const RoutingConfig& config) {
  obs::Span span("routing.fib", "routing");
  network.clear_rules();
  for (const net::Device& dev : network.devices()) {
    if (config.failed_devices.contains(dev.id)) continue;  // empty FIB
    install_device(network, dev, ribs[dev.id.value], config);
  }
  span.arg("rules", network.rule_count());
}

std::vector<SimRib> FibBuilder::compute_and_build(net::Network& network,
                                                  const RoutingConfig& config) {
  BgpSimulator sim(network, config);
  std::vector<SimRib> ribs = sim.run();
  build(network, ribs, config);
  return ribs;
}

}  // namespace yardstick::routing
