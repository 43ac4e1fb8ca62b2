#include "routing/fib_builder.hpp"

#include <algorithm>
#include <tuple>

#include "obs/trace.hpp"

namespace yardstick::routing {

using net::ActionType;
using net::InterfaceId;
using net::RouteKind;
using packet::Ipv4Prefix;

namespace {

constexpr uint32_t kNoRibEntry = UINT32_MAX;

/// Candidate FIB entry before administrative-distance deduplication. Its
/// interfaces point into the device or a port list of the device being
/// installed, or it names the RIB entry whose next hops it forwards to,
/// so an offer owns no heap memory.
struct Candidate {
  Ipv4Prefix prefix;
  RouteKind kind;
  ActionType type;
  int admin_distance;
  std::span<const InterfaceId> out;
  uint32_t rib_entry = kNoRibEntry;
};

/// Offer ranking key: (length descending, prefix key, distance, arrival).
struct Rank {
  uint64_t order;  // (32 - length) << 38 | prefix_key: one key per prefix
  int admin_distance;
  uint32_t offer;
};

/// Per-build buffers, reused by every device, so the install allocates per
/// device at most, never per rule.
struct Scratch {
  std::vector<Candidate> offers;
  std::vector<Rank> ranks;
  std::vector<InterfaceId> next_hops;  // the installed RIB entry's
};

constexpr int kAdConnected = 0;
constexpr int kAdStatic = 1;
constexpr int kAdEbgp = 20;

/// An upper bound on the rules build() installs on `dev`: one per
/// connected link, loopback, hosted subnet and RIB entry, plus the default.
size_t rule_bound(const net::Device& dev, const SimRib& rib) {
  return dev.interfaces.size() + dev.loopbacks.size() + dev.host_prefixes.size() +
         rib.size() + 1;
}

void install_device(net::Network& network, const net::Device& dev, const SimRib& rib,
                    const RoutingConfig& config, Scratch& scratch) {
  // Every offer in arrival order. A prefix's rule is its earliest offer of
  // the lowest administrative distance.
  std::vector<Candidate>& offers = scratch.offers;
  offers.clear();
  const auto forward = [&](const Ipv4Prefix& prefix, RouteKind kind,
                           std::span<const InterfaceId> out, int distance) {
    offers.push_back({prefix, kind, ActionType::Forward, distance, out});
  };

  const auto link_up = [&](InterfaceId iid) { return config.link_usable(network, iid); };

  // Connected routes: the /31 of every addressed fabric link (§7.1; these
  // are never redistributed into eBGP). Links to failed devices are down.
  for (const InterfaceId& iid : dev.interfaces) {
    const net::Interface& intf = network.interface(iid);
    if (!intf.address || !link_up(iid)) continue;
    forward(Ipv4Prefix(intf.address->address(), 31), RouteKind::Connected, {&iid, 1},
            kAdConnected);
  }

  // Own loopbacks terminate at the device's local port.
  const std::vector<InterfaceId> local_ports =
      network.ports_of_kind(dev.id, net::PortKind::LocalPort);
  if (!local_ports.empty()) {
    for (const Ipv4Prefix& p : dev.loopbacks) {
      forward(p, RouteKind::Internal, local_ports, kAdConnected);
    }
  }

  // Hosted subnets exit through the ToR's host-facing ports — one port per
  // subnet when the counts line up, otherwise ECMP across all of them.
  const std::vector<InterfaceId> host_ports =
      network.ports_of_kind(dev.id, net::PortKind::HostPort);
  if (!host_ports.empty()) {
    const bool one_to_one = host_ports.size() == dev.host_prefixes.size();
    for (size_t i = 0; i < dev.host_prefixes.size(); ++i) {
      forward(dev.host_prefixes[i], RouteKind::Internal,
              one_to_one ? std::span<const InterfaceId>(&host_ports[i], 1)
                         : std::span<const InterfaceId>(host_ports),
              kAdConnected);
    }
  }

  // WAN devices send their originated default/wide-area traffic out the
  // external attachment (the un-modeled backbone).
  const std::vector<InterfaceId> external_ports =
      network.ports_of_kind(dev.id, net::PortKind::ExternalPort);

  // Fail-safe static default route pointing at all northern neighbors
  // (§7.1) — or a null route on misconfigured devices (§2). A null-routed
  // static default is device-local configuration, so it is installed even
  // when the fleet-wide static default policy is off.
  std::vector<InterfaceId> northern;
  if (config.null_default_devices.contains(dev.id)) {
    offers.push_back({packet::default_route_prefix(), RouteKind::Default, ActionType::Drop,
                      kAdStatic, {}});
  } else if (config.static_northbound_default && dev.role != net::Role::Wan &&
             !config.no_default_devices.contains(dev.id)) {
    for (const auto& [intf, peer] : network.neighbors(dev.id)) {
      if (!config.link_usable(network, intf)) continue;
      if (tier(network.device(peer).role) > tier(dev.role)) northern.push_back(intf);
    }
    if (!northern.empty()) {
      forward(packet::default_route_prefix(), RouteKind::Default, northern, kAdStatic);
    }
  }

  // BGP-learned routes; locally originated WAN routes exit externally. A
  // learned entry always has a next hop.
  for (uint32_t i = 0; i < rib.size(); ++i) {
    const SimRibEntry& e = rib[i];
    if (e.originated) {
      const bool wan_originated =
          e.kind == RouteKind::Default || e.kind == RouteKind::WideArea;
      if (wan_originated && !external_ports.empty()) {
        forward(e.prefix, e.kind, external_ports, kAdConnected);
      }
      // Internal originations (loopbacks / host subnets) were installed above.
      continue;
    }
    offers.push_back({e.prefix, e.kind, ActionType::Forward, kAdEbgp, {}, i});
  }

  // Emit in longest-prefix-first order: priority = 32 - length, so the
  // ordered table realizes LPM under first-match semantics. Offers are
  // sorted by (length descending, prefix key, distance, arrival) through a
  // compact index; the first of each prefix wins, and the table is
  // appended in priority order.
  std::vector<Rank>& ranks = scratch.ranks;
  ranks.clear();
  for (uint32_t i = 0; i < offers.size(); ++i) {
    const Ipv4Prefix& p = offers[i].prefix;
    ranks.push_back({(uint64_t{32u - p.length()} << 38) | prefix_key(p),
                     offers[i].admin_distance, i});
  }
  std::sort(ranks.begin(), ranks.end(), [](const Rank& a, const Rank& b) {
    return std::tie(a.order, a.admin_distance, a.offer) <
           std::tie(b.order, b.admin_distance, b.offer);
  });
  size_t winners = 0;
  for (size_t i = 0; i < ranks.size(); ++i) {
    winners += i == 0 || ranks[i].order != ranks[i - 1].order;
  }
  network.reserve_table(dev.id, net::TableKind::Fib, winners);
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0 && ranks[i].order == ranks[i - 1].order) continue;
    const Candidate& c = offers[ranks[i].offer];
    std::span<const InterfaceId> out = c.out;
    if (c.rib_entry != kNoRibEntry) {
      scratch.next_hops.clear();
      rib.append_next_hops(c.rib_entry, scratch.next_hops);
      out = scratch.next_hops;
    }
    network.add_fib_rule(dev.id, c.prefix, c.type, out, c.kind, 32u - c.prefix.length());
  }
}

}  // namespace

void FibBuilder::build(net::Network& network, const std::vector<SimRib>& ribs,
                       const RoutingConfig& config) {
  obs::Span span("routing.fib", "routing");
  network.clear_rules();
  size_t bound = 0;
  size_t degree = 0;
  for (const net::Device& dev : network.devices()) {
    if (config.failed_devices.contains(dev.id)) continue;
    bound += rule_bound(dev, ribs[dev.id.value]);
    degree = std::max(degree, ribs[dev.id.value].neighbours().size());
  }
  network.reserve_rules(bound);
  Scratch scratch;
  scratch.next_hops.reserve(degree);
  for (const net::Device& dev : network.devices()) {
    if (config.failed_devices.contains(dev.id)) continue;  // empty FIB
    install_device(network, dev, ribs[dev.id.value], config, scratch);
  }
  span.arg("rules", network.rule_count());
  span.arg("groups", network.group_count());
}
std::vector<SimRib> FibBuilder::compute_and_build(net::Network& network,
                                                  const RoutingConfig& config) {
  BgpSimulator sim(network, config);
  std::vector<SimRib> ribs = sim.run();
  build(network, ribs, config);
  return ribs;
}

}  // namespace yardstick::routing
