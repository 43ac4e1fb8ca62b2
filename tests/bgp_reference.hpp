// Reference BGP fixpoint for differential tests: BgpSimulator::run as it was
// before its data layout changed (DESIGN.md §17). Every round builds a hash
// map of candidates per device, deep-copies each advertisement and every
// unchanged RIB, and sorts the fresh entries. It keeps its own entry type,
// the one the library had before next hops became a bitset: every entry owns
// a sorted vector of next hops. Slow on purpose and kept verbatim in its
// semantics; the library's fixpoint must match it field for field, next hops
// and round count included.
#pragma once

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "routing/bgp_sim.hpp"

namespace yardstick::routing::reference {

/// A RIB entry with its next hops in a heap vector.
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

/// A device's routing table, sorted by prefix key.
using SimRib = std::vector<SimRibEntry>;

struct Fixpoint {
  std::vector<SimRib> ribs;
  int rounds_used = 0;
};

inline SimRib originated_entries(const net::Device& dev, const RoutingConfig& config) {
  SimRib out;
  const auto originate = [&](const packet::Ipv4Prefix& p, net::RouteKind kind) {
    SimRibEntry e;
    e.prefix = p;
    e.prefix_key = prefix_key(p);
    e.kind = kind;
    e.path_length = 0;
    e.originated = true;
    e.originator = dev.id;
    out.push_back(std::move(e));
  };

  for (const packet::Ipv4Prefix& p : dev.host_prefixes) originate(p, net::RouteKind::Internal);
  for (const packet::Ipv4Prefix& p : dev.loopbacks) originate(p, net::RouteKind::Internal);
  for (const packet::Ipv4Prefix& p : dev.tunnel_endpoints) {
    originate(p, net::RouteKind::Internal);
  }

  if (dev.role == net::Role::Wan) {
    if (config.wan_originates_default) {
      originate(packet::default_route_prefix(), net::RouteKind::Default);
    }
    const auto it = config.wide_area_prefixes.find(dev.id);
    if (it != config.wide_area_prefixes.end()) {
      for (const packet::Ipv4Prefix& p : it->second) originate(p, net::RouteKind::WideArea);
    }
  }

  std::sort(out.begin(), out.end(), [](const SimRibEntry& a, const SimRibEntry& b) {
    return a.prefix_key < b.prefix_key;
  });
  return out;
}

inline bool export_allowed(const SimRibEntry& entry, const net::Device& exporter,
                           const net::Device& receiver, const RoutingConfig& config) {
  if (entry.prefix.length() == 0 && config.null_default_devices.contains(exporter.id)) {
    return false;
  }
  if (config.limit_wan_routes_to_upper_layers && entry.kind == net::RouteKind::WideArea &&
      tier(receiver.role) < tier(net::Role::Spine)) {
    return false;
  }
  return true;
}

inline bool import_allowed(const SimRibEntry& advert, const net::Device& receiver,
                           const RoutingConfig& config) {
  if (advert.prefix.length() == 0 && config.no_default_devices.contains(receiver.id)) {
    return false;
  }
  const int idx = tier(receiver.role) + 1;
  return advert.asn_counts[static_cast<size_t>(idx)] <=
         static_cast<uint8_t>(config.allow_as_in);
}

inline Fixpoint run(const net::Network& network, const RoutingConfig& config) {
  const size_t n = network.device_count();
  Fixpoint out;
  std::vector<SimRib>& ribs = out.ribs;
  ribs.resize(n);
  std::vector<SimRib> origin(n);
  for (const net::Device& dev : network.devices()) {
    if (config.failed_devices.contains(dev.id)) continue;
    origin[dev.id.value] = originated_entries(dev, config);
    ribs[dev.id.value] = origin[dev.id.value];
  }

  std::vector<std::vector<std::pair<net::InterfaceId, net::DeviceId>>> nbrs(n);
  for (const net::Device& dev : network.devices()) {
    if (config.failed_devices.contains(dev.id)) continue;
    for (const auto& [intf, peer] : network.neighbors(dev.id)) {
      if (config.link_usable(network, intf)) nbrs[dev.id.value].emplace_back(intf, peer);
    }
  }

  std::vector<bool> changed(n, true);
  for (int round = 0; round < config.max_rounds; ++round) {
    ++out.rounds_used;
    bool any_change = false;
    std::vector<SimRib> next(n);
    std::vector<bool> next_changed(n, false);

    for (const net::Device& dev : network.devices()) {
      const uint32_t v = dev.id.value;
      bool neighbor_moved = false;
      for (const auto& [intf, peer] : nbrs[v]) {
        if (changed[peer.value]) {
          neighbor_moved = true;
          break;
        }
      }
      if (!neighbor_moved) {
        next[v] = ribs[v];
        continue;
      }

      std::unordered_map<uint64_t, SimRibEntry> best;
      best.reserve(ribs[v].size() + 16);
      for (const SimRibEntry& e : origin[v]) best.emplace(e.prefix_key, e);

      for (const auto& [intf, peer] : nbrs[v]) {
        const net::Device& peer_dev = network.device(peer);
        const int peer_tier_idx = tier(peer_dev.role) + 1;
        for (const SimRibEntry& entry : ribs[peer.value]) {
          if (!export_allowed(entry, peer_dev, dev, config)) continue;
          SimRibEntry advert = entry;
          advert.path_length = static_cast<uint8_t>(entry.path_length + 1);
          advert.asn_counts[static_cast<size_t>(peer_tier_idx)] =
              static_cast<uint8_t>(advert.asn_counts[static_cast<size_t>(peer_tier_idx)] + 1);
          if (!import_allowed(advert, dev, config)) continue;

          auto [it, inserted] = best.try_emplace(advert.prefix_key, advert);
          if (inserted) {
            it->second.next_hops = {intf};
            it->second.originated = false;
            continue;
          }
          SimRibEntry& cur = it->second;
          if (cur.originated || cur.path_length < advert.path_length) continue;
          if (advert.path_length < cur.path_length) {
            advert.next_hops = {intf};
            advert.originated = false;
            cur = advert;
          } else {
            cur.next_hops.push_back(intf);
          }
        }
      }

      SimRib fresh;
      fresh.reserve(best.size());
      for (auto& [key, entry] : best) fresh.push_back(std::move(entry));
      std::sort(fresh.begin(), fresh.end(), [](const SimRibEntry& a, const SimRibEntry& b) {
        return a.prefix_key < b.prefix_key;
      });
      for (SimRibEntry& e : fresh) std::sort(e.next_hops.begin(), e.next_hops.end());

      const bool same = fresh.size() == ribs[v].size() &&
                        std::equal(fresh.begin(), fresh.end(), ribs[v].begin(),
                                   [](const SimRibEntry& a, const SimRibEntry& b) {
                                     return a.same_selection(b);
                                   });
      if (!same) {
        any_change = true;
        next_changed[v] = true;
      }
      next[v] = std::move(fresh);
    }

    ribs = std::move(next);
    changed = std::move(next_changed);
    if (!any_change) break;
  }
  return out;
}

}  // namespace yardstick::routing::reference
