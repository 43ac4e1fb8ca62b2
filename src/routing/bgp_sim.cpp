#include "routing/bgp_sim.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace yardstick::routing {

using packet::Ipv4Prefix;

SimRib BgpSimulator::originated_entries(const net::Device& dev) const {
  SimRib out;
  const auto originate = [&](const Ipv4Prefix& p, net::RouteKind kind) {
    SimRibEntry e;
    e.prefix = p;
    e.prefix_key = prefix_key(p);
    e.kind = kind;
    e.path_length = 0;
    e.originated = true;
    e.originator = dev.id;
    out.push_back(std::move(e));
  };

  for (const Ipv4Prefix& p : dev.host_prefixes) originate(p, net::RouteKind::Internal);
  for (const Ipv4Prefix& p : dev.loopbacks) originate(p, net::RouteKind::Internal);
  for (const Ipv4Prefix& p : dev.tunnel_endpoints) originate(p, net::RouteKind::Internal);

  if (dev.role == net::Role::Wan) {
    if (config_.wan_originates_default) {
      originate(packet::default_route_prefix(), net::RouteKind::Default);
    }
    const auto it = config_.wide_area_prefixes.find(dev.id);
    if (it != config_.wide_area_prefixes.end()) {
      for (const Ipv4Prefix& p : it->second) originate(p, net::RouteKind::WideArea);
    }
  }

  std::sort(out.begin(), out.end(),
            [](const SimRibEntry& a, const SimRibEntry& b) {
              return a.prefix_key < b.prefix_key;
            });
  return out;
}

bool BgpSimulator::export_allowed(const SimRibEntry& entry, const net::Device& exporter,
                                  const net::Device& receiver) const {
  // A null-routed static default suppresses re-advertising the default —
  // the §2 misconfiguration that disconnects the data center when its
  // sibling border fails.
  if (entry.prefix.length() == 0 && config_.null_default_devices.contains(exporter.id)) {
    return false;
  }
  // Wide-area routes stay in the upper layers (§7.2): never advertised to
  // a device below the spine tier.
  if (config_.limit_wan_routes_to_upper_layers && entry.kind == net::RouteKind::WideArea &&
      tier(receiver.role) < tier(net::Role::Spine)) {
    return false;
  }
  return true;
}

bool BgpSimulator::import_allowed(const SimRibEntry& entry, int exporter_tier_idx,
                                  const net::Device& receiver) const {
  // Hubs holding full wide-area tables run without any default route.
  if (entry.prefix.length() == 0 && config_.no_default_devices.contains(receiver.id)) {
    return false;
  }
  // allow-as-in: tolerate the local ASN in the path up to the configured
  // count (§7.1); beyond that the advert is treated as a loop. The count is
  // the one after the exporter prepends its ASN.
  const int idx = tier(receiver.role) + 1;
  uint8_t count = entry.asn_counts[static_cast<size_t>(idx)];
  if (idx == exporter_tier_idx) ++count;
  return count <= static_cast<uint8_t>(config_.allow_as_in);
}

namespace {

/// One device's RIB during the fixpoint, with each entry's dense prefix id.
struct RibBuffer {
  SimRib entries;
  std::vector<uint32_t> ids;
};

/// Overwrite `slot` with `entry` as received over `intf` from an exporter
/// of tier index `exporter_tier_idx`, which prepended its ASN. Reuses the
/// slot's next-hop storage.
void adopt(SimRibEntry& slot, const SimRibEntry& entry, uint8_t path_length,
           int exporter_tier_idx, net::InterfaceId intf) {
  slot.prefix_key = entry.prefix_key;
  slot.prefix = entry.prefix;
  slot.kind = entry.kind;
  slot.path_length = path_length;
  slot.originated = false;
  slot.asn_counts = entry.asn_counts;
  ++slot.asn_counts[static_cast<size_t>(exporter_tier_idx)];
  slot.originator = entry.originator;
  slot.next_hops.assign(1, intf);
}

}  // namespace

std::vector<SimRib> BgpSimulator::run() {
  obs::Span span("routing.bgp", "routing");
  const size_t n = network_.device_count();

  // Every RIB entry descends from an origination, so the originated
  // prefixes, numbered in prefix_key order, index all per-prefix state.
  std::vector<RibBuffer> origin(n);
  std::vector<uint64_t> keys;
  for (const net::Device& dev : network_.devices()) {
    if (config_.failed_devices.contains(dev.id)) continue;
    origin[dev.id.value].entries = originated_entries(dev);
    for (const SimRibEntry& e : origin[dev.id.value].entries) keys.push_back(e.prefix_key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (RibBuffer& o : origin) {
    for (const SimRibEntry& e : o.entries) {
      o.ids.push_back(static_cast<uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), e.prefix_key) - keys.begin()));
    }
  }

  // Two RIB buffers per device: a round reads `ribs` and writes the devices
  // it recomputes into `next`, whose vectors keep their capacity; the two
  // swap after the round.
  std::vector<RibBuffer> ribs = origin;
  std::vector<RibBuffer> next(n);

  // Cache each device's neighbor list once; failed links and links to
  // failed devices are down, and failed devices have no working links.
  std::vector<std::vector<std::pair<net::InterfaceId, net::DeviceId>>> nbrs(n);
  for (const net::Device& dev : network_.devices()) {
    if (config_.failed_devices.contains(dev.id)) continue;
    for (const auto& [intf, peer] : network_.neighbors(dev.id)) {
      if (config_.link_usable(network_, intf)) {
        nbrs[dev.id.value].emplace_back(intf, peer);
      }
    }
  }

  // The best candidate per prefix id, reused by every device and round;
  // `touched` lists the ids the current device has filled.
  std::vector<SimRibEntry> best(keys.size());
  std::vector<uint8_t> filled(keys.size(), 0);
  std::vector<uint32_t> touched;
  std::vector<uint8_t> changed(n, 1);
  std::vector<uint8_t> next_changed(n, 0);
  std::vector<uint32_t> recomputed;
  rounds_used_ = 0;

  for (int round = 0; round < config_.max_rounds; ++round) {
    ++rounds_used_;
    bool any_change = false;
    recomputed.clear();
    std::fill(next_changed.begin(), next_changed.end(), 0);

    for (const net::Device& dev : network_.devices()) {
      const uint32_t v = dev.id.value;
      // Skip recomputation when no neighbor's RIB moved last round.
      bool neighbor_moved = false;
      for (const auto& [intf, peer] : nbrs[v]) {
        if (changed[peer.value]) {
          neighbor_moved = true;
          break;
        }
      }
      if (!neighbor_moved) continue;

      // Originations first: the first one of a duplicated prefix wins.
      touched.clear();
      for (size_t i = 0; i < origin[v].entries.size(); ++i) {
        const uint32_t id = origin[v].ids[i];
        if (filled[id]) continue;
        filled[id] = 1;
        touched.push_back(id);
        best[id] = origin[v].entries[i];
      }

      // Offers in neighbor order, read in place from the peer's RIB: the
      // first shortest offer sets the entry, later equal ones add a next hop.
      for (const auto& [intf, peer] : nbrs[v]) {
        const net::Device& peer_dev = network_.device(peer);
        const int peer_tier_idx = tier(peer_dev.role) + 1;
        const RibBuffer& in = ribs[peer.value];
        for (size_t i = 0; i < in.entries.size(); ++i) {
          const SimRibEntry& entry = in.entries[i];
          if (!export_allowed(entry, peer_dev, dev)) continue;
          if (!import_allowed(entry, peer_tier_idx, dev)) continue;
          const auto path_length = static_cast<uint8_t>(entry.path_length + 1);
          const uint32_t id = in.ids[i];
          SimRibEntry& cur = best[id];
          if (!filled[id]) {
            filled[id] = 1;
            touched.push_back(id);
            adopt(cur, entry, path_length, peer_tier_idx, intf);
          } else if (cur.originated || cur.path_length < path_length) {
            continue;
          } else if (path_length < cur.path_length) {
            adopt(cur, entry, path_length, peer_tier_idx, intf);
          } else {
            cur.next_hops.push_back(intf);  // equal-cost multipath
          }
        }
      }

      // Emit in id (= prefix_key) order into the spare buffer, comparing
      // against the current RIB as we go.
      std::sort(touched.begin(), touched.end());
      const SimRib& old = ribs[v].entries;
      RibBuffer& fresh = next[v];
      fresh.entries.resize(touched.size());
      fresh.ids.assign(touched.begin(), touched.end());
      bool same = touched.size() == old.size();
      for (size_t i = 0; i < touched.size(); ++i) {
        SimRibEntry& e = best[touched[i]];
        filled[touched[i]] = 0;
        // ECMP next-hop order must be deterministic for fixpoint comparison.
        std::sort(e.next_hops.begin(), e.next_hops.end());
        fresh.entries[i] = e;
        same = same && e.same_selection(old[i]);
      }
      if (!same) {
        any_change = true;
        next_changed[v] = 1;
      }
      recomputed.push_back(v);
    }

    // A recomputed RIB replaces the old one even when it selects the same
    // routes: its path attributes may differ.
    for (const uint32_t v : recomputed) std::swap(ribs[v], next[v]);
    changed.swap(next_changed);
    if (!any_change) break;
  }

  std::vector<SimRib> out(n);
  size_t entries = 0;
  for (size_t v = 0; v < n; ++v) {
    out[v] = std::move(ribs[v].entries);
    entries += out[v].size();
  }
  span.arg("devices", n);
  span.arg("prefixes", keys.size());
  span.arg("rib_entries", entries);
  span.arg("rounds", static_cast<uint64_t>(rounds_used_));
  return out;
}

}  // namespace yardstick::routing
