#include "routing/bgp_sim.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "obs/trace.hpp"

namespace yardstick::routing {

using packet::Ipv4Prefix;

void SimRib::append_next_hops(size_t i, std::vector<net::InterfaceId>& out) const {
  auto repeat = std::lower_bound(repeats_.begin(), repeats_.end(),
                                 Repeat{static_cast<uint32_t>(i), 0});
  const uint64_t* words = hops_.data() + i * width_;
  for (uint32_t w = 0; w < width_; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      out.push_back(neighbours_[bit]);
      for (; repeat != repeats_.end() && repeat->entry == i && repeat->bit == bit; ++repeat) {
        out.push_back(neighbours_[bit]);
      }
    }
  }
}

std::vector<net::InterfaceId> SimRib::next_hops(size_t i) const {
  std::vector<net::InterfaceId> out;
  append_next_hops(i, out);
  return out;
}

size_t SimRib::heap_bytes() const {
  return entries_.capacity() * sizeof(SimRibEntry) + hops_.capacity() * sizeof(uint64_t) +
         repeats_.capacity() * sizeof(Repeat) +
         neighbours_.capacity() * sizeof(net::InterfaceId);
}

std::vector<SimRibEntry> BgpSimulator::originated_entries(const net::Device& dev) const {
  std::vector<SimRibEntry> out;
  out.reserve(dev.host_prefixes.size() + dev.loopbacks.size() + dev.tunnel_endpoints.size());
  const auto originate = [&](const Ipv4Prefix& p, net::RouteKind kind) {
    SimRibEntry e;
    e.prefix = p;
    e.kind = kind;
    e.path_length = 0;
    e.originated = true;
    e.originator = dev.id;
    out.push_back(e);
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

  std::sort(out.begin(), out.end(), [](const SimRibEntry& a, const SimRibEntry& b) {
    return prefix_key(a.prefix) < prefix_key(b.prefix);
  });
  return out;
}

namespace {

/// One device's RIB during the fixpoint: SimRib's arrays plus each entry's
/// dense prefix id.
struct Table {
  std::vector<SimRibEntry> entries;
  std::vector<uint32_t> ids;
  std::vector<uint64_t> hops;
  std::vector<SimRib::Repeat> repeats;
};

/// A usable neighbour as a round reads it: the peer, the bit of the
/// interface its offers arrive on, and the policy that depends only on the
/// pair.
struct Neighbour {
  uint32_t peer;
  uint32_t bit;
  int peer_tier_idx;
  /// The peer null-routes its static default, so it does not re-advertise
  /// a learned one (§2), or the device takes no default at all (§7.2).
  bool drop_default;
};

}  // namespace

std::vector<SimRib> BgpSimulator::run() {
  obs::Span span("routing.bgp", "routing");
  const size_t n = network_.device_count();

  // Every RIB entry descends from an origination, so the originated
  // prefixes, numbered in prefix_key order, index all per-prefix state.
  std::vector<Table> origin(n);
  std::vector<uint64_t> keys;
  for (const net::Device& dev : network_.devices()) {
    if (config_.failed_devices.contains(dev.id)) continue;
    origin[dev.id.value].entries = originated_entries(dev);
    for (const SimRibEntry& e : origin[dev.id.value].entries) keys.push_back(prefix_key(e.prefix));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (Table& o : origin) {
    o.ids.reserve(o.entries.size());
    for (const SimRibEntry& e : o.entries) {
      o.ids.push_back(static_cast<uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), prefix_key(e.prefix)) - keys.begin()));
    }
  }

  // Each device's usable neighbours, in `Network::neighbors` order: offers
  // are read in that order. Failed links and links to failed devices are
  // down, and failed devices have no working links. A neighbour's bit is
  // its interface's rank among the device's usable ones, so set bits read
  // in ascending interface order; the output keeps that list per device,
  // and the device's next-hop sets take one word per 64 of them.
  std::vector<SimRib> out(n);
  std::vector<std::vector<Neighbour>> nbrs(n);
  size_t widest = 0;
  for (const net::Device& dev : network_.devices()) {
    if (config_.failed_devices.contains(dev.id)) continue;
    const auto usable = [&](net::InterfaceId intf) {
      return network_.neighbor(intf).valid() && config_.link_usable(network_, intf);
    };
    SimRib& rib = out[dev.id.value];
    std::vector<net::InterfaceId>& order = rib.neighbours_;
    order.reserve(dev.interfaces.size());
    std::copy_if(dev.interfaces.begin(), dev.interfaces.end(), std::back_inserter(order),
                 usable);
    std::sort(order.begin(), order.end());
    rib.width_ = static_cast<uint32_t>((order.size() + 63) / 64);
    widest = std::max<size_t>(widest, rib.width_);
    const bool takes_no_default = config_.no_default_devices.contains(dev.id);
    std::vector<Neighbour>& mine = nbrs[dev.id.value];
    mine.reserve(order.size());
    for (const net::InterfaceId intf : dev.interfaces) {
      if (!usable(intf)) continue;
      const net::DeviceId peer = network_.neighbor(intf);
      mine.push_back({peer.value,
                      static_cast<uint32_t>(std::lower_bound(order.begin(), order.end(), intf) -
                                            order.begin()),
                      tier(network_.device(peer).role) + 1,
                      takes_no_default || config_.null_default_devices.contains(peer)});
    }
  }

  // Two tables per device: a round reads `ribs` and writes the devices it
  // recomputes into `next`, whose vectors keep their capacity; the two
  // swap after the round. Originations have no next hops.
  std::vector<Table> ribs(n);
  std::vector<Table> next(n);
  for (size_t v = 0; v < n; ++v) {
    ribs[v].entries = origin[v].entries;
    ribs[v].ids = origin[v].ids;
    ribs[v].hops.assign(origin[v].entries.size() * out[v].width_, 0);
  }

  // The best candidate and its next-hop words per prefix id, reused by
  // every device and round. `filled` marks the ids the current device has
  // filled, and emitting them in id order yields its RIB in prefix_key
  // order; `offered_again` holds the (id, bit) of each next hop offered
  // twice in one round.
  std::vector<SimRibEntry> best(keys.size());
  std::vector<uint64_t> best_hops(keys.size() * widest);
  std::vector<uint64_t> filled((keys.size() + 63) / 64, 0);
  std::vector<SimRib::Repeat> offered_again;
  std::vector<uint8_t> changed(n, 1);
  std::vector<uint8_t> next_changed(n, 0);
  std::vector<uint32_t> recomputed;
  const auto allow_as_in = static_cast<uint8_t>(config_.allow_as_in);
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
      for (const Neighbour& nb : nbrs[v]) {
        if (changed[nb.peer]) {
          neighbor_moved = true;
          break;
        }
      }
      if (!neighbor_moved) continue;
      const size_t width = out[v].width_;
      size_t count = 0;

      // Originations first: the first one of a duplicated prefix wins.
      for (size_t i = 0; i < origin[v].entries.size(); ++i) {
        const uint32_t id = origin[v].ids[i];
        uint64_t& flags = filled[id / 64];
        const uint64_t flag = uint64_t{1} << (id % 64);
        if (flags & flag) continue;
        flags |= flag;
        ++count;
        best[id] = origin[v].entries[i];
        std::fill_n(best_hops.begin() + id * width, width, 0);
      }

      // Offers in neighbor order, read in place from the peer's RIB: the
      // first shortest offer sets the entry, later equal ones add a next
      // hop. Policy is judged on the peer's entry: wide-area routes are
      // never advertised below the spine tier (§7.2), and allow-as-in
      // tolerates the local ASN up to the configured count, counted as if
      // the exporter had prepended its own (§7.1); beyond that the offer
      // is a loop.
      const int own_tier_idx = tier(dev.role) + 1;
      const bool confine_wide = config_.limit_wan_routes_to_upper_layers &&
                                tier(dev.role) < tier(net::Role::Spine);
      for (const Neighbour& nb : nbrs[v]) {
        const Table& in = ribs[nb.peer];
        const uint8_t prepended = own_tier_idx == nb.peer_tier_idx;
        const size_t word = nb.bit / 64;
        const uint64_t mask = uint64_t{1} << (nb.bit % 64);
        for (size_t i = 0; i < in.entries.size(); ++i) {
          const SimRibEntry& entry = in.entries[i];
          if (nb.drop_default && entry.prefix.length() == 0) continue;
          if (confine_wide && entry.kind == net::RouteKind::WideArea) continue;
          if (static_cast<uint8_t>(entry.asn_counts[static_cast<size_t>(own_tier_idx)] +
                                   prepended) > allow_as_in) {
            continue;
          }
          const auto path_length = static_cast<uint8_t>(entry.path_length + 1);
          const uint32_t id = in.ids[i];
          SimRibEntry& cur = best[id];
          const auto hops = best_hops.begin() + id * width;
          uint64_t& flags = filled[id / 64];
          const uint64_t flag = uint64_t{1} << (id % 64);
          if (flags & flag) {
            if (cur.originated || cur.path_length < path_length) continue;
            if (cur.path_length == path_length) {  // equal-cost multipath
              if (hops[word] & mask) offered_again.push_back({id, nb.bit});
              hops[word] |= mask;
              continue;
            }
            std::erase_if(offered_again,
                          [id](const SimRib::Repeat& r) { return r.entry == id; });
          } else {
            flags |= flag;
            ++count;
          }
          cur = entry;
          cur.path_length = path_length;
          cur.originated = false;
          ++cur.asn_counts[static_cast<size_t>(nb.peer_tier_idx)];
          std::fill_n(hops, width, 0);
          hops[word] = mask;
        }
      }

      // Emit in id (= prefix_key) order into the spare table, comparing
      // against the current RIB as we go: the same prefixes, kinds, path
      // lengths and next hops, repeats included.
      const Table& old = ribs[v];
      Table& fresh = next[v];
      fresh.entries.clear();
      fresh.entries.reserve(count);
      fresh.ids.clear();
      fresh.ids.reserve(count);
      fresh.hops.clear();
      fresh.hops.reserve(count * width);
      bool same = count == old.entries.size();
      for (size_t w = 0; w < filled.size(); ++w) {
        for (uint64_t flags = std::exchange(filled[w], 0); flags != 0; flags &= flags - 1) {
          const auto id = static_cast<uint32_t>(w * 64 + std::countr_zero(flags));
          const size_t i = fresh.entries.size();
          const SimRibEntry& e = best[id];
          const auto hops = best_hops.begin() + id * width;
          fresh.entries.push_back(e);
          fresh.ids.push_back(id);
          fresh.hops.insert(fresh.hops.end(), hops, hops + width);
          same = same && id == old.ids[i] && e.kind == old.entries[i].kind &&
                 e.path_length == old.entries[i].path_length &&
                 std::equal(hops, hops + width, old.hops.begin() + i * width);
        }
      }
      fresh.repeats.clear();
      for (const SimRib::Repeat& r : offered_again) {
        fresh.repeats.push_back(
            {static_cast<uint32_t>(std::lower_bound(fresh.ids.begin(), fresh.ids.end(), r.entry) -
                                   fresh.ids.begin()),
             r.bit});
      }
      offered_again.clear();
      std::sort(fresh.repeats.begin(), fresh.repeats.end());
      if (!same || fresh.repeats != old.repeats) {
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

  size_t entries = 0;
  size_t bytes = n * sizeof(SimRib);
  for (size_t v = 0; v < n; ++v) {
    out[v].entries_ = std::move(ribs[v].entries);
    out[v].hops_ = std::move(ribs[v].hops);
    out[v].repeats_ = std::move(ribs[v].repeats);
    entries += out[v].size();
    bytes += out[v].heap_bytes();
  }
  span.arg("devices", n);
  span.arg("prefixes", keys.size());
  span.arg("rib_entries", entries);
  span.arg("rib_bytes", bytes);
  span.arg("rounds", static_cast<uint64_t>(rounds_used_));
  return out;
}

}  // namespace yardstick::routing
