// Reference FIB install for differential tests: the per-device install the
// FIB builder ran before rules became fixed records with interned next-hop
// groups (DESIGN.md §21). Slow on purpose and kept verbatim in its
// semantics: every offer owns an Action with its own interface vector, and
// a device's rules come out as (MatchSpec, Action, kind, priority) values
// in install order. FibBuilder::build must install the same rules, with
// the same ids, in the same table positions.
#pragma once

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "netmodel/network.hpp"
#include "routing/bgp_sim.hpp"
#include "routing/config.hpp"

namespace yardstick::routing::reference {

/// One rule as a FIB install adds it.
struct FibRule {
  net::MatchSpec match;
  net::Action action;
  net::RouteKind kind = net::RouteKind::Other;
  uint32_t priority = 0;
};

/// The rules FibBuilder::build installs on `dev`, in install order.
inline std::vector<FibRule> install_device(const net::Network& network, const net::Device& dev,
                                           const SimRib& rib, const RoutingConfig& config) {
  using net::Action;
  using net::RouteKind;
  using packet::Ipv4Prefix;
  struct Candidate {
    Ipv4Prefix prefix;
    RouteKind kind;
    Action action;
    int admin_distance;
  };
  constexpr int kAdConnected = 0;
  constexpr int kAdStatic = 1;
  constexpr int kAdEbgp = 20;

  std::vector<Candidate> offers;
  const auto offer = [&](Candidate&& c) { offers.push_back(std::move(c)); };
  const auto link_up = [&](net::InterfaceId iid) { return config.link_usable(network, iid); };

  for (const net::InterfaceId iid : dev.interfaces) {
    const net::Interface& intf = network.interface(iid);
    if (!intf.address || !link_up(iid)) continue;
    offer({Ipv4Prefix(intf.address->address(), 31), RouteKind::Connected,
           Action::forward({iid}), kAdConnected});
  }
  const std::vector<net::InterfaceId> local_ports =
      network.ports_of_kind(dev.id, net::PortKind::LocalPort);
  if (!local_ports.empty()) {
    for (const Ipv4Prefix& p : dev.loopbacks) {
      offer({p, RouteKind::Internal, Action::forward(local_ports), kAdConnected});
    }
  }
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
  const std::vector<net::InterfaceId> external_ports =
      network.ports_of_kind(dev.id, net::PortKind::ExternalPort);
  if (config.null_default_devices.contains(dev.id)) {
    offer({packet::default_route_prefix(), RouteKind::Default, Action::drop(), kAdStatic});
  } else if (config.static_northbound_default && dev.role != net::Role::Wan &&
             !config.no_default_devices.contains(dev.id)) {
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
  for (const SimRibEntry& e : rib) {
    if (e.originated) {
      const bool wan_originated =
          e.kind == RouteKind::Default || e.kind == RouteKind::WideArea;
      if (wan_originated && !external_ports.empty()) {
        offer({e.prefix, e.kind, Action::forward(external_ports), kAdConnected});
      }
      continue;
    }
    if (e.next_hops.empty()) continue;
    offer({e.prefix, e.kind, Action::forward(e.next_hops), kAdEbgp});
  }

  struct Rank {
    uint64_t order;
    int admin_distance;
    uint32_t offer;
  };
  std::vector<Rank> ranks;
  for (uint32_t i = 0; i < offers.size(); ++i) {
    const Ipv4Prefix& p = offers[i].prefix;
    ranks.push_back({(uint64_t{32u - p.length()} << 38) | prefix_key(p),
                     offers[i].admin_distance, i});
  }
  std::sort(ranks.begin(), ranks.end(), [](const Rank& a, const Rank& b) {
    return std::tie(a.order, a.admin_distance, a.offer) <
           std::tie(b.order, b.admin_distance, b.offer);
  });
  std::vector<FibRule> out;
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0 && ranks[i].order == ranks[i - 1].order) continue;
    Candidate& c = offers[ranks[i].offer];
    out.push_back({net::MatchSpec::for_dst(c.prefix), std::move(c.action), c.kind,
                   32u - c.prefix.length()});
  }
  return out;
}

/// Every device's rules (empty for failed devices), indexed by DeviceId.
inline std::vector<std::vector<FibRule>> build(const net::Network& network,
                                               const std::vector<SimRib>& ribs,
                                               const RoutingConfig& config) {
  std::vector<std::vector<FibRule>> out(network.device_count());
  for (const net::Device& dev : network.devices()) {
    if (config.failed_devices.contains(dev.id)) continue;
    out[dev.id.value] = install_device(network, dev, ribs[dev.id.value], config);
  }
  return out;
}

/// Everything a rule's accessors say, as comparable values: id, device,
/// table, priority, kind, every match field and the whole action.
inline auto rule_row(const net::Network& network, net::RuleId rid) {
  const net::Rule& r = network.rule(rid);
  const net::MatchSpec m = network.match_spec(rid);
  const net::Action a = network.action(rid);
  return std::tuple(r.id, r.device, r.table, r.priority, r.kind, m.dst_prefix, m.src_prefix,
                    m.proto, m.src_port, m.dst_port, m.in_interfaces, a.type, a.out_interfaces,
                    a.rewrites);
}

/// Every rule's row in id order, then every table in device order.
inline auto rule_store_rows(const net::Network& network) {
  std::vector<decltype(rule_row(network, net::RuleId{}))> rows;
  for (const net::Rule& r : network.rules()) rows.push_back(rule_row(network, r.id));
  std::vector<std::vector<net::RuleId>> tables;
  for (const net::Device& dev : network.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      const std::span<const net::RuleId> t = network.table(dev.id, table);
      tables.emplace_back(t.begin(), t.end());
    }
  }
  return std::pair(std::move(rows), std::move(tables));
}

/// Expects `network`'s FIB-built rules to be `want`'s: the first rules of
/// the network, numbered device by device in install order, each read back
/// through every accessor, in the same FIB table positions. Rules added
/// after the FIB build (ACLs, transforms) have larger ids and are skipped in
/// the table comparison. Returns the number of FIB-built rules.
inline size_t expect_fib_matches(const net::Network& network,
                                 const std::vector<std::vector<FibRule>>& want,
                                 const std::string& label) {
  uint32_t next = 0;
  for (const net::Device& dev : network.devices()) {
    const std::vector<FibRule>& rules = want[dev.id.value];
    const uint32_t first = next;
    for (const FibRule& f : rules) {
      const net::RuleId rid{next++};
      if (rid.value >= network.rule_count()) {
        ADD_FAILURE() << label << ": rule " << rid.value << " missing";
        return next;
      }
      const net::Rule& r = network.rule(rid);
      const net::MatchSpec m = network.match_spec(rid);
      const net::Action a = network.action(rid);
      const auto outs = network.out_interfaces(rid);
      EXPECT_EQ(r.device, dev.id) << label << " rule " << rid.value;
      EXPECT_EQ(r.table, net::TableKind::Fib) << label << " rule " << rid.value;
      EXPECT_EQ(r.priority, f.priority) << label << " rule " << rid.value;
      EXPECT_EQ(r.kind, f.kind) << label << " rule " << rid.value;
      EXPECT_EQ(r.dst_prefix(), f.match.dst_prefix) << label << " rule " << rid.value;
      EXPECT_EQ(m.dst_prefix, f.match.dst_prefix) << label << " rule " << rid.value;
      EXPECT_FALSE(r.has_rare_fields()) << label << " rule " << rid.value;
      EXPECT_EQ(r.action_type(), f.action.type) << label << " rule " << rid.value;
      EXPECT_EQ(a.type, f.action.type) << label << " rule " << rid.value;
      EXPECT_EQ(a.out_interfaces, f.action.out_interfaces) << label << " rule " << rid.value;
      EXPECT_TRUE(std::ranges::equal(outs, f.action.out_interfaces))
          << label << " rule " << rid.value;
      EXPECT_EQ(a.rewrites, f.action.rewrites) << label << " rule " << rid.value;
      EXPECT_TRUE(std::ranges::equal(network.rewrites(rid), f.action.rewrites))
          << label << " rule " << rid.value;
      EXPECT_TRUE(network.in_interfaces(rid).empty()) << label << " rule " << rid.value;
    }
    // The device's FIB table lists its FIB-built rules in install order.
    std::vector<net::RuleId> built;
    for (const net::RuleId rid : network.table(dev.id)) {
      if (rid.value >= first && rid.value < next) built.push_back(rid);
    }
    std::vector<net::RuleId> expected;
    for (uint32_t id = first; id < next; ++id) expected.push_back(net::RuleId{id});
    EXPECT_EQ(built, expected) << label << " device " << dev.name;
  }
  return next;
}

}  // namespace yardstick::routing::reference
