#include "dataplane/transfer.hpp"

#include <algorithm>

namespace yardstick::dataplane {

using packet::ConcretePacket;
using packet::PacketSet;

namespace {
bool interface_allowed(std::span<const net::InterfaceId> allowed, net::InterfaceId in_interface) {
  if (allowed.empty() || !in_interface.valid()) return true;
  return std::find(allowed.begin(), allowed.end(), in_interface) != allowed.end();
}
}  // namespace

std::vector<RuleSplit> Transfer::split(net::DeviceId device,
                                       net::InterfaceId in_interface,
                                       const PacketSet& input,
                                       net::TableKind table) const {
  std::vector<RuleSplit> out;
  if (input.empty()) return out;
  PacketSet remaining = input;
  for (const net::RuleId rid : network().table(device, table)) {
    if (remaining.empty()) break;
    if (!interface_allowed(network().in_interfaces(rid), in_interface)) continue;
    PacketSet claimed = remaining.intersect(index_.match_set(rid));
    if (claimed.empty()) continue;
    remaining = remaining.minus(claimed);
    out.push_back({rid, std::move(claimed)});
  }
  return out;
}

DeviceStage Transfer::process(net::DeviceId device, net::InterfaceId in_interface,
                              const PacketSet& input) const {
  bdd::BddManager& mgr = index_.manager();
  DeviceStage stage;
  stage.permitted = input;
  stage.denied = PacketSet::none(mgr);
  if (network().has_acl(device)) {
    stage.acl = split(device, in_interface, input, net::TableKind::Acl);
    PacketSet permitted = PacketSet::none(mgr);
    for (const RuleSplit& s : stage.acl) {
      if (network().rule(s.rule).action_type() == net::ActionType::Permit) {
        permitted = permitted.union_with(s.packets);
      }
    }
    stage.permitted = permitted;
    stage.denied = input.minus(permitted);  // explicit + implicit deny
  }
  stage.fib = split(device, in_interface, stage.permitted, net::TableKind::Fib);
  return stage;
}

PacketSet Transfer::rewrite(const net::Rule& rule, const PacketSet& input) const {
  PacketSet acc = input;
  for (const net::Rewrite& rw : network().rewrites(rule.id)) {
    acc = acc.rewrite_field(rw.field, rw.value);
  }
  return acc;
}

PacketSet Transfer::rewrite_preimage(const net::Rule& rule,
                                     const PacketSet& output) const {
  PacketSet acc = output;
  // Invert in reverse application order.
  const std::span<const net::Rewrite> rewrites = network().rewrites(rule.id);
  for (auto it = rewrites.rbegin(); it != rewrites.rend(); ++it) {
    acc = acc.rewrite_field_preimage(it->field, it->value);
  }
  return acc;
}

std::vector<HopOutput> Transfer::apply(const net::Rule& rule,
                                       const PacketSet& input) const {
  std::vector<HopOutput> out;
  if (rule.action_type() == net::ActionType::Drop || input.empty()) return out;
  const PacketSet transformed = rewrite(rule, input);
  const std::span<const net::InterfaceId> outs = network().out_interfaces(rule.id);
  out.reserve(outs.size());
  for (const net::InterfaceId egress : outs) {
    const net::InterfaceId next = network().interface(egress).peer;
    out.push_back({egress, next, transformed});
  }
  return out;
}

net::RuleId Transfer::lookup(net::DeviceId device, net::InterfaceId in_interface,
                             const ConcretePacket& pkt, net::TableKind table) const {
  for (const net::RuleId rid : network().table(device, table)) {
    if (network().matches(rid, pkt, in_interface)) return rid;
  }
  return {};
}

net::InterfaceId Transfer::pick_ecmp(const net::Rule& rule,
                                     const ConcretePacket& pkt) const {
  const std::span<const net::InterfaceId> outs = network().out_interfaces(rule.id);
  if (outs.empty()) return {};
  // Deterministic 5-tuple hash, stable across runs so traceroutes and
  // pingmesh samples are reproducible.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(pkt.dst_ip);
  mix(pkt.src_ip);
  mix(pkt.proto);
  mix(pkt.src_port);
  mix(pkt.dst_port);
  return outs[h % outs.size()];
}

}  // namespace yardstick::dataplane
