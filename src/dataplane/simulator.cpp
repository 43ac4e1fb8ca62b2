#include "dataplane/simulator.hpp"

#include <deque>

namespace yardstick::dataplane {

using packet::ConcretePacket;
using packet::PacketSet;

ConcreteTrace ConcreteSimulator::run(net::DeviceId device, net::InterfaceId in_interface,
                                     ConcretePacket pkt, int max_hops) const {
  ConcreteTrace trace;
  run(device, in_interface, pkt, trace, max_hops);
  return trace;
}

void ConcreteSimulator::run(net::DeviceId device, net::InterfaceId in_interface,
                            ConcretePacket pkt, ConcreteTrace& trace, int max_hops) const {
  const net::Network& network = transfer_.network();
  trace.hops.clear();
  trace.egress = net::InterfaceId{};
  for (int hop = 0; hop < max_hops; ++hop) {
    ConcreteHop record;
    record.device = device;
    record.in_interface = in_interface;
    record.packet = pkt;

    // Ingress ACL stage (§4.1 multi-table devices): explicit deny drops;
    // no match on a device that has an ACL is an implicit deny.
    if (network.has_acl(device)) {
      const net::RuleId acl =
          transfer_.lookup(device, in_interface, pkt, net::TableKind::Acl);
      record.acl_rule = acl;
      const bool denied =
          !acl.valid() || network.rule(acl).action_type() == net::ActionType::Drop;
      if (denied) {
        trace.hops.push_back(record);
        trace.disposition = acl.valid() ? Disposition::Dropped : Disposition::NoRule;
        trace.final_packet = pkt;
        return;
      }
    }

    const net::RuleId rid = transfer_.lookup(device, in_interface, pkt);
    record.rule = rid;
    if (!rid.valid()) {
      trace.hops.push_back(record);
      trace.disposition = Disposition::NoRule;
      trace.final_packet = pkt;
      return;
    }
    const net::Rule& rule = network.rule(rid);
    if (rule.action_type() == net::ActionType::Drop) {
      trace.hops.push_back(record);
      trace.disposition = Disposition::Dropped;
      trace.final_packet = pkt;
      return;
    }
    for (const net::Rewrite& rw : network.rewrites(rid)) {
      pkt.set_field(rw.field, rw.value);
    }
    const net::InterfaceId egress = transfer_.pick_ecmp(rule, pkt);
    record.out_interface = egress;
    trace.hops.push_back(record);

    const net::InterfaceId next = network.interface(egress).peer;
    if (!next.valid()) {
      // Left the modeled network (host port or external attachment).
      trace.disposition = Disposition::Delivered;
      trace.final_packet = pkt;
      trace.egress = egress;
      return;
    }
    device = network.interface(next).device;
    in_interface = next;
  }
  trace.disposition = Disposition::Loop;
  trace.final_packet = pkt;
}

SymbolicResult SymbolicSimulator::flood(net::DeviceId device,
                                        net::InterfaceId in_interface,
                                        const PacketSet& headers, int max_hops,
                                        const HopVisitor& visitor) const {
  const net::Network& network = transfer_.network();
  bdd::BddManager& mgr = transfer_.index().manager();
  SymbolicResult result;
  if (headers.empty()) return result;

  struct WorkItem {
    net::DeviceId device;
    net::InterfaceId in_interface;
    PacketSet packets;
    int depth;
  };

  // Headers already processed per device; arrivals are trimmed against this
  // so the flood terminates even with forwarding loops.
  std::unordered_map<uint32_t, PacketSet> seen;
  std::deque<WorkItem> queue;
  queue.push_back({device, in_interface, headers, 0});

  while (!queue.empty()) {
    WorkItem item = std::move(queue.front());
    queue.pop_front();

    auto [it, inserted] = seen.try_emplace(item.device.value, PacketSet::none(mgr));
    const PacketSet fresh = item.packets.minus(it->second);
    if (fresh.empty()) continue;
    it->second = it->second.union_with(fresh);

    if (visitor) visitor(item.device, item.in_interface, fresh);

    const packet::LocationId here = item.in_interface.valid()
                                        ? net::to_location(item.in_interface)
                                        : net::device_location(item.device);

    const DeviceStage stage = transfer_.process(item.device, item.in_interface, fresh);

    // ACL stage: explicit denies drop with rule attribution; the implicit
    // deny of ACL-unmatched packets is ruleless.
    if (!stage.denied.empty()) {
      PacketSet explicit_denied = PacketSet::none(mgr);
      for (const RuleSplit& s : stage.acl) {
        if (network.rule(s.rule).action_type() == net::ActionType::Drop) {
          explicit_denied = explicit_denied.union_with(s.packets);
        }
      }
      if (!explicit_denied.empty()) result.dropped.insert(here, explicit_denied);
      const PacketSet implicit = stage.denied.minus(explicit_denied);
      if (!implicit.empty()) result.unmatched.insert(here, implicit);
    }

    // Anything permitted that matches no FIB rule drops ruleless-ly.
    PacketSet matched = PacketSet::none(mgr);
    for (const RuleSplit& s : stage.fib) matched = matched.union_with(s.packets);
    const PacketSet unmatched = stage.permitted.minus(matched);
    if (!unmatched.empty()) result.unmatched.insert(here, unmatched);

    for (const RuleSplit& s : stage.fib) {
      const net::Rule& rule = network.rule(s.rule);
      if (rule.action_type() == net::ActionType::Drop) {
        result.dropped.insert(here, s.packets);
        continue;
      }
      for (const HopOutput& hop : transfer_.apply(rule, s.packets)) {
        if (!hop.next_interface.valid()) {
          result.delivered.insert(net::to_location(hop.out_interface), hop.packets);
          continue;
        }
        if (item.depth + 1 >= max_hops) continue;  // backstop
        queue.push_back({network.interface(hop.next_interface).device,
                         hop.next_interface, hop.packets, item.depth + 1});
      }
    }
  }
  return result;
}

}  // namespace yardstick::dataplane
