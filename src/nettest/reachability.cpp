#include "nettest/reachability.hpp"

#include "nettest/instrument.hpp"

namespace yardstick::nettest {

using dataplane::SymbolicSimulator;
using packet::PacketSet;

TestResult ToRReachability::run(const dataplane::Transfer& transfer,
                                ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();
  const SymbolicSimulator sim(transfer);

  const std::vector<net::DeviceId> tors = network.devices_with_role(net::Role::ToR);

  // Pre-build each ToR's expected destination set.
  std::vector<PacketSet> hosted(tors.size(), PacketSet::none(mgr));
  for (size_t i = 0; i < tors.size(); ++i) {
    for (const packet::Ipv4Prefix& p : network.device(tors[i]).host_prefixes) {
      hosted[i] = hosted[i].union_with(PacketSet::dst_prefix(mgr, p));
    }
  }

  for (size_t src = 0; src < tors.size(); ++src) {
    if (!shard_.contains(src)) continue;
    // All packets originating at this ToR destined to any other ToR.
    PacketSet headers = PacketSet::none(mgr);
    for (size_t dst = 0; dst < tors.size(); ++dst) {
      if (dst != src) headers = headers.union_with(hosted[dst]);
    }
    const std::vector<net::InterfaceId> src_ports =
        network.ports_of_kind(tors[src], net::PortKind::HostPort);
    const net::InterfaceId ingress = src_ports.empty() ? net::InterfaceId{} : src_ports[0];

    const dataplane::SymbolicResult outcome =
        sim.flood(tors[src], ingress, headers, 64, symbolic_hop_marker(tracker));

    for (size_t dst = 0; dst < tors.size(); ++dst) {
      if (dst == src) continue;
      ++result.checks;
      PacketSet delivered = PacketSet::none(mgr);
      for (const net::InterfaceId port :
           network.ports_of_kind(tors[dst], net::PortKind::HostPort)) {
        const PacketSet at = outcome.delivered.at(net::to_location(port));
        if (at.valid()) delivered = delivered.union_with(at);
      }
      PacketSet expected = hosted[dst];
      if (policy_exempt_.valid()) {
        expected = expected.minus(policy_exempt_);
        delivered = delivered.minus(policy_exempt_);
      }
      if (!delivered.equal(expected)) {
        result.fail(network.device(tors[src]).name + " -> " +
                    network.device(tors[dst]).name +
                    ": hosted prefix not fully delivered");
      }
    }
  }
  return result;
}

TestResult ToRPingmesh::run(const dataplane::Transfer& transfer,
                            ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();

  const std::vector<net::DeviceId> tors = network.devices_with_role(net::Role::ToR);
  dataplane::ConcreteTrace trace;

  for (size_t src_index = 0; src_index < tors.size(); ++src_index) {
    if (!shard_.contains(src_index)) continue;
    const net::DeviceId src = tors[src_index];
    const std::vector<net::InterfaceId> src_ports =
        network.ports_of_kind(src, net::PortKind::HostPort);
    const net::InterfaceId ingress = src_ports.empty() ? net::InterfaceId{} : src_ports[0];
    const net::Device& src_dev = network.device(src);

    for (const net::DeviceId dst : tors) {
      if (dst == src) continue;
      const net::Device& dst_dev = network.device(dst);
      if (dst_dev.host_prefixes.empty()) continue;
      ++result.checks;

      // Sample one address from the destination prefix (§8.1), with a
      // plausible source address and 5-tuple.
      packet::ConcretePacket pkt;
      pkt.dst_ip = dst_dev.host_prefixes.front().first() + 1;
      pkt.src_ip = src_dev.host_prefixes.empty()
                       ? 0x0a000001u
                       : src_dev.host_prefixes.front().first() + 1;
      pkt.proto = 1;  // ICMP

      probe(transfer, tracker, src, ingress, pkt, trace);
      const bool reached =
          trace.disposition == dataplane::Disposition::Delivered && trace.egress.valid() &&
          network.interface(trace.egress).device == dst;
      if (!reached) {
        result.fail(src_dev.name + " -> " + dst_dev.name + ": ping " +
                    to_string(trace.disposition));
      }
    }
  }
  return result;
}

TestResult ReachabilityTest::run(const dataplane::Transfer& transfer,
                                 ys::CoverageTracker& tracker) const {
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();
  const SymbolicSimulator sim(transfer);

  for (const ReachabilityQuery& q : queries_) {
    ++result.checks;
    const dataplane::SymbolicResult outcome =
        sim.flood(q.source, q.source_interface, q.headers, 64, symbolic_hop_marker(tracker));

    if (q.expected_egress) {
      const PacketSet at = outcome.delivered.at(net::to_location(*q.expected_egress));
      const PacketSet actual = at.valid() ? at : PacketSet::none(mgr);
      if (!actual.equal(q.expected_delivered)) {
        result.fail(name_ + ": delivered set mismatch at interface " +
                    std::to_string(q.expected_egress->value));
      }
    } else {
      // Everything injected must be delivered somewhere.
      PacketSet delivered = PacketSet::none(mgr);
      for (const auto& [loc, ps] : outcome.delivered.entries()) {
        delivered = delivered.union_with(ps);
      }
      // Header rewrites could make delivered != injected even when nothing
      // drops; compare drop sets instead, which is transform-agnostic.
      if (!outcome.dropped.empty() || !outcome.unmatched.empty()) {
        result.fail(name_ + ": some packets were dropped");
      } else if (delivered.empty() && !q.headers.empty()) {
        result.fail(name_ + ": nothing was delivered");
      }
    }
  }
  return result;
}

void probe(const dataplane::Transfer& transfer, ys::CoverageTracker& tracker,
           net::DeviceId source, net::InterfaceId source_interface,
           const packet::ConcretePacket& pkt, dataplane::ConcreteTrace& trace) {
  dataplane::ConcreteSimulator(transfer).run(source, source_interface, pkt, trace);
  // Only the marks read the singleton sets below.
  if (!tracker.enabled()) return;
  bdd::BddManager& mgr = transfer.index().manager();
  // The packet is identical across hops unless a rule rewrote it; build
  // the singleton set once and reuse it (marking is on the test's hot
  // path, §5).
  PacketSet singleton;
  const packet::ConcretePacket* built_for = nullptr;
  for (const dataplane::ConcreteHop& hop : trace.hops) {
    if (built_for == nullptr || !(*built_for == hop.packet)) {
      singleton = PacketSet::from_packet(mgr, hop.packet);
      built_for = &hop.packet;
    }
    mark_concrete_hop(tracker, hop, singleton);
  }
}

}  // namespace yardstick::nettest
