#include "nettest/transform_checks.hpp"

#include <map>
#include <optional>

#include "dataplane/simulator.hpp"
#include "nettest/instrument.hpp"

namespace yardstick::nettest {

using dataplane::SymbolicSimulator;
using packet::PacketSet;

namespace {

/// The DstIp rewrite a rule applies, if any.
std::optional<uint64_t> dst_rewrite(const net::Network& network, const net::Rule& rule) {
  for (const net::Rewrite& rw : network.rewrites(rule.id)) {
    if (rw.field == packet::Field::DstIp) return rw.value;
  }
  return std::nullopt;
}

}  // namespace

TestResult TunnelRoundTripCheck::run(const dataplane::Transfer& transfer,
                                     ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();
  const SymbolicSimulator sim(transfer);

  // Index tunnel rules by the /32 address they match; an encap rule is one
  // whose DstIp rewrite lands on another tunnel rule's match (the decap).
  std::map<uint32_t, const net::Rule*> by_match;
  for (const net::Rule& rule : network.rules()) {
    if (rule.kind != net::RouteKind::Tunnel) continue;
    if (const auto dst = rule.dst_prefix(); dst && dst->length() == 32) {
      by_match.emplace(dst->address(), &rule);
    }
  }

  for (const auto& [vip, encap] : by_match) {
    const std::optional<uint64_t> endpoint = dst_rewrite(network, *encap);
    if (!endpoint) continue;
    const auto decap_it = by_match.find(static_cast<uint32_t>(*endpoint));
    if (decap_it == by_match.end() || decap_it->second->device == encap->device) {
      continue;  // not an encap (this is a decap, or a degenerate pair)
    }
    const net::Rule& decap = *decap_it->second;
    const std::optional<uint64_t> inner = dst_rewrite(network, decap);
    if (!inner) continue;
    ++result.checks;

    // Inject the VIP headers the way a rack host would emit them.
    const std::vector<net::InterfaceId> ingress_ports =
        network.ports_of_kind(encap->device, net::PortKind::HostPort);
    const net::InterfaceId ingress =
        ingress_ports.empty() ? net::InterfaceId{} : ingress_ports[0];
    const packet::Ipv4Prefix vip_prefix = *encap->dst_prefix();
    const PacketSet headers = PacketSet::dst_prefix(mgr, vip_prefix);

    const dataplane::SymbolicResult outcome =
        sim.flood(encap->device, ingress, headers, 64, symbolic_hop_marker(tracker));

    PacketSet delivered = PacketSet::none(mgr);
    for (const net::InterfaceId port :
         network.ports_of_kind(decap.device, net::PortKind::HostPort)) {
      const PacketSet at = outcome.delivered.at(net::to_location(port));
      if (at.valid()) delivered = delivered.union_with(at);
    }
    // Security policy at the ingress/egress ACL stages legitimately clips
    // the flow; forwarding must deliver everything the ACLs let through.
    // The tunnel rewrites dst between the stages, so only their port/proto
    // policy clips it: each stage's permitted space forgets DstIp.
    const auto permitted = [&](net::DeviceId device) {
      return transfer.index().acl_permitted_space(device).forget_field(packet::Field::DstIp);
    };
    const PacketSet expected = PacketSet::field_equals(mgr, packet::Field::DstIp, *inner)
                                   .intersect(permitted(encap->device))
                                   .intersect(permitted(decap.device));
    if (!delivered.equal(expected)) {
      result.fail(network.device(encap->device).name + " -> " +
                  network.device(decap.device).name + ": tunnel " +
                  vip_prefix.to_string() +
                  " not fully delivered with inner destination restored");
    }
  }
  return result;
}

TestResult NatTranslationCheck::run(const dataplane::Transfer& transfer,
                                    ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();
  const SymbolicSimulator sim(transfer);

  for (const net::Rule& rule : network.rules()) {
    if (rule.kind != net::RouteKind::Nat) continue;
    std::optional<uint64_t> translated;
    for (const net::Rewrite& rw : network.rewrites(rule.id)) {
      if (rw.field == packet::Field::SrcIp) translated = rw.value;
    }
    const net::MatchSpec match = network.match_spec(rule.id);
    if (!translated || !match.dst_prefix) continue;
    ++result.checks;

    PacketSet headers = PacketSet::dst_prefix(mgr, *match.dst_prefix);
    if (match.src_prefix) {
      headers = headers.intersect(PacketSet::src_prefix(mgr, *match.src_prefix));
    }
    const dataplane::SymbolicResult outcome =
        sim.flood(rule.device, net::InterfaceId{}, headers, 64,
                  symbolic_hop_marker(tracker));

    PacketSet delivered = PacketSet::none(mgr);
    for (const net::InterfaceId port :
         network.ports_of_kind(rule.device, net::PortKind::ExternalPort)) {
      const PacketSet at = outcome.delivered.at(net::to_location(port));
      if (at.valid()) delivered = delivered.union_with(at);
    }
    const PacketSet translated_src =
        PacketSet::field_equals(mgr, packet::Field::SrcIp, *translated);
    if (delivered.empty()) {
      result.fail(network.device(rule.device).name + ": NAT match " +
                  match.to_string() + " delivered nothing externally");
    } else if (!delivered.minus(translated_src).empty()) {
      result.fail(network.device(rule.device).name + ": headers escaped " +
                  match.to_string() + " without source translation");
    }
  }
  return result;
}

}  // namespace yardstick::nettest
