// Coverage instrumentation call sites.
//
// The paper reports that integrating the production testing tool with
// Yardstick took seven one-line API calls (§6). These helpers are this
// codebase's equivalent: each test type funnels its reporting through
// exactly one of them, and each helper body is a single tracker call.
// Everything a helper needs (the rule id, the located packet set) is
// information the test already has; translating it into covered sets is
// Yardstick's job in the offline phase.
#pragma once

#include "dataplane/simulator.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::nettest {

/// State-inspection tests: report the rule just inspected.
inline void mark_inspected_rule(ys::CoverageTracker& tracker, net::RuleId rule) {
  tracker.mark_rule(rule);
}

/// Local behavioral tests: report the packet set injected at a device.
inline void mark_local_injection(ys::CoverageTracker& tracker, net::DeviceId device,
                                 const packet::PacketSet& packets) {
  tracker.mark_packet(net::device_location(device), packets);
}

/// End-to-end concrete tests: report one hop of a concrete trace, given
/// the singleton set of the hop's packet (a caller reuses it across hops
/// that carry the same packet).
inline void mark_concrete_hop(ys::CoverageTracker& tracker, const dataplane::ConcreteHop& hop,
                              const packet::PacketSet& packet) {
  tracker.mark_packet(hop.in_interface.valid() ? net::to_location(hop.in_interface)
                                               : net::device_location(hop.device),
                      packet);
}

/// End-to-end symbolic tests: adapt the tracker into the symbolic
/// simulator's per-hop visitor (§5.1: a separate markPacket call per hop
/// with the packet set at that hop).
inline dataplane::SymbolicSimulator::HopVisitor symbolic_hop_marker(
    ys::CoverageTracker& tracker) {
  return [&tracker](net::DeviceId device, net::InterfaceId in_interface,
                    const packet::PacketSet& arriving) {
    tracker.mark_packet(in_interface.valid() ? net::to_location(in_interface)
                                             : net::device_location(device),
                        arriving);
  };
}

}  // namespace yardstick::nettest
