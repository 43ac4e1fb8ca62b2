// End-to-end simulators over the dataplane.
//
// ConcreteSimulator traces one packet hop by hop (the substrate for ping,
// traceroute and Pingmesh-style tests); SymbolicSimulator floods a packet
// set from a start location and computes where every header ends up (the
// substrate for symbolic reachability tests).
//
// Both report each hop through an optional visitor so testing tools can
// mark coverage (markPacket) with information they already have (§5.1).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "dataplane/transfer.hpp"
#include "packet/located_packet_set.hpp"

namespace yardstick::dataplane {

/// Why a concrete packet stopped being forwarded.
enum class Disposition : uint8_t {
  Delivered,  // forwarded out a host-facing or unconnected interface
  Dropped,    // matched an explicit drop rule
  NoRule,     // matched nothing in a table
  Loop,       // exceeded the hop limit
};

[[nodiscard]] inline const char* to_string(Disposition d) {
  switch (d) {
    case Disposition::Delivered: return "delivered";
    case Disposition::Dropped: return "dropped";
    case Disposition::NoRule: return "no-rule";
    case Disposition::Loop: return "loop";
  }
  return "?";
}

/// One hop of a concrete trace: the state of the packet as it entered the
/// device, the rules that handled it, and the chosen egress.
struct ConcreteHop {
  net::DeviceId device;
  net::InterfaceId in_interface;  // invalid for the injection hop
  packet::ConcretePacket packet;  // as it arrived at this device
  net::RuleId acl_rule;           // ACL entry that matched (if the device has one)
  net::RuleId rule;               // FIB rule; invalid if denied/no match
  net::InterfaceId out_interface; // invalid on drop/deny/no-rule
};

struct ConcreteTrace {
  std::vector<ConcreteHop> hops;
  Disposition disposition = Disposition::NoRule;
  packet::ConcretePacket final_packet;
  /// Egress interface the packet left the network through (Delivered only).
  net::InterfaceId egress;
};

class ConcreteSimulator {
 public:
  explicit ConcreteSimulator(const Transfer& transfer) : transfer_(transfer) {}

  /// Inject `pkt` at `device` (arriving on `in_interface`, which may be
  /// invalid for local injection) and follow it until it is delivered,
  /// dropped, or the hop limit is hit. ECMP choices are deterministic.
  [[nodiscard]] ConcreteTrace run(net::DeviceId device, net::InterfaceId in_interface,
                                  packet::ConcretePacket pkt, int max_hops = 64) const;
  /// As above, into `trace` (overwritten): a caller that probes in a loop
  /// reuses one hop list.
  void run(net::DeviceId device, net::InterfaceId in_interface, packet::ConcretePacket pkt,
           ConcreteTrace& trace, int max_hops = 64) const;

 private:
  const Transfer& transfer_;
};

/// Result of a symbolic flood.
struct SymbolicResult {
  /// Headers that left the network, keyed by the egress interface location.
  packet::LocatedPacketSet delivered;
  /// Headers dropped by an explicit drop rule, keyed by the location at
  /// which they arrived at the dropping device.
  packet::LocatedPacketSet dropped;
  /// Headers that matched no rule at some device.
  packet::LocatedPacketSet unmatched;
};

class SymbolicSimulator {
 public:
  /// Visitor invoked once per processed arrival: packets `arriving` at
  /// `device` via `in_interface` (invalid for the injection). Exactly the
  /// information an instrumented tool passes to markPacket.
  using HopVisitor = std::function<void(net::DeviceId device, net::InterfaceId in_interface,
                                        const packet::PacketSet& arriving)>;

  explicit SymbolicSimulator(const Transfer& transfer) : transfer_(transfer) {}

  /// Flood `headers` from `device` and compute final dispositions for the
  /// whole set. Terminates by processing only not-yet-seen headers per
  /// device (the per-device seen set is a monotone lattice), with
  /// `max_hops` as a backstop against rewrite-induced churn.
  [[nodiscard]] SymbolicResult flood(net::DeviceId device, net::InterfaceId in_interface,
                                     const packet::PacketSet& headers, int max_hops = 64,
                                     const HopVisitor& visitor = nullptr) const;

 private:
  const Transfer& transfer_;
};

}  // namespace yardstick::dataplane
