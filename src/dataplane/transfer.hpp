// Symbolic and concrete one-hop transfer functions.
//
// The transfer function is the semantic heart of the dataplane: given
// packets arriving at a device, it determines which rule claims which
// packets (via the disjoint match sets) and what each rule's action does to
// them — forwarding out one or more interfaces (with optional header
// rewrites) or dropping.
//
// Note on in-interface restrictions: disjoint match sets are computed in
// header space (see match_sets.hpp). Rules that restrict ingress interfaces
// are honored by the transfer function, but tables must not contain
// header-overlapping rules that differ only in ingress interface — the FIBs
// produced by the routing substrate never do.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/match_sets.hpp"
#include "netmodel/network.hpp"
#include "packet/packet.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::dataplane {

/// The portion of an input packet set claimed by one rule.
struct RuleSplit {
  net::RuleId rule;
  packet::PacketSet packets;  // subset of the input that this rule handles
};

/// Where a forwarded packet set ends up after one hop.
struct HopOutput {
  net::InterfaceId out_interface;  // egress interface on the current device
  net::InterfaceId next_interface; // ingress interface on the neighbor
                                   // (invalid => leaves the modeled network)
  packet::PacketSet packets;       // post-rewrite headers
};

/// The outcome of running a packet set through a device's ingress ACL and
/// forwarding table.
struct DeviceStage {
  /// ACL claims (both permit and deny rules); empty without an ACL stage.
  std::vector<RuleSplit> acl;
  /// Subset of the input that survives the ACL (everything without one).
  packet::PacketSet permitted;
  /// Subset denied (explicit deny rules plus the implicit deny of
  /// ACL-unmatched packets).
  packet::PacketSet denied;
  /// Forwarding-table claims over the permitted packets.
  std::vector<RuleSplit> fib;
};

class Transfer {
 public:
  Transfer(const MatchSetIndex& index) : index_(index) {}

  /// Split an input set among one table's rules. Packets matching no rule
  /// are left unclaimed (implicit deny in an ACL; ruleless drop in a FIB —
  /// either way, no ATU). `in_interface` may be invalid to model locally
  /// injected packets, which match rules regardless of ingress
  /// restrictions.
  [[nodiscard]] std::vector<RuleSplit> split(net::DeviceId device,
                                             net::InterfaceId in_interface,
                                             const packet::PacketSet& input,
                                             net::TableKind table = net::TableKind::Fib) const;

  /// Run both stages: ACL (when present) then FIB over the permitted set.
  [[nodiscard]] DeviceStage process(net::DeviceId device, net::InterfaceId in_interface,
                                    const packet::PacketSet& input) const;

  /// Apply a rule's action to a packet set: rewrite headers and fan out to
  /// each egress interface. Empty result means the rule drops.
  [[nodiscard]] std::vector<HopOutput> apply(const net::Rule& rule,
                                             const packet::PacketSet& input) const;

  /// Image of `input` under the rule's rewrites only (no fan-out).
  [[nodiscard]] packet::PacketSet rewrite(const net::Rule& rule,
                                          const packet::PacketSet& input) const;

  /// Pre-image: the packets that the rule's rewrites map into `output`.
  /// Used to reverse path exploration when computing guard sets (§5.2).
  [[nodiscard]] packet::PacketSet rewrite_preimage(const net::Rule& rule,
                                                   const packet::PacketSet& output) const;

  /// First-match lookup for a concrete packet in one of the device's
  /// tables; returns an invalid id if the packet matches nothing.
  [[nodiscard]] net::RuleId lookup(net::DeviceId device, net::InterfaceId in_interface,
                                   const packet::ConcretePacket& pkt,
                                   net::TableKind table = net::TableKind::Fib) const;

  /// The first rule in the device's forwarding table, in table order,
  /// whose dst prefix is exactly `prefix` (any route kind); an invalid id
  /// when there is none. Rules without a dst prefix never answer, and ACL
  /// tables are not searched. One binary search in the snapshot's
  /// PrefixIndex, no BDD work.
  [[nodiscard]] net::RuleId rule_for_prefix(net::DeviceId device,
                                            const packet::Ipv4Prefix& prefix) const {
    return index_.prefixes().find(device, prefix);
  }

  /// Deterministic ECMP choice for a concrete packet: hashes the 5-tuple to
  /// pick one egress interface of a forwarding rule.
  [[nodiscard]] net::InterfaceId pick_ecmp(const net::Rule& rule,
                                           const packet::ConcretePacket& pkt) const;

  [[nodiscard]] const MatchSetIndex& index() const { return index_; }
  [[nodiscard]] const net::Network& network() const { return index_.network(); }

 private:
  const MatchSetIndex& index_;
};

/// Does a concrete packet match a rule's declarative spec (header fields
/// and ingress interface)? Pure field comparisons, no BDD work.
[[nodiscard]] bool matches(const net::MatchSpec& spec, const packet::ConcretePacket& pkt,
                           net::InterfaceId in_interface);

}  // namespace yardstick::dataplane
