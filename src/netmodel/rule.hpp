// Forwarding rules: declarative match specifications plus actions.
//
// A rule's *match field* is what is written in the table (e.g. the prefix of
// a route). Its *match set* — the packets it actually applies to once
// higher-priority rules have consumed theirs — is computed by the dataplane
// layer (§5.2 step 1) and is always a subset of the match field.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netmodel/ids.hpp"
#include "packet/fields.hpp"
#include "packet/prefix.hpp"

namespace yardstick::net {

/// Inclusive L4 port range.
struct PortRange {
  uint16_t lo = 0;
  uint16_t hi = 65535;

  friend auto operator<=>(const PortRange&, const PortRange&) = default;
};

/// Declarative match specification. Unset fields match anything.
struct MatchSpec {
  std::optional<packet::Ipv4Prefix> dst_prefix;
  std::optional<packet::Ipv4Prefix> src_prefix;
  std::optional<uint8_t> proto;
  std::optional<PortRange> src_port;
  std::optional<PortRange> dst_port;
  /// Restrict to packets arriving on these interfaces (empty = any).
  std::vector<InterfaceId> in_interfaces;

  [[nodiscard]] static MatchSpec for_dst(const packet::Ipv4Prefix& p) {
    MatchSpec m;
    m.dst_prefix = p;
    return m;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    const auto add = [&out](const std::string& field) {
      if (!out.empty()) out += ',';
      out += field;
    };
    if (dst_prefix) add("dst=" + dst_prefix->to_string());
    if (src_prefix) add("src=" + src_prefix->to_string());
    if (proto) add("proto=" + std::to_string(*proto));
    if (dst_port) add("dport=" + std::to_string(dst_port->lo) + "-" + std::to_string(dst_port->hi));
    if (src_port) add("sport=" + std::to_string(src_port->lo) + "-" + std::to_string(src_port->hi));
    return out.empty() ? "any" : out;
  }
};

/// A single header-field rewrite applied by a rule's action.
struct Rewrite {
  packet::Field field;
  uint64_t value;

  friend bool operator==(const Rewrite&, const Rewrite&) = default;
};

enum class ActionType : uint8_t {
  Forward,  // FIB: send out the listed interfaces (ECMP / multicast)
  Drop,     // FIB null route or ACL explicit deny
  Permit,   // ACL: pass the packet on to the forwarding table
};

/// What a rule does to matched packets. Forward actions may list multiple
/// egress interfaces (ECMP / multicast per §4.1); Drop and Permit actions
/// have none.
struct Action {
  ActionType type = ActionType::Drop;
  std::vector<InterfaceId> out_interfaces;
  std::vector<Rewrite> rewrites;

  [[nodiscard]] static Action drop() { return {}; }

  [[nodiscard]] static Action permit() {
    Action a;
    a.type = ActionType::Permit;
    return a;
  }

  [[nodiscard]] static Action forward(std::vector<InterfaceId> out) {
    Action a;
    a.type = ActionType::Forward;
    a.out_interfaces = std::move(out);
    return a;
  }
};

/// Which of a device's tables a rule lives in (§4.1: devices can carry
/// multiple rule tables; we model an ingress ACL stage ahead of the FIB).
enum class TableKind : uint8_t { Acl = 0, Fib = 1 };

inline constexpr size_t kTableCount = 2;

[[nodiscard]] inline const char* to_string(TableKind t) {
  return t == TableKind::Acl ? "acl" : "fib";
}

/// Provenance of a forwarding rule — the route category that produced it.
/// This is metadata used by the case study's gap analysis (§7.2) and by
/// tests that target specific route classes; coverage math never reads it.
enum class RouteKind : uint8_t {
  Default,    // 0.0.0.0/0 learned or static
  Internal,   // host subnets and loopbacks originated inside the region
  Connected,  // /31 point-to-point link subnets
  WideArea,   // routes learned from the WAN
  DropRule,   // explicit discard (e.g. null route)
  Security,   // ACL entries (permit/deny)
  Tunnel,     // tunnel encap (VIP -> endpoint) / decap (endpoint -> inner)
  Nat,        // NAT-style source rewrite at the WAN edge
  Other,
};

[[nodiscard]] inline const char* to_string(RouteKind k) {
  switch (k) {
    case RouteKind::Default: return "default";
    case RouteKind::Internal: return "internal";
    case RouteKind::Connected: return "connected";
    case RouteKind::WideArea: return "wide-area";
    case RouteKind::DropRule: return "drop";
    case RouteKind::Security: return "security";
    case RouteKind::Tunnel: return "tunnel";
    case RouteKind::Nat: return "nat";
    case RouteKind::Other: return "other";
  }
  return "?";
}

/// One match-action rule installed on a device, as a fixed 28-byte record.
/// Rules within one of a device's tables form an ordered list (lower
/// `priority` value wins; ties broken by insertion order).
///
/// The record holds the dst prefix inline; the action's interfaces and
/// rewrites live in the owning Network's interned group pool, and the rare
/// match fields (source prefix, protocol, ports, ingress interfaces) in its
/// side table. Read them through the Network: `out_interfaces(id)`,
/// `rewrites(id)`, `in_interfaces(id)`, `match_spec(id)`, `action(id)`.
/// Only Network builds or edits a rule.
struct Rule {
  RuleId id;
  DeviceId device;
  uint32_t priority = 0;
  TableKind table = TableKind::Fib;
  RouteKind kind = RouteKind::Other;

  [[nodiscard]] ActionType action_type() const { return type_; }

  /// The dst prefix of the match field; unset when the rule matches any
  /// destination.
  [[nodiscard]] std::optional<packet::Ipv4Prefix> dst_prefix() const {
    if (dst_length_ == kNoDst) return std::nullopt;
    return packet::Ipv4Prefix(dst_address_, dst_length_);
  }

  /// True when the match constrains more than the dst prefix.
  [[nodiscard]] bool has_rare_fields() const { return rare_ != kNoRare; }

 private:
  friend class Network;
  static constexpr uint8_t kNoDst = 0xff;
  static constexpr uint32_t kNoRare = UINT32_MAX;

  ActionType type_ = ActionType::Drop;
  uint8_t dst_length_ = kNoDst;
  uint32_t dst_address_ = 0;
  uint32_t group_ = 0;        // into the network's GroupPool
  uint32_t rare_ = kNoRare;   // into the network's side table
};

static_assert(sizeof(Rule) <= 40, "a rule is a fixed record of at most 40 bytes");

/// What a rule *is*, as a fixed-size value: device, table, priority, kind
/// and every MatchSpec field but `in_interfaces`, each with a presence bit
/// (`Network::rule_content` reads it off a rule).
/// Two rules have equal contents exactly when their `rule_content_key`
/// strings are equal (the key is this value's rendering), so code that only
/// compares or orders rules by content never builds the string. Rules that
/// differ only in `in_interfaces` are conflated, as their keys are.
struct RuleContent {
  /// Presence bits, one per optional MatchSpec field.
  enum : uint8_t { kDst = 1, kSrc = 2, kProto = 4, kSrcPort = 8, kDstPort = 16 };

  DeviceId device;
  TableKind table = TableKind::Fib;
  uint32_t priority = 0;
  RouteKind kind = RouteKind::Other;
  uint8_t present = 0;
  // An absent field keeps its default, so defaulted comparison is exact.
  uint8_t proto = 0;
  packet::Ipv4Prefix dst_prefix;
  packet::Ipv4Prefix src_prefix;
  PortRange src_port;
  PortRange dst_port;

  /// The match fields as a MatchSpec (no `in_interfaces`).
  [[nodiscard]] MatchSpec match() const {
    MatchSpec m;
    if (present & kDst) m.dst_prefix = dst_prefix;
    if (present & kSrc) m.src_prefix = src_prefix;
    if (present & kProto) m.proto = proto;
    if (present & kSrcPort) m.src_port = src_port;
    if (present & kDstPort) m.dst_port = dst_port;
    return m;
  }

  friend auto operator<=>(const RuleContent&, const RuleContent&) = default;
};

}  // namespace yardstick::net
