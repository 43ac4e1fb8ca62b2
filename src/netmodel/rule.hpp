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

/// One match-action rule installed on a device. Rules within one of a
/// device's tables form an ordered list (lower `priority` value wins;
/// ties broken by insertion order).
struct Rule {
  RuleId id;
  DeviceId device;
  TableKind table = TableKind::Fib;
  uint32_t priority = 0;
  MatchSpec match;
  Action action;
  RouteKind kind = RouteKind::Other;

  [[nodiscard]] std::string to_string() const {
    std::string out = "rule#" + std::to_string(id.value) + "[" + match.to_string() + " -> ";
    if (action.type == ActionType::Drop) {
      out += "drop";
    } else {
      out += "fwd(";
      for (size_t i = 0; i < action.out_interfaces.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(action.out_interfaces[i].value);
      }
      out += ")";
    }
    return out + "]";
  }
};

/// What a rule *is*, as a fixed-size value: device, table, priority, kind
/// and every MatchSpec field but `in_interfaces`, each with a presence bit.
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

  [[nodiscard]] static RuleContent of(const Rule& rule) {
    const MatchSpec& m = rule.match;
    RuleContent c;
    c.device = rule.device;
    c.table = rule.table;
    c.priority = rule.priority;
    c.kind = rule.kind;
    c.present = static_cast<uint8_t>((m.dst_prefix ? kDst : 0) | (m.src_prefix ? kSrc : 0) |
                                     (m.proto ? kProto : 0) | (m.src_port ? kSrcPort : 0) |
                                     (m.dst_port ? kDstPort : 0));
    c.proto = m.proto.value_or(0);
    c.dst_prefix = m.dst_prefix.value_or(packet::Ipv4Prefix{});
    c.src_prefix = m.src_prefix.value_or(packet::Ipv4Prefix{});
    c.src_port = m.src_port.value_or(PortRange{});
    c.dst_port = m.dst_port.value_or(PortRange{});
    return c;
  }

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
