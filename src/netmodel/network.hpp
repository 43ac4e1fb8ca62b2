// Network — the paper's 4-tuple N = (V, I, E, S): devices, interfaces,
// links, and forwarding state (an ordered rule table per device).
//
// The class is both the container and the builder: topology generators and
// the routing substrate populate it through the add_* methods, after which
// it is treated as an immutable snapshot by the dataplane and coverage
// layers (mirroring how data-plane verifiers operate on state snapshots,
// §4.1 "model limitations").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netmodel/device.hpp"
#include "netmodel/ids.hpp"
#include "netmodel/rule.hpp"
#include "netmodel/rule_store.hpp"
#include "packet/packet.hpp"

namespace yardstick::net {

class Network {
 public:
  // --- Construction ---

  DeviceId add_device(std::string name, Role role, uint32_t asn = 0);

  /// Add an unconnected interface to a device.
  InterfaceId add_interface(DeviceId device, std::string name,
                            PortKind kind = PortKind::Fabric);

  /// All interfaces of a device with the given port kind.
  [[nodiscard]] std::vector<InterfaceId> ports_of_kind(DeviceId device,
                                                       PortKind kind) const;

  /// Connect two interfaces with a link, optionally assigning the /31
  /// subnet (side `a` gets the even address, side `b` the odd one).
  LinkId add_link(InterfaceId a, InterfaceId b,
                  std::optional<packet::Ipv4Prefix> subnet = std::nullopt);

  /// Append a rule to one of a device's tables (forwarding table by
  /// default). Rules are kept sorted by ascending `priority` (stable for
  /// equal priorities). Returns the global RuleId.
  RuleId add_rule(DeviceId device, MatchSpec match, Action action,
                  RouteKind kind = RouteKind::Other, uint32_t priority = 0,
                  TableKind table = TableKind::Fib);

  /// A forwarding-table rule that matches a dst prefix only and rewrites
  /// nothing: what a FIB build installs. `type` is Forward or Drop (a drop
  /// takes no interfaces). The interfaces are interned straight from the
  /// caller's storage (never a span this network handed out), so the call
  /// allocates only when a table, the rule array or the group pool grows.
  RuleId add_fib_rule(DeviceId device, const packet::Ipv4Prefix& dst, ActionType type,
                      std::span<const InterfaceId> out_interfaces, RouteKind kind,
                      uint32_t priority);

  /// Room for `count` rules in the rule array, and for `count` in one of a
  /// device's tables: a FIB build reserves each once.
  void reserve_rules(size_t count);
  void reserve_table(DeviceId device, TableKind table, size_t count);

  /// Replace a rule's action, re-interning its group: fault injection in
  /// tests and what-if analyses. The match and the table order stay.
  void set_action(RuleId id, const Action& action);

  /// Drop all rules from every device (used when recomputing FIBs).
  void clear_rules();

  /// The whole rule store, to save and later reinstate with restore_rules
  /// (the devices must not have changed in between).
  [[nodiscard]] const RuleStore& rule_store() const { return store_; }
  void restore_rules(const RuleStore& saved);

  // --- Accessors ---

  [[nodiscard]] const Device& device(DeviceId id) const { return devices_[id.value]; }
  [[nodiscard]] Device& device(DeviceId id) { return devices_[id.value]; }
  [[nodiscard]] const Interface& interface(InterfaceId id) const {
    return interfaces_[id.value];
  }
  [[nodiscard]] Interface& interface(InterfaceId id) { return interfaces_[id.value]; }
  [[nodiscard]] const Link& link(LinkId id) const { return links_[id.value]; }
  [[nodiscard]] const Rule& rule(RuleId id) const { return store_.rules[id.value]; }

  // --- A rule's out-of-line parts ---
  //
  // Spans point into the group pool or the side table and stay valid only
  // until the next add_rule, add_fib_rule, set_action, clear_rules or
  // restore_rules: never hold one across a mutation.

  [[nodiscard]] std::span<const InterfaceId> out_interfaces(RuleId id) const {
    return store_.groups.out_interfaces(rule(id).group_);
  }
  [[nodiscard]] std::span<const Rewrite> rewrites(RuleId id) const {
    return store_.groups.rewrites(rule(id).group_);
  }
  /// The ingress interfaces the rule is restricted to (empty = any).
  [[nodiscard]] std::span<const InterfaceId> in_interfaces(RuleId id) const {
    const Rule& r = rule(id);
    if (!r.has_rare_fields()) return {};
    return store_.rare[r.rare_].in_interfaces;
  }
  /// The full match field, rebuilt: for the rare reader that needs all of it.
  [[nodiscard]] MatchSpec match_spec(RuleId id) const;
  /// The action, rebuilt as a value (two vector copies).
  [[nodiscard]] Action action(RuleId id) const;
  /// What the rule is, as a fixed-size value (no group id: never content).
  [[nodiscard]] RuleContent rule_content(RuleId id) const;
  /// Does a concrete packet arriving on `in_interface` match the rule's
  /// match field (an invalid interface matches any ingress restriction)?
  [[nodiscard]] bool matches(RuleId id, const packet::ConcretePacket& pkt,
                             InterfaceId in_interface) const;
  /// `rule#ID[match -> fwd(out,...)]` or `rule#ID[match -> drop]`.
  [[nodiscard]] std::string rule_to_string(RuleId id) const;

  [[nodiscard]] size_t device_count() const { return devices_.size(); }
  [[nodiscard]] size_t interface_count() const { return interfaces_.size(); }
  [[nodiscard]] size_t link_count() const { return links_.size(); }
  [[nodiscard]] size_t rule_count() const { return store_.rules.size(); }
  /// Distinct (out-interface list, rewrite list) groups the rules name.
  [[nodiscard]] size_t group_count() const { return store_.groups.size(); }
  /// Heap bytes of the rule store (RuleStore::bytes).
  [[nodiscard]] size_t rule_bytes() const { return store_.bytes(); }

  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<Interface>& interfaces() const { return interfaces_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const std::vector<Rule>& rules() const { return store_.rules; }

  /// Ordered forwarding table of a device (S[v] in the paper).
  [[nodiscard]] std::span<const RuleId> table(DeviceId id) const {
    return store_.tables[id.value][static_cast<size_t>(TableKind::Fib)];
  }

  /// Ordered rule list of one of the device's tables.
  [[nodiscard]] std::span<const RuleId> table(DeviceId id, TableKind kind) const {
    return store_.tables[id.value][static_cast<size_t>(kind)];
  }

  /// True if the device has an ingress ACL stage.
  [[nodiscard]] bool has_acl(DeviceId id) const {
    return !store_.tables[id.value][static_cast<size_t>(TableKind::Acl)].empty();
  }

  /// Device on the far side of an interface's link (invalid if unconnected).
  [[nodiscard]] DeviceId neighbor(InterfaceId id) const {
    const InterfaceId peer = interfaces_[id.value].peer;
    return peer.valid() ? interfaces_[peer.value].device : DeviceId{};
  }

  /// All (interface, neighbor-device) pairs of a device's connected ports.
  [[nodiscard]] std::vector<std::pair<InterfaceId, DeviceId>> neighbors(DeviceId id) const;

  /// Find a device by name (linear scan; for tests and examples).
  [[nodiscard]] std::optional<DeviceId> find_device(std::string_view name) const;

  /// The interface of `from` that faces `to` (first such), if any.
  [[nodiscard]] std::optional<InterfaceId> interface_towards(DeviceId from,
                                                             DeviceId to) const;

  /// Devices of a given role.
  [[nodiscard]] std::vector<DeviceId> devices_with_role(Role role) const;

  [[nodiscard]] std::string summary() const;

 private:
  /// Numbers `rule` (its group and match set by the caller) and appends it
  /// to the rule array and, in priority order, to its table.
  RuleId insert(Rule rule);

  std::vector<Device> devices_;
  std::vector<Interface> interfaces_;
  std::vector<Link> links_;
  RuleStore store_;
  std::unordered_map<std::string, DeviceId> device_by_name_;
};

/// Content key of a rule, `device|table|priority|match|kind`: the
/// rendering of its RuleContent (`content.device` must be a device of
/// `network`). Identifies a rule by what it *is* rather than by its
/// positional RuleId, so reports stay comparable across runs that renumber
/// rules (FIB recomputation, failure scenarios, suite deltas). Rules that
/// are byte-identical under this key are deliberately conflated — callers
/// that need uniqueness disambiguate with a positional suffix (see
/// scenario::ScenarioRunner and the gap report's collapsed-rule
/// annotations).
[[nodiscard]] std::string rule_content_key(const Network& network, const RuleContent& content);

}  // namespace yardstick::net
