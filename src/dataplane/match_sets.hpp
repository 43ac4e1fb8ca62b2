// Match-set computation (§5.2 step 1).
//
// A rule's *match field* is the packet set written in the table entry. Its
// *match set* M[r] is the disjoint set the rule actually applies to under
// first-match semantics: the match field minus everything consumed by
// earlier rules in the same table. Coverage is always computed against
// M[r], which is what makes the metrics semantics-based (§3.2) — a packet
// matching the default route exercises only the default rule, regardless
// of how a device implementation would scan the table.
//
// The index stores what later steps read: M[r] per rule and the
// ACL-permitted space per device. A build walks the devices in order in one
// manager, makes each distinct match field once, and a rule pays a set
// difference only when an earlier rule of its table may overlap it
// (DESIGN.md §20); build_match_field() builds one field on demand.
#pragma once

#include <memory>
#include <vector>

#include "bdd/bdd.hpp"
#include "dataplane/prefix_index.hpp"
#include "netmodel/network.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::dataplane {

/// Step 1's outputs: every rule's disjoint match set and every device's
/// ACL-permitted space. The index and a cache prefill hold one each.
struct MatchSlots {
  std::vector<packet::PacketSet> match_sets;     // indexed by RuleId
  std::vector<packet::PacketSet> acl_permitted;  // indexed by DeviceId
};

/// Per-device step-1 results restored from the incremental cache
/// (src/yardstick/cache.*). Devices with `device_hit` set have both
/// outputs already present, as packet sets living in the destination
/// manager; the constructor adopts them verbatim and walks only the
/// remaining devices. Every vector is sized like the index's.
struct MatchPrefill : MatchSlots {
  std::vector<char> device_hit;  // indexed by DeviceId

  [[nodiscard]] bool hit(net::DeviceId id) const {
    return id.value < device_hit.size() && device_hit[id.value] != 0;
  }
};

class MatchSetIndex {
 public:
  /// Computes the disjoint match set of every rule in the network. Cost is
  /// one linear walk per device table, with BDD work only for fields not
  /// built yet and for rules an earlier rule of their table overlaps.
  ///
  /// `mgr`'s budget (BddManager::budget(), may be null) bounds the
  /// computation: when the deadline, node cap or cancel flag trips
  /// mid-walk, the remaining rules get empty match sets (and reached() ==
  /// false), truncated() flips to true, and construction completes without
  /// throwing — partial results instead of a runaway.
  ///
  /// `prefill` (cached results for a subset of devices, may be null)
  /// supplies the devices it hits; the rest are walked in device order in
  /// `mgr`, so the index is bit-identical prefilled or not.
  ///
  /// It also builds the snapshot's PrefixIndex from the FIB tables, in
  /// full: no BDD work, so neither the budget nor the prefill touches it.
  MatchSetIndex(bdd::BddManager& mgr, const net::Network& network,
                const MatchPrefill* prefill = nullptr);

  /// Structural clone into another manager: copies every packet set of
  /// `other` into `dst` (memoized import, shared subgraphs copied once),
  /// and shares `other`'s PrefixIndex rather than building one. Read-only
  /// with respect to `other`, so concurrent workers may each clone the same
  /// index into their private managers.
  MatchSetIndex(bdd::BddManager& dst, const MatchSetIndex& other);

  /// True when a resource budget stopped the computation early; every
  /// accessor below then under-reports for the rules never reached.
  [[nodiscard]] bool truncated() const { return truncated_; }

  /// False for a rule a truncated build never gave a match set. Its empty
  /// match_set() then means "never computed", not "shadowed", so metric
  /// folds must not read it as vacuously covered.
  [[nodiscard]] bool reached(net::RuleId id) const {
    return unreached_.empty() || unreached_[id.value] == 0;
  }

  /// The disjoint match set M[r] (match field minus earlier rules).
  [[nodiscard]] const packet::PacketSet& match_set(net::RuleId id) const {
    return sets_.match_sets[id.value];
  }

  /// Exact size |M[r]| of the disjoint match set.
  [[nodiscard]] bdd::Uint128 match_set_size(net::RuleId id) const {
    return sets_.match_sets[id.value].count();
  }

  /// Packets the device's ingress ACL lets through to the FIB: the union
  /// of the permit rules' match sets; everything (an always-true set) on
  /// devices without an ACL stage. Behavioral coverage of FIB rules is
  /// clipped by this space — packets the ACL denies never exercise the
  /// FIB (§4.1 multi-table extension).
  [[nodiscard]] const packet::PacketSet& acl_permitted_space(net::DeviceId id) const {
    return sets_.acl_permitted[id.value];
  }

  /// The snapshot's exact dst-prefix lookup, shared by every clone.
  [[nodiscard]] const PrefixIndex& prefixes() const { return *prefixes_; }

  [[nodiscard]] bdd::BddManager& manager() const { return mgr_; }
  [[nodiscard]] const net::Network& network() const { return network_; }

  /// Build the match field for a MatchSpec: the packet set the table
  /// entry says (header dimensions only; in-interface restrictions are
  /// handled by the transfer function). Step 1 builds each distinct field
  /// once per build and keeps only the rules' disjoint parts.
  static packet::PacketSet build_match_field(bdd::BddManager& mgr,
                                             const net::MatchSpec& spec);

 private:
  bdd::BddManager& mgr_;
  const net::Network& network_;
  MatchSlots sets_;
  std::shared_ptr<const PrefixIndex> prefixes_;
  std::vector<char> unreached_;  // indexed by RuleId; empty unless truncated
  bool truncated_ = false;
};

/// Copies `from`, sets of `imp`'s source manager, into its destination in
/// order. A clone passes one importer for all its vectors, so a subgraph
/// they share is copied once. Read-only on the source, so concurrent
/// workers may each copy the same sets into a private manager.
[[nodiscard]] std::vector<packet::PacketSet> import_sets(
    bdd::BddImporter& imp, const std::vector<packet::PacketSet>& from);

}  // namespace yardstick::dataplane
