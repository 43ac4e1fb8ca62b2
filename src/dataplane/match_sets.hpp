// Match-set computation (§5.2 step 1).
//
// A rule's *match field* is the packet set written in the table entry. Its
// *match set* M[r] is the disjoint set the rule actually applies to under
// first-match semantics: the match field minus everything consumed by
// earlier rules in the same table. Coverage is always computed against
// M[r], which is what makes the metrics semantics-based (§3.2) — a packet
// matching the default route exercises only the default rule, regardless
// of how a device implementation would scan the table.
#pragma once

#include <vector>

#include "bdd/bdd.hpp"
#include "netmodel/network.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::dataplane {

/// Per-device step-1 results restored from the incremental cache
/// (src/yardstick/cache.*). Devices with `device_hit` set have all four
/// outputs already present in the vectors below, as packet sets living in
/// the destination manager; the constructor adopts them verbatim and walks
/// only the remaining devices. Every vector is sized like the
/// corresponding index member (rule- or device-indexed).
struct MatchPrefill {
  std::vector<char> device_hit;                   // indexed by DeviceId
  std::vector<packet::PacketSet> match_fields;    // indexed by RuleId
  std::vector<packet::PacketSet> match_sets;      // indexed by RuleId
  std::vector<packet::PacketSet> matched_space;   // indexed by DeviceId
  std::vector<packet::PacketSet> acl_permitted;   // indexed by DeviceId

  [[nodiscard]] bool hit(net::DeviceId id) const {
    return id.value < device_hit.size() && device_hit[id.value] != 0;
  }
};

class MatchSetIndex {
 public:
  /// Computes match fields and disjoint match sets for every rule in the
  /// network. Cost is one linear walk per device table.
  ///
  /// `budget` (non-owning, may be null) bounds the computation: when the
  /// deadline, node cap or cancel flag trips mid-walk, the remaining rules
  /// get empty match sets (and reached() == false), truncated() flips to
  /// true, and construction completes without throwing — partial results
  /// instead of a runaway.
  ///
  /// `threads` > 1 shards the per-device walks across that many worker
  /// threads, each building in its own BddManager, and merges the results
  /// into `mgr` via memoized structural import. The merged sets are
  /// canonical in `mgr` and semantically identical to a serial build, so
  /// every size/count downstream is bit-identical regardless of thread
  /// count (0 = one worker per hardware thread).
  ///
  /// `prefill` (non-owning, may be null) supplies cached step-1 results
  /// for a subset of devices; only the misses are walked (serially or
  /// sharded). Because both cached and recomputed sets are canonical in
  /// `mgr`, a prefilled build is bit-identical to a full one.
  ///
  /// `gc_threshold` in (0, 1] arms phase-boundary mark-compact GC on the
  /// per-worker shard managers: after each device's walk, a shard whose
  /// dead fraction may have reached the threshold is collected against the
  /// results built so far. Enabling GC forces the sharded build path even
  /// at one thread (the primary manager is never collected — it holds
  /// handles this builder does not own), which is bit-identical to the
  /// serial path by the merge-canonicalization argument above. 0 disables.
  MatchSetIndex(bdd::BddManager& mgr, const net::Network& network,
                const ys::ResourceBudget* budget = nullptr, unsigned threads = 1,
                const MatchPrefill* prefill = nullptr, double gc_threshold = 0.0);

  /// Structural clone into another manager: copies every packet set of
  /// `other` into `dst` (memoized import, shared subgraphs copied once).
  /// Read-only with respect to `other`, so concurrent workers may each
  /// clone the same index into their private managers.
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

  /// The raw match field of the rule (what the table entry says).
  [[nodiscard]] const packet::PacketSet& match_field(net::RuleId id) const {
    return match_fields_[id.value];
  }

  /// The disjoint match set M[r] (match field minus earlier rules).
  [[nodiscard]] const packet::PacketSet& match_set(net::RuleId id) const {
    return match_sets_[id.value];
  }

  /// Exact size |M[r]| of the disjoint match set.
  [[nodiscard]] bdd::Uint128 match_set_size(net::RuleId id) const {
    return match_sets_[id.value].count();
  }

  /// Union of all match sets in the device's forwarding table: the packet
  /// space the FIB handles at all (unmatched packets drop ruleless-ly).
  [[nodiscard]] const packet::PacketSet& matched_space(net::DeviceId id) const {
    return matched_space_[id.value];
  }

  /// Packets the device's ingress ACL lets through to the FIB: the union
  /// of the permit rules' match sets; everything (an always-true set) on
  /// devices without an ACL stage. Behavioral coverage of FIB rules is
  /// clipped by this space — packets the ACL denies never exercise the
  /// FIB (§4.1 multi-table extension).
  [[nodiscard]] const packet::PacketSet& acl_permitted_space(net::DeviceId id) const {
    return acl_permitted_[id.value];
  }

  [[nodiscard]] bdd::BddManager& manager() const { return mgr_; }
  [[nodiscard]] const net::Network& network() const { return network_; }

  /// Build just the match field for a MatchSpec (header dimensions only;
  /// in-interface restrictions are handled by the transfer function).
  static packet::PacketSet build_match_field(bdd::BddManager& mgr,
                                             const net::MatchSpec& spec);

 private:
  bdd::BddManager& mgr_;
  const net::Network& network_;
  std::vector<packet::PacketSet> match_fields_;  // indexed by RuleId
  std::vector<packet::PacketSet> match_sets_;    // indexed by RuleId
  std::vector<packet::PacketSet> matched_space_;  // indexed by DeviceId
  std::vector<packet::PacketSet> acl_permitted_;  // indexed by DeviceId
  std::vector<char> unreached_;  // indexed by RuleId; empty unless truncated
  bool truncated_ = false;
};

}  // namespace yardstick::dataplane
