// Covered-set computation — Algorithm 1 of the paper.
//
// For every rule r, the covered set T[r] is:
//   * M[r] when r was reported by a state-inspection test (r in R_T) —
//     inspecting a rule covers everything the rule applies to;
//   * P_T|device(r)  intersect  M[r] otherwise — the headers behavioral
//     tests reported at the rule's device, clipped to the rule's disjoint
//     match set.
//
// Covered sets are the bridge between the trace (what tests reported) and
// every coverage metric (what fraction of each component's ATUs that
// reaches).
#pragma once

#include <vector>

#include "coverage/trace.hpp"
#include "dataplane/match_sets.hpp"

namespace yardstick::coverage {

/// Per-device Algorithm-1 results restored from the incremental cache
/// (src/yardstick/cache.*). Devices with `device_hit` set have the covered
/// sets of all their rules already present in `covered` (living in the
/// index's manager); the constructor adopts them and runs Algorithm 1 only
/// for the remaining devices.
struct CoverPrefill {
  std::vector<packet::PacketSet> covered;  // indexed by RuleId
  std::vector<char> device_hit;            // indexed by DeviceId

  [[nodiscard]] bool hit(net::DeviceId id) const {
    return id.value < device_hit.size() && device_hit[id.value] != 0;
  }
};

class CoveredSets {
 public:
  /// Runs Algorithm 1 for every rule in the network, in the index's
  /// manager, one device at a time in device order. Most rules are decided
  /// on the device headers' cofactor at the rule's dst prefix, with no BDD
  /// operation (DESIGN.md §22).
  ///
  /// The index manager's budget (may be null) bounds the computation: when
  /// it trips mid-walk the remaining rules get empty covered sets,
  /// truncated() flips to true, and construction completes without
  /// throwing.
  ///
  /// `prefill` (cached covered sets for a subset of devices, may be null)
  /// supplies the devices it hits; the rest are walked. Every covered set
  /// is canonical in the index's manager, so the result is bit-identical
  /// prefilled or not.
  CoveredSets(const dataplane::MatchSetIndex& index, const CoverageTrace& trace,
              const CoverPrefill* prefill = nullptr);

  /// Structural clone onto another index (itself a clone of the original
  /// index into a different manager): copies every covered set into
  /// `index.manager()`. Read-only with respect to `other`, so concurrent
  /// workers may each clone the same covered sets into private managers.
  CoveredSets(const dataplane::MatchSetIndex& index, const CoveredSets& other);

  /// True when a resource budget stopped Algorithm 1 early; covered sets
  /// for the rules never reached are empty (coverage under-reported).
  [[nodiscard]] bool truncated() const { return truncated_; }

  /// T[r]: packets with which the suite exercised rule r.
  [[nodiscard]] const packet::PacketSet& covered(net::RuleId rule) const {
    return covered_[rule.value];
  }

  /// |T[r]| (exact).
  [[nodiscard]] bdd::Uint128 covered_size(net::RuleId rule) const {
    return covered_[rule.value].count();
  }

  /// Covered set of rule r restricted to packets arriving on `intf` —
  /// the guard restriction used by incoming-interface coverage (§4.3.2).
  /// State-inspected rules still count in full.
  [[nodiscard]] packet::PacketSet covered_on_interface(net::RuleId rule,
                                                       net::InterfaceId intf) const;

  [[nodiscard]] const dataplane::MatchSetIndex& index() const { return index_; }
  [[nodiscard]] const CoverageTrace& trace() const { return trace_; }
  [[nodiscard]] const net::Network& network() const { return index_.network(); }
  [[nodiscard]] bdd::BddManager& manager() const { return index_.manager(); }

 private:
  const dataplane::MatchSetIndex& index_;
  const CoverageTrace& trace_;
  std::vector<packet::PacketSet> covered_;  // T[r], indexed by RuleId
  bool truncated_ = false;
};

}  // namespace yardstick::coverage
