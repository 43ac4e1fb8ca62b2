// CoverageTrace — the compact record (P_T, R_T) of everything a test suite
// reported (§5.2).
//
// P_T is the union of all located packet sets passed to markPacket; R_T is
// the set of rules passed to markRule. The union is maintained on the fly
// (no log is kept), which bounds memory by the size of the distinct header
// space touched rather than the number of API calls.
#pragma once

#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netmodel/network.hpp"
#include "packet/located_packet_set.hpp"

namespace yardstick::coverage {

class CoverageTrace {
 public:
  /// Record located packets used by a behavioral test.
  void mark_packet(const packet::LocatedPacketSet& packets) {
    marked_packets_ = marked_packets_.union_with(packets);
  }

  /// Record packets at a single location.
  void mark_packet(packet::LocationId location, const packet::PacketSet& packets) {
    marked_packets_.insert(location, packets);
  }

  /// Record a rule inspected by a state-inspection test.
  void mark_rule(net::RuleId rule) { marked_rules_.insert(rule); }

  /// Merge another trace into this one (e.g. traces from parallel test
  /// shards); the result is as if all calls had been made on one trace.
  void merge(const CoverageTrace& other) {
    marked_packets_ = marked_packets_.union_with(other.marked_packets_);
    marked_rules_.insert(other.marked_rules_.begin(), other.marked_rules_.end());
  }

  void clear() {
    marked_packets_ = {};
    marked_rules_.clear();
  }

  [[nodiscard]] const packet::LocatedPacketSet& marked_packets() const {
    return marked_packets_;
  }
  [[nodiscard]] const std::unordered_set<net::RuleId>& marked_rules() const {
    return marked_rules_;
  }

  [[nodiscard]] bool rule_marked(net::RuleId rule) const {
    return marked_rules_.contains(rule);
  }

  /// Structural copy of this trace into another manager: every located
  /// packet set is imported into `dst` (memoized per source manager, so
  /// shared subgraphs copy once); marked rules carry over verbatim.
  /// Read-only on *this, so concurrent workers may each import the same
  /// trace into their private managers.
  [[nodiscard]] CoverageTrace imported_into(bdd::BddManager& dst) const {
    CoverageTrace out;
    out.marked_rules_ = marked_rules_;
    std::vector<std::pair<const bdd::BddManager*, std::unique_ptr<bdd::BddImporter>>>
        importers;
    for (const auto& [loc, ps] : marked_packets_.entries()) {
      const bdd::BddManager* src = ps.raw().manager();
      if (src == nullptr || src == &dst) {
        out.marked_packets_.insert(loc, ps);
        continue;
      }
      bdd::BddImporter* imp = nullptr;
      for (auto& [m, i] : importers) {
        if (m == src) {
          imp = i.get();
          break;
        }
      }
      if (imp == nullptr) {
        importers.emplace_back(src, std::make_unique<bdd::BddImporter>(dst, *src));
        imp = importers.back().second.get();
      }
      out.marked_packets_.insert(loc, packet::PacketSet(imp->import(ps.raw())));
    }
    return out;
  }

  /// Headers reported as arriving on one specific interface.
  [[nodiscard]] packet::PacketSet headers_at_interface(bdd::BddManager& mgr,
                                                       net::InterfaceId intf) const {
    const packet::PacketSet at = marked_packets_.at(net::to_location(intf));
    return at.valid() ? at : packet::PacketSet::none(mgr);
  }

 private:
  packet::LocatedPacketSet marked_packets_;
  std::unordered_set<net::RuleId> marked_rules_;
};

}  // namespace yardstick::coverage
