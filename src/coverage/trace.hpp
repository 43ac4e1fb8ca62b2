// CoverageTrace — the compact record (P_T, R_T) of everything a test suite
// reported (§5.2).
//
// P_T is the union of all located packet sets passed to markPacket; R_T is
// the set of rules passed to markRule. No log is kept: the trace stores one
// set per location, which bounds memory by the size of the distinct header
// space touched rather than the number of API calls. Reports arrive one at
// a time (mark_packet) or in batches (fold, DESIGN.md §19).
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netmodel/network.hpp"
#include "packet/located_packet_set.hpp"

namespace yardstick::coverage {

/// One markPacket report awaiting a fold: a location and the root of its
/// packet set in the manager the batch shares.
struct PacketReport {
  packet::LocationId location = packet::kNoLocation;
  bdd::NodeIndex packets = bdd::kFalse;
};

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

  /// Record a batch of reports whose sets live in `mgr`; the trace ends
  /// as if each had been one mark_packet call, in any order. Each
  /// location's new set, the union of its reports and its current set, is
  /// one bdd::NaryUnion, and one memo serves every location of the batch.
  /// Every new set is computed before any is stored, so an exception (a
  /// tripped budget, an injected fault) leaves the trace as it was.
  /// Returns the number of locations the batch touched.
  size_t fold(bdd::BddManager& mgr, std::span<const PacketReport> reports) {
    // Group the reports by location, in order of first appearance, behind
    // one slot per group for the location's current set: a counting sort,
    // about ten times cheaper than sorting the reports. NaryUnion sorts
    // each group and drops its duplicates.
    std::unordered_map<packet::LocationId, uint32_t> group_of;
    std::vector<packet::LocationId> locations;
    std::vector<uint32_t> group(reports.size());
    for (size_t i = 0; i < reports.size(); ++i) {
      const auto [it, fresh] = group_of.try_emplace(reports[i].location,
                                                    static_cast<uint32_t>(locations.size()));
      if (fresh) locations.push_back(reports[i].location);
      group[i] = it->second;
    }
    std::vector<uint32_t> start(locations.size() + 1, 0);
    for (const uint32_t g : group) ++start[g + 1];
    for (size_t g = 0; g < locations.size(); ++g) start[g + 1] += start[g] + 1;
    std::vector<bdd::NodeIndex> operands(start.back());
    std::vector<uint32_t> next(start.begin(), start.end() - 1);
    for (size_t g = 0; g < locations.size(); ++g) {
      const packet::PacketSet current = marked_packets_.at(locations[g]);
      operands[next[g]++] = current.valid() ? current.raw().index() : bdd::kFalse;
    }
    for (size_t i = 0; i < reports.size(); ++i) operands[next[group[i]]++] = reports[i].packets;

    bdd::NaryUnion nary(mgr);
    std::vector<bdd::NodeIndex> folded(locations.size());
    for (size_t g = 0; g < locations.size(); ++g) {
      folded[g] = nary.unite(std::span(operands).subspan(start[g], start[g + 1] - start[g]));
    }
    for (size_t g = 0; g < locations.size(); ++g) {
      if (folded[g] != bdd::kFalse) {
        marked_packets_.assign(locations[g], packet::PacketSet(bdd::Bdd(&mgr, folded[g])));
      }
    }
    return locations.size();
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
