// The storage behind a Network's forwarding state: the rule array, the
// per-device tables, the interned action groups and the side table of rare
// match fields (DESIGN.md §21). Only Network reads these types; everything
// else goes through Network's accessors.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "netmodel/ids.hpp"
#include "netmodel/rule.hpp"

namespace yardstick::net {

/// A network's distinct (out-interface list, rewrite list) pairs, each
/// stored once. A FIB holds few distinct next-hop sets, so a rule names its
/// pair by group id instead of owning two vectors. Group ids follow
/// insertion order and differ between networks: they are never content.
/// Spans handed out stay valid only until the next intern() or clear().
class GroupPool {
 public:
  /// The group with no interfaces and no rewrites (drop and permit rules).
  static constexpr uint32_t kEmpty = 0;

  GroupPool() { clear(); }

  /// The id of the group with exactly these contents, added if new.
  /// Allocates only when the pool grows.
  uint32_t intern(std::span<const InterfaceId> out_interfaces,
                  std::span<const Rewrite> rewrites);

  [[nodiscard]] std::span<const InterfaceId> out_interfaces(uint32_t group) const {
    const uint32_t begin = group == 0 ? 0 : out_end_[group - 1];
    return {outs_.data() + begin, out_end_[group] - begin};
  }

  [[nodiscard]] std::span<const Rewrite> rewrites(uint32_t group) const {
    const uint32_t begin = group == 0 ? 0 : rewrite_end_[group - 1];
    return {rewrites_.data() + begin, rewrite_end_[group] - begin};
  }

  [[nodiscard]] size_t size() const { return out_end_.size(); }

  /// Heap bytes held (capacities, not sizes).
  [[nodiscard]] size_t bytes() const;

  /// Back to the one empty group.
  void clear();

 private:
  static uint32_t hash(std::span<const InterfaceId> out_interfaces,
                       std::span<const Rewrite> rewrites);
  void rehash(size_t slots);

  // Group g's interfaces are outs_[out_end_[g - 1], out_end_[g]) (from 0
  // for g = 0), and likewise its rewrites.
  std::vector<uint32_t> out_end_;
  std::vector<InterfaceId> outs_;
  std::vector<uint32_t> rewrite_end_;
  std::vector<Rewrite> rewrites_;
  /// Open addressing, a power of two at most half full: hash << 32 | group
  /// + 1, 0 when free.
  std::vector<uint64_t> slots_;
};

/// The match fields a rule rarely has, kept out of line: every MatchSpec
/// field but the dst prefix. `present` uses RuleContent's bits.
struct RareMatch {
  uint8_t present = 0;
  uint8_t proto = 0;
  packet::Ipv4Prefix src_prefix;
  PortRange src_port;
  PortRange dst_port;
  std::vector<InterfaceId> in_interfaces;
};

/// Everything a Network knows about its rules, as one value: a scenario
/// run saves it after the baseline and reinstates it at the end.
struct RuleStore {
  std::vector<Rule> rules;
  /// Per device, per TableKind, rule ids in priority order.
  std::vector<std::array<std::vector<RuleId>, kTableCount>> tables;
  GroupPool groups;
  std::vector<RareMatch> rare;  // the side table, indexed by Rule::rare_

  /// Heap bytes of the rule array, the tables, the group pool and the side
  /// table (capacities, not sizes).
  [[nodiscard]] size_t bytes() const;
};

}  // namespace yardstick::net
