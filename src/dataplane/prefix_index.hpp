// Exact dst-prefix lookup over the forwarding tables (DESIGN.md §18).
//
// The state-inspection and local contract tests ask one question per
// (device, prefix): which FIB rule is written for exactly this prefix? A
// PrefixIndex answers it with one binary search instead of a table scan.
// MatchSetIndex builds it once per snapshot, and its clones share it.
#pragma once

#include <cstdint>
#include <vector>

#include "netmodel/network.hpp"

namespace yardstick::dataplane {

class PrefixIndex {
 public:
  /// Indexes every FIB rule that has a dst prefix. ACL tables are not
  /// indexed. No BDD work; read-only afterwards, so concurrent readers need
  /// no lock.
  explicit PrefixIndex(const net::Network& network);

  /// The first rule in `network.table(device)` order whose dst prefix
  /// equals `prefix`, of any route kind; an invalid id when no FIB rule has
  /// it. A rule without a dst prefix never answers, not even for /0.
  [[nodiscard]] net::RuleId find(net::DeviceId device, const packet::Ipv4Prefix& prefix) const;

  /// Indexed (device, dst prefix) pairs, one per distinct prefix in a FIB.
  [[nodiscard]] size_t entries() const { return keys_.size(); }
  /// Bytes of the three arrays: 12 per entry plus 4 per device.
  [[nodiscard]] size_t bytes() const;

 private:
  /// Device d's entries are [offsets_[d], offsets_[d + 1]).
  std::vector<uint32_t> offsets_;
  /// (length << 32) | masked address, ascending within each device.
  std::vector<uint64_t> keys_;
  /// The rule each key maps to (parallel to keys_).
  std::vector<net::RuleId> rules_;
};

}  // namespace yardstick::dataplane
