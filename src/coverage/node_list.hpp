// NodeList — the one validator for a serialized BDD node list.
//
// The persisted trace and the result cache (yardstick/persist.*) and the
// wire delta (netio/frame.*) each carry their BDDs the same way: one
// (var, low, high) triple per node, children before parents, references
// 0/1 for the terminals and n >= 2 for the (n-2)-th node, and location
// roots that point into the list. Each format keeps its own token reader
// and its own count-plausibility rule; the structural checks live here,
// once, so every decoder accepts and rejects exactly the same node lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace yardstick::coverage {

/// Rebuilds a node list inside a manager, trusting nothing. Every failed
/// check throws ys::CorruptTraceError (Detail::Corrupted) naming `source`.
class NodeList {
 public:
  /// `count` is the announced node count (already judged plausible).
  NodeList(bdd::BddManager& mgr, size_t count, const char* source);

  /// Validate and materialize the next node: a variable in range, children
  /// that are earlier references only (anything else could knit cycles or
  /// dangling structure into the arena), and strict ordering — children sit
  /// at deeper levels than their parent, or the diagram would be
  /// non-canonical and its model counts silently wrong.
  void add(uint32_t var, uint32_t low, uint32_t high);

  /// The manager node behind a location's root reference.
  [[nodiscard]] bdd::NodeIndex root(uint32_t ref) const;

  /// File reference -> manager node (0/1 are the terminals).
  [[nodiscard]] size_t size() const { return by_ref_.size(); }
  [[nodiscard]] bdd::NodeIndex operator[](uint32_t ref) const { return by_ref_[ref]; }

 private:
  [[noreturn]] void fail(const std::string& why) const;

  bdd::BddManager* mgr_;
  const char* source_;
  std::vector<bdd::NodeIndex> by_ref_;
};

}  // namespace yardstick::coverage
