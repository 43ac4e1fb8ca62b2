// GcRootTracker — phase-boundary GC driver for builders that own every
// live handle of a private BddManager.
//
// The engine's garbage collector (BddManager::collect) is explicit: the
// caller names the roots and fixes up its handles through the returned
// remap. That contract is only safe for managers whose complete live set
// one builder can enumerate — in practice the short-lived per-worker shard
// managers of the parallel offline phase, where the worker owns every
// PacketSet it has produced so far. The engine's primary manager is never
// collected: it holds handles the engine does not own (trace slices,
// caller copies), so enumerating its roots is impossible.
//
// Usage: track() each result slot as it is written, poll due() at a device
// boundary, and call collect() which gathers roots, compacts, and rewrites
// every tracked handle of this manager in place. A tracked slot may hold
// another manager's handle (a shard writes the primary's M[r] for a
// state-inspected rule into its slot): it is neither a root nor rewritten.
//
// Lifetime: tracked pointers are raw. Builders must only track slots in
// containers that are pre-sized before the build loop (the sharded build
// sizes its owner's result vectors once, before any worker starts), so the
// pointers stay stable for the tracker's lifetime.
#pragma once

#include <vector>

#include "bdd/bdd.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::packet {

class GcRootTracker {
 public:
  explicit GcRootTracker(bdd::BddManager& mgr) : mgr_(mgr) {}

  GcRootTracker(const GcRootTracker&) = delete;
  GcRootTracker& operator=(const GcRootTracker&) = delete;

  /// Register a handle slot that must survive (and be rewritten by) every
  /// future collect(). A slot holding an invalid (default) PacketSet or
  /// another manager's handle contributes no root and is left untouched.
  void track(PacketSet& ps) { owned_.push_back(&ps); }

  [[nodiscard]] bool due() const { return mgr_.gc_due(); }
  [[nodiscard]] bdd::BddManager& manager() const { return mgr_; }

  /// Unconditional collection: gathers roots from the tracked slots that
  /// hold this manager's handles, mark-compacts the manager, then rewrites
  /// those handles (and, when given, an importer whose *destination* is
  /// this manager) through the remap. Handles of this manager not tracked
  /// here are invalid afterwards.
  bdd::GcResult collect(bdd::BddImporter* dst_importer = nullptr) {
    roots_.clear();
    roots_.reserve(owned_.size());
    for (const PacketSet* ps : owned_) {
      if (ps->raw().manager() == &mgr_) roots_.push_back(ps->raw().index());
    }
    bdd::GcResult gc = mgr_.collect(roots_);
    for (PacketSet* ps : owned_) {
      if (ps->raw().manager() == &mgr_) {
        *ps = PacketSet(bdd::Bdd(&mgr_, gc.map(ps->raw().index())));
      }
    }
    if (dst_importer != nullptr) dst_importer->rekey_destination(gc);
    return gc;
  }

 private:
  bdd::BddManager& mgr_;
  std::vector<PacketSet*> owned_;
  std::vector<bdd::NodeIndex> roots_;
};

}  // namespace yardstick::packet
