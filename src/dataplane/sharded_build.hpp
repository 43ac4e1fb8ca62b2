// Shard-and-merge driver for the per-device offline builds: match sets
// (§5.2 step 1, MatchSetIndex) and covered sets (step 2, CoveredSets).
//
// Both builds are one walk per device that writes PacketSets into rule- and
// device-indexed slots. A builder supplies only that walk and the layout of
// its slots; this driver owns the parallel build policy (DESIGN.md §8, §12):
//
//   * One slot set. The owner's slots are sized once, before any worker
//     starts, and every device's slots are written only by the worker that
//     walks the device, so workers write into them concurrently, lock-free.
//   * Work list. Devices a cache prefill hit are adopted as handle copies
//     (no BDD operation, no budget charge); only the rest are walked.
//   * Where devices are built. One worker with GC off builds in the primary
//     manager. More workers, or an armed GC, build in per-worker shard
//     managers, worker w taking work items w, w+T, w+2T, ... GC needs
//     shards because the primary holds handles no builder owns, so it is
//     never collected. A walk in a shard may still write a primary handle
//     (Algorithm 1's M[r] for a state-inspected rule).
//   * Budget. The primary manager's budget governs the primary and every
//     shard: each shard attaches it (bdd::ScopedBudget), holds its node
//     charge until the merge completes and releases it when the shard dies,
//     on every exit path, exceptions included. The budget is polled before
//     each device; resource exhaustion in a worker or in the merge degrades
//     the build to `truncated` with the results built so far.
//   * GC. After each device a shard tracks that device's slots as roots and
//     collects when due, rekeying its primary-to-shard input importer. Only
//     the slots holding the shard's own handles are roots and renumbered.
//   * Memo. The loop that builds in a manager, one per shard or the
//     one-worker loop in the primary, owns one Builder::Memo for that
//     manager and passes it to every device walk. A collect renumbers and
//     reclaims the nodes a memo names and does not rewrite it, so the loop
//     drops its memo before every collect and starts a fresh one for the
//     next device. A memo is never shared between managers or builds.
//   * Merge. One in-place pass in device order imports every slot holding a
//     shard handle into the primary and keeps every slot already there, so
//     every set is canonical in the primary and every count is
//     bit-identical at any worker count, GC on or off. When the budget
//     stops the merge, the slots it did not reach are cleared before the
//     shards die.
//   * Telemetry. `<step>.build` encloses the workers' `parallel.worker`
//     spans (each with its `bdd.gc` spans) and `<step>.merge`, and carries
//     the builder's own args; the merge feeds ys.parallel.items_per_worker
//     and the ys.bdd.* shard counters.
//   * Degraded completion. Slots a truncated build never wrote become empty
//     sets, so every query stays well-formed and under-reports.
//
// A builder (MatchBuild in match_sets.cpp, CoverBuild in covered_sets.cpp)
// provides:
//   Slots        its output vectors. `columns()` lists the first
//                `Slots::kRuleColumns` (indexed by RuleId), then the ones
//                indexed by DeviceId. The builder's owner and the cache
//                prefill (derived from Slots) hold one each.
//   Memo         what its walks reuse across the devices of one manager in
//                one build: Memo(mgr) starts one (see Memo above).
//   kBuildSpan, kMergeSpan, kActivity: span names and the budget-poll label.
//   build(mgr, dev, slots, input, memo): walks `dev`, building in `mgr`.
//   annotate(span): adds the builder's args to kBuildSpan once every
//                worker has finished.
#pragma once

#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/budget.hpp"
#include "common/parallel.hpp"
#include "netmodel/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "packet/gc_roots.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::dataplane {

/// A primary-manager set as seen from the manager a device is built in: the
/// set itself in the primary, a memoized structural import in a shard. The
/// primary is quiescent while workers run, so every shard may read it.
class PrimaryInput {
 public:
  explicit PrimaryInput(bdd::BddImporter* into_shard = nullptr) : into_shard_(into_shard) {}

  [[nodiscard]] packet::PacketSet operator()(const packet::PacketSet& ps) const {
    return into_shard_ == nullptr ? ps : packet::PacketSet(into_shard_->import(ps.raw()));
  }

 private:
  bdd::BddImporter* into_shard_;
};

/// Calls fn(to_slot, from_slot) for every output slot of `dev`, pairing two
/// slot sets of one layout: each rule of the device's ACL and FIB tables in
/// table order, then the device itself.
template <typename Slots, typename Fn>
void for_each_slot(const net::Network& network, const net::Device& dev, Slots& to,
                   const std::type_identity_t<Slots>& from, Fn&& fn) {
  const auto out = to.columns();
  const auto in = from.columns();
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    for (const net::RuleId rid : network.table(dev.id, table)) {
      for (size_t c = 0; c < Slots::kRuleColumns; ++c) {
        fn((*out[c])[rid.value], (*in[c])[rid.value]);
      }
    }
  }
  for (size_t c = Slots::kRuleColumns; c < out.size(); ++c) {
    fn((*out[c])[dev.id.value], (*in[c])[dev.id.value]);
  }
}

/// Structural clone, column by column: imports every slot of `from`
/// (living in `src`) into `dst`. Read-only on `from` and `src`, so
/// concurrent workers may each clone the same slots into a private manager.
template <typename Slots>
void clone_slots(bdd::BddManager& dst, const bdd::BddManager& src, const Slots& from,
                 Slots& to) {
  bdd::BddImporter imp(dst, src);
  const auto in = from.columns();
  const auto out = to.columns();
  for (size_t c = 0; c < in.size(); ++c) {
    out[c]->reserve(in[c]->size());
    for (const packet::PacketSet& ps : *in[c]) out[c]->emplace_back(imp.import(ps.raw()));
  }
  if (obs::enabled()) {
    obs::metrics()
        .counter("ys.bdd.imported_nodes", "nodes copied across BDD managers")
        .add(imp.imported_nodes());
  }
}

struct ShardedBuildResult {
  bool truncated = false;       ///< a resource budget stopped the build early
  size_t built_devices = 0;     ///< devices walked; the others were prefilled
  std::vector<char> unreached;  ///< by RuleId: never built; empty unless truncated
};

namespace detail {

/// Runs fn. Returns true when a resource budget stopped it; any other
/// failure propagates.
template <typename Fn>
bool exhausted_during(Fn&& fn) {
  try {
    fn();
  } catch (const ys::StatusError& e) {
    if (!ys::is_resource_exhaustion(e.code())) throw;
    return true;
  }
  return false;
}

struct Shard {
  explicit Shard(const bdd::BddManager& primary)
      : mgr(primary.num_vars()), charge(mgr, primary.budget()) {}

  bdd::BddManager mgr;
  bdd::ScopedBudget charge;  // released when the shard dies: after the merge, or unwinding
  bool truncated = false;
};

/// Builds `work` in per-worker shard managers, writing into `out` (sized,
/// so GC may track raw pointers into it), and imports the shard handles
/// into the primary in device order. Returns true when the build was
/// truncated.
template <typename Builder>
bool build_in_shards(const Builder& builder, bdd::BddManager& primary,
                     const net::Network& network, typename Builder::Slots& out,
                     const std::vector<const net::Device*>& work, unsigned workers,
                     double gc_threshold) {
  std::vector<std::unique_ptr<Shard>> shards(workers);
  ys::run_workers(workers, [&](unsigned w) {
    Shard& shard = *(shards[w] = std::make_unique<Shard>(primary));
    if (gc_threshold > 0.0) shard.mgr.set_gc_threshold(gc_threshold);
    bdd::BddImporter into_shard(shard.mgr, primary);
    packet::GcRootTracker gc_roots(shard.mgr);
    std::optional<typename Builder::Memo> memo;
    shard.truncated = exhausted_during([&] {
      for (size_t d = w; d < work.size(); d += workers) {
        if (shard.mgr.budget() != nullptr) shard.mgr.budget()->poll(Builder::kActivity);
        const net::Device& dev = *work[d];
        if (!memo) memo.emplace(shard.mgr);
        builder.build(shard.mgr, dev, out, PrimaryInput(&into_shard), *memo);
        if (gc_threshold <= 0.0) continue;
        for_each_slot(network, dev, out, out,
                      [&gc_roots](packet::PacketSet& slot, const packet::PacketSet&) {
                        gc_roots.track(slot);
                      });
        if (gc_roots.due()) {
          // The input importer's memo values live in this manager, so the
          // collection renumbers them (dead entries re-import later); the
          // builder's memo does not follow it and goes.
          memo.reset();
          obs::Span gc_span("bdd.gc", "offline");
          const bdd::GcResult gc = gc_roots.collect(&into_shard);
          gc_span.arg("reclaimed", gc.reclaimed);
          gc_span.arg("live", gc.live_nodes);
        }
      }
    });
  });

  // Queue occupancy: worker w owns the work items ≡ w (mod workers).
  for (unsigned w = 0; w < workers; ++w) {
    ys::worker_items_histogram().observe(
        static_cast<double>((work.size() - w + workers - 1) / workers));
  }

  obs::Span merge_span(Builder::kMergeSpan, "offline");
  bool truncated = false;
  std::vector<std::unique_ptr<bdd::BddImporter>> into_primary;
  into_primary.reserve(workers);
  for (const auto& shard : shards) {
    truncated = truncated || shard->truncated;
    into_primary.push_back(std::make_unique<bdd::BddImporter>(primary, shard->mgr));
  }
  // The importer copies a shard handle and passes a primary or invalid one
  // through. Once the budget stops the merge, every slot it did not reach
  // is cleared: a shard handle dies with its shard.
  bool stopped = false;
  for (size_t d = 0; d < work.size(); ++d) {
    bdd::BddImporter& import = *into_primary[d % workers];
    for_each_slot(network, *work[d], out, out,
                  [&](packet::PacketSet& slot, const packet::PacketSet&) {
                    if (!stopped) {
                      stopped = exhausted_during(
                          [&] { slot = packet::PacketSet(import.import(slot.raw())); });
                    }
                    if (stopped) slot = {};
                  });
  }
  truncated = truncated || stopped;
  if (obs::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    size_t imported_nodes = 0;
    for (const auto& imp : into_primary) imported_nodes += imp->imported_nodes();
    reg.counter("ys.bdd.imported_nodes", "nodes copied across BDD managers").add(imported_nodes);
    for (const auto& shard : shards) {
      const bdd::BddManager::Stats s = shard->mgr.stats();
      reg.counter("ys.bdd.gc.runs", "phase-boundary mark-compact collections").add(s.gc_runs);
      reg.counter("ys.bdd.gc.reclaimed_nodes", "dead BDD nodes reclaimed by GC")
          .add(s.gc_reclaimed_nodes);
      reg.counter("ys.bdd.shard_cache_hits", "apply-cache hits across shard managers")
          .add(s.cache_hits);
      reg.counter("ys.bdd.shard_cache_misses", "apply-cache misses across shard managers")
          .add(s.cache_misses);
    }
  }
  return truncated;
}

}  // namespace detail

/// Runs `builder` over every device of `network` into `out`, sized here,
/// building in `primary` or in shards whose handles are then imported into
/// it (see the top of this file), under `primary`'s budget. `prefill` (may
/// be null) supplies cached slots for the devices it hits; `threads` 0
/// means one worker per hardware thread; `gc_threshold` in (0, 1] arms
/// shard GC, 0 disables it.
template <typename Builder, typename Prefill>
ShardedBuildResult sharded_build(const Builder& builder, bdd::BddManager& primary,
                                 const net::Network& network, typename Builder::Slots& out,
                                 const Prefill* prefill, unsigned threads,
                                 double gc_threshold) {
  obs::Span build_span(Builder::kBuildSpan, "offline");
  const auto cols = out.columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c]->resize(c < Builder::Slots::kRuleColumns ? network.rule_count()
                                                     : network.device_count());
  }
  std::vector<const net::Device*> work;
  work.reserve(network.device_count());
  for (const net::Device& dev : network.devices()) {
    if (prefill != nullptr && prefill->hit(dev.id)) {
      for_each_slot(network, dev, out, *prefill,
                    [](packet::PacketSet& to, const packet::PacketSet& from) { to = from; });
    } else {
      work.push_back(&dev);
    }
  }

  const unsigned workers = ys::resolve_threads(threads, work.size());
  build_span.arg("devices", network.device_count());
  build_span.arg("prefilled", network.device_count() - work.size());
  build_span.arg("rules", network.rule_count());
  build_span.arg("workers", workers);

  ShardedBuildResult result;
  result.built_devices = work.size();
  if (workers > 1 || (gc_threshold > 0.0 && !work.empty())) {
    result.truncated =
        detail::build_in_shards(builder, primary, network, out, work, workers, gc_threshold);
  } else {
    typename Builder::Memo memo(primary);
    result.truncated = detail::exhausted_during([&] {
      for (const net::Device* dev : work) {
        if (primary.budget() != nullptr) primary.budget()->poll(Builder::kActivity);
        builder.build(primary, *dev, out, PrimaryInput(), memo);
      }
    });
  }
  builder.annotate(build_span);

  // Degraded completion: empty sets are terminal-only, so filling them in
  // cannot trip the budget again.
  if (result.truncated) {
    result.unreached.assign(network.rule_count(), 0);
    for (size_t c = 0; c < cols.size(); ++c) {
      for (size_t i = 0; i < cols[c]->size(); ++i) {
        packet::PacketSet& ps = (*cols[c])[i];
        if (ps.valid()) continue;
        ps = packet::PacketSet::none(primary);
        if (c < Builder::Slots::kRuleColumns) result.unreached[i] = 1;
      }
    }
  }
  return result;
}

}  // namespace yardstick::dataplane
