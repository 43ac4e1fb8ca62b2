// Clone-and-drain driver for the offline fan-outs whose work items are not
// devices: the path-universe sweep (one item per edge ingress port,
// CoverageEngine::path_coverage) and the suite coverage matrix (one item
// per test, build_suite_matrix). Every item reads finished products of
// steps 1-2 (the match-set index, and for the sweep the covered sets) and
// writes only its own result slot, which the caller folds in item order.
// A caller supplies only that per-item work and what a worker clones; this
// driver owns the policy (DESIGN.md §8):
//
//   * Workers. resolve_threads(threads, items). One worker runs the items
//     inline, in order, on the caller's own inputs: nothing is cloned. Each
//     of more workers gets a private BddManager charged to the budget
//     (released when the worker ends, on every exit path), clones the
//     inputs into it and drains a shared cursor. A clone that trips the
//     budget leaves its worker with nothing to take.
//   * One stop rule, checked before every item at every worker count: stop
//     when the budget is exhausted (deadline, cancel) or the caller's own
//     limit is hit. A stop before the first item starts no worker and
//     clones nothing.
//   * Degradation. A stop with items left, a clone that trips the budget,
//     a resource exhaustion inside an item, or an item that reports its
//     result partial makes the run `truncated`; after the last two the
//     worker takes the next item. Any other failure propagates (the first
//     by worker index).
//   * Telemetry. Each extra worker runs in a `parallel.worker` span that
//     encloses its clone's spans; the items each one drained feed
//     ys.parallel.items_per_worker.
//
// A caller provides:
//   Inputs       references to what an item reads, in the primary manager.
//   Clone        a worker's copy: Clone(mgr, inputs) imports `inputs` into
//                `mgr`, and clone.inputs() returns Inputs over the copy.
//   item(in, i)  the work for item i against `in`; returns true when that
//                item's result is partial.
//   limit()      the caller's own stop condition.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/budget.hpp"
#include "common/parallel.hpp"
#include "dataplane/sharded_build.hpp"
#include "obs/metrics.hpp"

namespace yardstick::dataplane {

struct DrainResult {
  unsigned workers = 1;    ///< workers the items were split over
  bool truncated = false;  ///< some item was skipped or its result is partial
};

/// Runs item(in, i) for every i in [0, items) under the policy at the top of
/// this file: `in` is `inputs` itself for one worker, else that worker's
/// Clone of it in a private manager. `threads` 0 means one worker per
/// hardware thread; `budget` (may be null) bounds the run.
template <typename Clone, typename Inputs, typename Item, typename Limit>
DrainResult clone_and_drain(const bdd::BddManager& primary, const Inputs& inputs, size_t items,
                            unsigned threads, const ys::ResourceBudget* budget,
                            const Limit& limit, const Item& item) {
  DrainResult result{ys::resolve_threads(threads, items)};
  std::atomic<bool> truncated{false};
  const auto stop = [&] { return (budget != nullptr && budget->exhausted()) || limit(); };
  // The stop rule, then item i. Returns false when the run stops.
  const auto take = [&](const Inputs& in, size_t i) {
    if (stop()) {
      truncated.store(true, std::memory_order_relaxed);
      return false;
    }
    bool partial = false;
    if (detail::exhausted_during([&] { partial = item(in, i); }) || partial) {
      truncated.store(true, std::memory_order_relaxed);
    }
    return true;
  };

  // A run stopped before its first item takes this branch too, so it starts
  // no worker and clones nothing.
  if (result.workers == 1 || stop()) {
    for (size_t i = 0; i < items; ++i) {
      if (!take(inputs, i)) break;
    }
  } else {
    std::atomic<size_t> cursor{0};
    std::vector<size_t> drained(result.workers, 0);
    ys::run_workers(result.workers, [&](unsigned w) {
      bdd::BddManager mgr(primary.num_vars());
      const bdd::ScopedBudget charge(mgr, budget);
      std::optional<Clone> clone;
      if (detail::exhausted_during([&] { clone.emplace(mgr, inputs); })) {
        truncated.store(true, std::memory_order_relaxed);
        return;
      }
      const auto in = clone->inputs();
      for (size_t i = cursor.fetch_add(1); i < items && take(in, i); i = cursor.fetch_add(1)) {
        ++drained[w];
      }
    });
    // Queue occupancy: a skewed histogram means one giant item dominated.
    if (obs::enabled()) {
      for (const size_t n : drained) ys::worker_items_histogram().observe(static_cast<double>(n));
    }
  }
  result.truncated = truncated.load(std::memory_order_relaxed);
  return result;
}

}  // namespace yardstick::dataplane
