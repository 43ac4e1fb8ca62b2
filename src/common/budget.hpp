// ResourceBudget — cooperative deadline / memory / cancellation limits.
//
// The offline phase answers open-ended questions: BDD growth and the path
// universe are unbounded in the worst case, so production callers need a
// way to say "spend at most this much". A budget combines
//   * a wall-clock deadline,
//   * a cap on BDD arena nodes (the dominant memory consumer), and
//   * a cooperative cancel flag that another thread may raise.
// Long-running loops call poll()/check(); the BddManager enforces the node
// cap at allocation time. When a limit trips, a typed BudgetExceededError
// or CancelledError propagates to the nearest degradation point, which
// records a `truncated` flag and returns partial results instead of
// running away (see CoverageEngine).
//
// A budget lives on a BddManager (bdd::ScopedBudget attaches it, non-owning)
// and every offline stage reads it there; a manager without one is
// unlimited, which keeps the default paths zero-cost.
//
// Thread-safety: one budget may be shared by many threads (the parallel
// offline phase attaches it to per-thread BddManager shards). The cancel
// flag, poll counter and node accounting are atomic; the deadline and
// node cap are plain fields configured before the budget is shared
// (thread creation provides the happens-before edge).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace yardstick::ys {

class ResourceBudget {
 public:
  using Clock = std::chrono::steady_clock;

  ResourceBudget() = default;

  /// Fluent setup: budget.with_deadline(5.0).with_max_bdd_nodes(1 << 20).
  ResourceBudget& with_deadline(double seconds) {
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    deadline_seconds_ = seconds;
    has_deadline_ = true;
    return *this;
  }

  ResourceBudget& with_max_bdd_nodes(size_t nodes) {
    max_bdd_nodes_ = nodes;
    return *this;
  }

  /// Raise the cooperative cancel flag (safe from another thread).
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// 0 = unlimited. Enforced by BddManager at node-allocation time.
  [[nodiscard]] size_t max_bdd_nodes() const { return max_bdd_nodes_; }

  // --- Cross-manager BDD node accounting (thread-safe) ---
  //
  // Every BddManager attached to this budget charges its arena growth
  // here, so the node cap bounds *total* memory across all shards of a
  // parallel computation, not per-manager usage. Managers release their
  // charge when detached (set_budget(nullptr)), returning shard capacity
  // to the pool when short-lived per-thread managers die.

  /// Reserve `n` nodes against the cap. Returns false (charging nothing)
  /// when the reservation would exceed the cap.
  [[nodiscard]] bool try_charge_bdd_nodes(size_t n) const {
    if (max_bdd_nodes_ == 0) {
      note_peak(used_bdd_nodes_.fetch_add(n, std::memory_order_relaxed) + n);
      return true;
    }
    size_t used = used_bdd_nodes_.load(std::memory_order_relaxed);
    while (used + n <= max_bdd_nodes_) {
      if (used_bdd_nodes_.compare_exchange_weak(used, used + n,
                                                std::memory_order_relaxed)) {
        note_peak(used + n);
        return true;
      }
    }
    return false;
  }

  /// Unconditional charge (used when attaching a manager whose arena
  /// already exists; subsequent allocations then fail fast).
  void charge_bdd_nodes(size_t n) const {
    note_peak(used_bdd_nodes_.fetch_add(n, std::memory_order_relaxed) + n);
  }

  void release_bdd_nodes(size_t n) const {
    used_bdd_nodes_.fetch_sub(n, std::memory_order_relaxed);
  }

  [[nodiscard]] size_t used_bdd_nodes() const {
    return used_bdd_nodes_.load(std::memory_order_relaxed);
  }

  /// High-water mark of concurrent node charge across every manager that
  /// ever attached — the "peak arena nodes" a run actually needed. A GC
  /// that reclaims nodes lowers used_bdd_nodes() but never this. Monotone;
  /// maintained with a CAS-max so concurrent shard growth can't lose an
  /// observation.
  [[nodiscard]] size_t peak_bdd_nodes() const {
    return peak_bdd_nodes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool has_deadline() const { return has_deadline_; }

  [[nodiscard]] bool deadline_passed() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// Non-throwing probe: has any cooperative limit (deadline, cancel)
  /// tripped? The node cap is not reported here — it is enforced, with
  /// full precision, inside the BDD allocator.
  [[nodiscard]] bool exhausted() const {
    return cancel_requested() || deadline_passed();
  }

  /// Throwing probe for long-running loops: raises CancelledError or
  /// BudgetExceededError when a cooperative limit has tripped.
  void check(const char* where) const {
    if (cancel_requested()) throw CancelledError(where);
    if (deadline_passed()) throw BudgetExceededError(deadline_description());
  }

  /// Amortized check(): consults the clock only every `stride` calls so it
  /// can sit in per-rule / per-node loops. The cancel flag is still seen
  /// promptly (it is a plain atomic load).
  void poll(const char* where, uint32_t stride = 64) const {
    if (cancel_requested()) throw CancelledError(where);
    if (!has_deadline_) return;
    if ((poll_counter_.fetch_add(1, std::memory_order_relaxed) + 1) % stride != 0) return;
    if (deadline_passed()) throw BudgetExceededError(deadline_description());
  }

  [[nodiscard]] std::string deadline_description() const {
    return "deadline " + std::to_string(deadline_seconds_) + "s";
  }

  [[nodiscard]] std::string node_cap_description() const {
    return "bdd-nodes " + std::to_string(max_bdd_nodes_);
  }

 private:
  void note_peak(size_t used) const {
    size_t peak = peak_bdd_nodes_.load(std::memory_order_relaxed);
    while (used > peak && !peak_bdd_nodes_.compare_exchange_weak(
                              peak, used, std::memory_order_relaxed)) {
    }
  }

  Clock::time_point deadline_{};
  double deadline_seconds_ = 0.0;
  bool has_deadline_ = false;
  size_t max_bdd_nodes_ = 0;
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<uint32_t> poll_counter_{0};
  mutable std::atomic<size_t> used_bdd_nodes_{0};
  mutable std::atomic<size_t> peak_bdd_nodes_{0};
};

}  // namespace yardstick::ys
