// Minimal threading helpers for the parallel offline phase.
//
// The offline phase parallelizes embarrassingly (per-device match/covered
// sets, per-ingress path sweeps), so all it needs is a fork-join worker
// pool with deterministic error propagation — no task graph, no futures.
// Determinism contract: workers write into pre-sized slots keyed by work
// item, and callers fold those slots in item order, so results are
// bit-identical to a serial run regardless of thread count.
#pragma once

#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yardstick::ys {

/// Per-worker queue occupancy for every parallel phase: how many work
/// items (devices, ingress ports, ...) each worker drained. A skewed
/// distribution here is the first thing to look at when a parallel run
/// does not speed up. The handle is cached — registration is cold-path.
[[nodiscard]] inline obs::Histogram& worker_items_histogram() {
  static obs::Histogram& h = obs::metrics().histogram(
      "ys.parallel.items_per_worker",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384},
      "work items drained per worker per parallel phase");
  return h;
}

/// Resolve a requested worker count: 0 = one per hardware thread, always
/// at least 1, never more than the number of work items (so an empty work
/// list starts no worker thread).
[[nodiscard]] inline unsigned resolve_threads(unsigned requested, size_t work_items) {
  unsigned n = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (work_items < n) n = static_cast<unsigned>(work_items);
  return n == 0 ? 1 : n;
}

/// Run fn(worker_index) on `workers` threads and join them all. Every
/// worker always runs to completion (or its own exception) before this
/// returns; the first captured exception — by worker index, so the choice
/// is deterministic — is rethrown afterwards. With one worker, runs
/// inline on the calling thread.
inline void run_workers(unsigned workers, const std::function<void(unsigned)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&fn, &errors, w] {
      obs::Span span("parallel.worker", "parallel");
      span.arg("worker", w);
      try {
        fn(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace yardstick::ys
