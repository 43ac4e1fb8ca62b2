// Span-based structured tracing with RAII scopes, exported as Chrome
// trace-event JSON (load the file in about:tracing or https://ui.perfetto.dev).
//
// Span hierarchy (DESIGN.md §9): nesting is implicit — complete events on
// the same thread nest by [ts, ts+dur] containment, which is exactly how
// the trace viewers render them. The canonical hierarchy:
//
//   cli.run
//   ├─ match_sets.build                (offline step 1)
//   │  ├─ parallel.worker (×N)         (sharded device builds)
//   │  └─ match_sets.merge             (deterministic import)
//   ├─ suite.run                       (online phase: tests execute on
//   │                                   step 1's index)
//   ├─ covered_sets.build              (offline step 2, Algorithm 1)
//   │  ├─ parallel.worker (×N)
//   │  └─ covered_sets.merge
//   ├─ measure_table.build             (offline step 3's per-rule pass)
//   ├─ analysis.report                 (step 3 folds over the table)
//   ├─ path_coverage.sweep             (offline step 3, DFS sweep)
//   │  └─ parallel.worker (×N)         (clone + ingress drain)
//   ├─ analysis.suite_matrix           (--analyze, optimize)
//   └─ trace.save / trace.load
//
// Cost model: a Span in disabled mode is two relaxed atomic loads and no
// allocation (tests/obs_test.cpp pins the zero-allocation property). In
// enabled mode each span costs two steady_clock reads plus one append to
// a per-thread buffer under an uncontended mutex — phase-level spans only;
// per-path/per-rule work feeds counters (obs/metrics.hpp), never spans.
//
// Name/category strings must be string literals (or otherwise outlive the
// tracer): events store the pointers, not copies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace yardstick::obs {

[[nodiscard]] bool enabled();  // shared switch, defined in metrics.cpp

/// One key/value annotation on a span ("args" in the Chrome viewer).
struct SpanArg {
  const char* key = nullptr;
  uint64_t value = 0;
};

/// A finished span: Chrome "complete" event ("ph":"X").
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint32_t tid = 0;
  uint64_t ts_us = 0;   // microseconds since tracer epoch (steady clock)
  uint64_t dur_us = 0;
  static constexpr int kMaxArgs = 4;
  SpanArg args[kMaxArgs];
  int num_args = 0;
};

class Tracer {
 public:
  /// The process-wide tracer every span records into. Never destroyed
  /// (worker threads may still hold buffers at shutdown).
  static Tracer& global();

  /// Microseconds since the tracer epoch, on the steady clock.
  [[nodiscard]] uint64_t now_us() const;

  /// Record a finished span on the calling thread's buffer. No-op when
  /// observability is disabled.
  void record(const TraceEvent& event);

  /// Events recorded so far, across all threads.
  [[nodiscard]] size_t event_count() const;
  /// Events dropped because a thread buffer hit its cap (memory bound).
  [[nodiscard]] uint64_t dropped_count() const;

  /// Drop all recorded events (buffers stay registered; for tests/bench).
  void clear();

  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}
  /// with events merged across threads and sorted by timestamp. Call after
  /// worker threads have joined (concurrent record() is safe but events
  /// still in flight may be missed).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Copy of all events, timestamp-sorted (test/inspection hook).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  struct Impl;
  Tracer();
  ~Tracer();
  Impl* impl_;  // raw: the global tracer intentionally leaks
  friend struct TracerAccess;
};

/// RAII scope: construction stamps the start, destruction records the
/// complete event. Disabled-mode cost: two relaxed loads, zero allocation.
class Span {
 public:
  explicit Span(const char* name, const char* category = "ys") {
    if (!enabled()) return;
    active_ = true;
    event_.name = name;
    event_.category = category;
    event_.ts_us = Tracer::global().now_us();
  }
  ~Span() {
    if (!active_) return;
    const uint64_t end = Tracer::global().now_us();
    event_.dur_us = end >= event_.ts_us ? end - event_.ts_us : 0;
    Tracer::global().record(event_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric annotation (at most TraceEvent::kMaxArgs; extra
  /// args are dropped). `key` must be a string literal.
  void arg(const char* key, uint64_t value) {
    if (!active_ || event_.num_args >= TraceEvent::kMaxArgs) return;
    event_.args[event_.num_args++] = {key, value};
  }

 private:
  TraceEvent event_;
  bool active_ = false;
};

}  // namespace yardstick::obs
