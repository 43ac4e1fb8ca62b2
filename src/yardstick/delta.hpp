// Content hashing for incremental recomputation (ROADMAP item 2).
//
// The offline phase is a pure function of the network snapshot and the
// trace, and it factors per device: a rule's match set M[r] depends only on
// its own device's ordered tables, and a covered set T[r] additionally on
// the trace slice observed at that device. Key each device's results by a
// content hash of exactly those inputs and a cached result is reusable iff
// the hash matches — no diffing protocol, no edit log, no reliance on
// rule ids (which shift globally whenever any earlier device's table
// changes).
//
// Two keys per device:
//   * fib_hash — the device's tables verbatim (kind, priority, match spec,
//     action, in table order). Keys the match-set record.
//   * cov_hash — fib_hash plus the device's trace slice (the located
//     packet sets Algorithm 1 unions for the device, hashed by canonical
//     BDD structure) plus the per-position state-inspection bits. Keys the
//     covered-set record.
//
// Because ROBDDs are canonical, equal hashes of equal inputs lead to
// cached sets that are *the same Boolean functions* the engine would have
// rebuilt — which is what makes incremental output bit-identical to a
// from-scratch run (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/fnv1a.hpp"
#include "coverage/trace.hpp"
#include "netmodel/network.hpp"

namespace yardstick::ys {

/// Streaming FNV-1a 64 accumulator with fixed-width, length-prefixed
/// encodings, so adjacent fields can never alias each other's bytes.
class ContentHasher {
 public:
  void bytes(const void* data, size_t size);
  void u64(uint64_t v);
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// A tagged optional: presence byte, then the value only if present.
  template <typename T, typename Fn>
  void maybe(const T& opt, const Fn& fn) {
    u64(opt ? 1 : 0);
    if (opt) fn(*opt);
  }

  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kFnv1aOffsetBasis;
};

/// The two content keys of one device's offline-phase results.
struct DeviceKeys {
  uint64_t fib_hash = 0;
  uint64_t cov_hash = 0;

  friend bool operator==(const DeviceKeys&, const DeviceKeys&) = default;
};

/// Hash a device's tables (Acl then Fib, each in priority order): every
/// input step 1's per-device walk reads, nothing it doesn't (RouteKind and
/// rule ids are metadata and excluded — renumbering must not invalidate).
[[nodiscard]] uint64_t hash_device_tables(const net::Network& network, net::DeviceId dev);

/// fib_hash for every device (indexed by DeviceId), cov_hash still 0: the
/// half of the keys the trace does not enter, known before any test runs.
[[nodiscard]] std::vector<DeviceKeys> compute_table_keys(const net::Network& network);

/// Sets every device's cov_hash from its fib_hash (already in `keys`) and
/// this trace.
void add_trace_keys(const net::Network& network, const coverage::CoverageTrace& trace,
                    std::vector<DeviceKeys>& keys);

}  // namespace yardstick::ys
