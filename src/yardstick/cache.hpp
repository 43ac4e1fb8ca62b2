// Incremental result cache (DESIGN.md §11).
//
// Persists the offline phase's per-device results — disjoint match sets,
// ACL-permitted spaces, covered sets — keyed by the content
// hashes of src/yardstick/delta.*, in a single checksummed artifact
// written through the same fsync-hardened atomic path as trace snapshots.
// On the next run, devices whose keys match load their sets straight into
// the engine's manager (canonical, so bit-identical to recomputation) and
// only the invalidation frontier is rebuilt.
//
// A session spans the engine's online/offline boundary (DESIGN.md §16): the
// file is read once before step 1, which takes its match records at once;
// the covered-set records wait for the trace the tests then produce, whose
// slices their keys hash.
//
// Records are keyed by hash, not by device: devices with identical tables
// (every ToR of a homogeneous pod) share one record, so the artifact is a
// content-addressed store, deduplicated for free.
//
// Format v2 (line-oriented, same grammar family as the trace format):
//   yardstick-cache v2
//   options <16-hex>       # engine-options fingerprint; mismatch = rebuild
//   vars <n>               # BDD variable universe; mismatch = rebuild
//   nodes <k>              # shared node section (persist.hpp shape)
//   <var> <low> <high>
//   match-records <n>
//   <16-hex fib_hash> <rule_count> <acl_permitted_ref>
//   <set_ref>              # rule_count lines, table order (Acl then Fib)
//   cover-records <m>
//   <16-hex cov_hash> <rule_count>
//   <covered_ref>          # rule_count lines
//   checksum <16-hex>
//
// v1 also stored each rule's match field and each device's matched space,
// which nothing read; a v1 file is a version mismatch. Fallback is never an
// error: a missing, corrupt, truncated or version/options-mismatched cache
// yields an empty prefill and the engine rebuilds from scratch, exactly as
// if the flag were off.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "coverage/covered_sets.hpp"
#include "dataplane/match_sets.hpp"
#include "yardstick/delta.hpp"

namespace yardstick::ys {

/// What the incremental layer did this run — surfaced via
/// CoverageEngine::cache_stats(), obs counters and the CLI's stderr line.
struct CacheStats {
  bool loaded = false;            // a valid cache file was read
  std::string fallback_reason;    // why loading yielded nothing (empty = n/a)
  size_t devices = 0;
  size_t match_hits = 0;          // devices whose step-1 record was reused
  size_t cover_hits = 0;          // devices whose Algorithm-1 record was reused
  size_t invalidated = 0;         // frontier size: devices recomputed despite a cache
  bool saved = false;             // a fresh cache file was committed
  std::string save_error;         // why saving was skipped/failed (empty = n/a)

  [[nodiscard]] size_t match_misses() const { return devices - match_hits; }
  [[nodiscard]] size_t cover_misses() const { return devices - cover_hits; }
};

/// Fingerprint of the engine options a cache artifact is keyed on: the
/// budget's node cap and whether it has a deadline. The thread count is
/// not an input: save() refuses a truncated run, and untruncated sets are
/// bit-identical at any thread count.
[[nodiscard]] uint64_t options_fingerprint(size_t max_bdd_nodes, bool has_deadline);

/// One engine construction's incremental context: loads the cache (if
/// any), exposes the prefills for MatchSetIndex/CoveredSets, and saves the
/// refreshed cache afterwards. Construction, add_trace() and save() never
/// throw — every failure degrades to a full rebuild (or an unsaved cache)
/// recorded in stats().
class IncrementalSession {
 public:
  /// Computes this snapshot's table keys and attempts to load
  /// `<cache_dir>/coverage.cache` into `mgr`: match records apply at once,
  /// covered-set records are kept for add_trace(). `mgr` and `network` must
  /// outlive the session.
  IncrementalSession(bdd::BddManager& mgr, const net::Network& network,
                     std::string cache_dir, uint64_t options_hash);

  /// Keys the kept covered-set records by this trace and builds
  /// cover_prefill(). Call once, after step 1 and before step 2.
  void add_trace(const coverage::CoverageTrace& trace);

  /// Null when no device hit (full rebuild).
  [[nodiscard]] const dataplane::MatchPrefill* match_prefill() const {
    return match_prefill_.get();
  }
  /// Null until add_trace(), and when no device hit.
  [[nodiscard]] const coverage::CoverPrefill* cover_prefill() const {
    return cover_prefill_.get();
  }

  /// Persist the refreshed cache for the next run. Skipped (with the
  /// reason in stats) when the run was truncated — partial sets must never
  /// masquerade as reusable results — or when every device hit (the file
  /// on disk is already current). Never throws.
  void save(const dataplane::MatchSetIndex& index, const coverage::CoveredSets& covered);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<DeviceKeys>& keys() const { return keys_; }

 private:
  void load();

  bdd::BddManager& mgr_;
  const net::Network& network_;
  std::string path_;
  uint64_t options_hash_;
  std::vector<DeviceKeys> keys_;
  std::unique_ptr<dataplane::MatchPrefill> match_prefill_;
  /// Loaded covered-set records by cov_hash, in table order; add_trace()
  /// consumes them.
  std::unordered_map<uint64_t, std::vector<packet::PacketSet>> cover_records_;
  std::unique_ptr<coverage::CoverPrefill> cover_prefill_;
  CacheStats stats_;
};

}  // namespace yardstick::ys
