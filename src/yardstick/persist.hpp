// Coverage-trace persistence.
//
// Yardstick's two-phase split (§5) means the trace outlives the test run:
// "the network engineer can at any time ask the system to compute new
// metrics" against it. This module serializes the compact trace
// (P_T, R_T) — including the BDDs behind every located packet set — to a
// portable text format so phase 2 can run in a different process, later,
// or on archived snapshots.
//
// Because the artifact is archived and reloaded, the reader trusts
// nothing: every node reference, variable index and section count is
// validated, and v2 files carry an FNV-1a checksum trailer. Validation
// failures raise CorruptTraceError, whose Detail distinguishes an input
// that ran out (partial write, interrupted transfer) from one whose bytes
// are wrong (bit rot, tampering). save_trace() writes atomically (temp
// file + rename) so a crash mid-write never leaves a partial file at the
// destination path.
//
// Format v2 (line-oriented, self-describing):
//   yardstick-trace v2
//   nodes <k>            # shared BDD node list, children before parents
//   <var> <low> <high>   # refs: 0/1 = terminals, n>=2 = line (n-2)
//   rules <n>
//   <rule-id> ...
//   locations <m>
//   <location-id> <root-ref> ...
//   checksum <16-hex>    # FNV-1a 64 over every preceding byte
// v1 files (no checksum trailer) are still read for compatibility with
// traces archived before the trailer existed.
//
// The low-level pieces of the format — the shared-node-section
// emitter/reader, the checksum trailer, and the fsync-hardened atomic
// writer — are exposed below so that sibling artifacts (the incremental
// result cache, src/yardstick/cache.*) persist through exactly the same
// validated, crash-safe path instead of growing a second one.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/status.hpp"
#include "coverage/node_list.hpp"
#include "coverage/trace.hpp"

namespace yardstick::ys {

/// Serialize a trace (v2, checksummed). `mgr` must be the manager that
/// owns the trace's packet sets.
[[nodiscard]] std::string serialize_trace(const coverage::CoverageTrace& trace,
                                          bdd::BddManager& mgr);

/// Rebuild a trace inside `mgr` (any manager with the same variable
/// count). Reads v1 and v2. Throws CorruptTraceError (a StatusError, code
/// Error::CorruptTrace) on malformed input.
[[nodiscard]] coverage::CoverageTrace deserialize_trace(const std::string& text,
                                                        bdd::BddManager& mgr);

/// Atomically persist a trace: the content is staged in a uniquely-named
/// sibling temp file and renamed over `path` only once fully flushed, so
/// `path` either keeps its previous content or holds the complete new
/// trace — never a torn write. Throws IoError on failure (the temp file
/// is cleaned up).
void save_trace(const std::string& path, const coverage::CoverageTrace& trace,
                bdd::BddManager& mgr);

/// Load and validate a persisted trace. Throws IoError if the file cannot
/// be read and CorruptTraceError if its content fails validation.
[[nodiscard]] coverage::CoverageTrace load_trace(const std::string& path,
                                                 bdd::BddManager& mgr);

// --- Shared persistence primitives --------------------------------------

/// 16-digit lowercase hex rendering of a 64-bit hash (common/fnv1a.hpp's
/// FNV-1a 64 is the integrity trailer of every persisted artifact).
[[nodiscard]] std::string hash_hex(uint64_t v);

/// Append the "checksum <16-hex>\n" trailer over everything in `body`.
[[nodiscard]] std::string with_checksum(std::string body);

/// Validate and strip a checksum trailer: returns the covered body
/// (including the newline before "checksum"). Throws CorruptTraceError
/// with `source` as the artifact name on a missing/malformed/mismatched
/// trailer.
[[nodiscard]] std::string checked_body(const std::string& text, const char* source);

/// Assigns file-local node references while walking BDDs out of a
/// manager: 0/1 for the terminals, n >= 2 for the (n-2)-th emitted node
/// line. Children are always emitted before parents, so readers can
/// rebuild bottom-up with backward references only.
class NodeEmitter {
 public:
  explicit NodeEmitter(bdd::BddManager& mgr) : mgr_(mgr) {}

  /// Emit (if new) every node reachable from `root` into `out` and return
  /// the file-local reference of `root`.
  uint32_t emit(bdd::NodeIndex root, std::vector<std::array<uint32_t, 3>>& out);

 private:
  [[nodiscard]] uint32_t ref(bdd::NodeIndex n) const;

  bdd::BddManager& mgr_;
  // Dense memo indexed by arena slot (node indices are dense): 0 = not
  // yet emitted, else the file ref. Grown lazily to the arena size on
  // first emit; a flat vector beats a hash map by ~10x on big walks.
  std::vector<uint32_t> refs_;
};

/// Whitespace-separated reader for the line-oriented artifact grammar.
/// Every parse failure throws CorruptTraceError naming `source` (e.g.
/// "yardstick trace", "yardstick cache") and distinguishing an input that
/// ran out from one whose bytes are wrong.
class FormatReader {
 public:
  /// Scans `body` in place (no copy; the caller keeps it alive). A plain
  /// pointer scanner instead of an istream: artifact loads are on the
  /// incremental warm path, where iostream token extraction is ~20x too
  /// slow for multi-megabyte node sections.
  FormatReader(std::string_view body, const char* source)
      : body_(body), source_(source) {}

  [[noreturn]] void fail_truncated(const std::string& why) const;
  [[noreturn]] void fail_corrupted(const std::string& why) const;

  /// One unsigned token; distinguishes the input running out
  /// (truncation) from a token that is not a number (corruption).
  uint64_t u64(const char* what);
  uint32_t u32(const char* what);

  /// One whitespace-delimited token (empty = input ran out).
  std::string_view token();

  /// Section counts must be plausible against the input size, or a
  /// flipped bit in a count field would drive reserve() into a memory
  /// bomb before a single element is read.
  size_t count(const char* what);

  void keyword(const char* kw);

  /// Read a "nodes <k>" section, validating structure (coverage::NodeList:
  /// backward refs only, strict variable ordering) and materializing every
  /// node into `mgr`. Returns the file-ref -> manager-node mapping.
  coverage::NodeList node_section(bdd::BddManager& mgr);

  /// Throws (corruption) if any token remains.
  void expect_end(const char* what);

 private:
  void skip_ws();

  std::string_view body_;
  size_t pos_ = 0;
  const char* source_;
};

/// Emit a "nodes <k>" section in the shared shape, appended to `out`.
void write_node_section(std::string& out,
                        const std::vector<std::array<uint32_t, 3>>& nodes);

/// Append the decimal rendering of `v` (manual formatting: the emit hot
/// path for node sections, where ostream insertion dominates save time).
void append_uint(std::string& out, uint64_t v);

/// Read a whole file into memory. Throws IoError on open/read failure.
[[nodiscard]] std::string read_text_file(const std::string& path);

/// Atomically (and durably) replace `path` with `content`: write + fsync
/// a uniquely-named sibling temp file (O_EXCL with a pid + sequence
/// suffix, so concurrent savers — a daemon snapshot racing an
/// ingest-replay, two engines sharing a cache dir — never clobber each
/// other's staging file), rename it over `path`, then fsync the parent
/// directory. `path` either keeps its old content or holds the complete
/// new bytes, also across power loss. Throws IoError on failure; the temp
/// file is removed on every failure path.
void atomic_write_file(const std::string& path, const std::string& content);

}  // namespace yardstick::ys
