// A from-scratch reduced, ordered binary decision diagram (ROBDD) engine.
//
// This is the packet-set substrate for the whole library: every PacketSet
// operation in the paper's Figure 5 (empty/negate/union/intersect/equal/
// fromRule/count) lowers onto this engine. The design follows classic
// BDD-package practice (Brace-Rudell-Bryant):
//
//   * nodes live in a single arena, identified by 32-bit indices;
//   * a hash-consing "unique table" guarantees canonicity, so semantic
//     equality of packet sets is pointer (index) equality;
//   * binary boolean operations run through a memoized apply() with a
//     direct-mapped operation cache that grows with the arena;
//   * negation runs through a dedicated complement memo so (f, NOT f)
//     pairs never pollute the binary-op cache;
//   * model counting is exact over the manager's fixed variable universe,
//     using 128-bit integers (the header space is 104 bits wide).
//
// Nodes are never freed: an arena lives as long as its manager (DESIGN.md
// §12 says why there is no collector).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bdd/uint128.hpp"
#include "common/budget.hpp"

namespace yardstick::bdd {

/// Index of a node in the manager's arena. Indices 0 and 1 are the
/// constant false/true terminals.
using NodeIndex = uint32_t;

inline constexpr NodeIndex kFalse = 0;
inline constexpr NodeIndex kTrue = 1;

/// Boolean variable index; variable 0 is closest to the root.
using Var = uint32_t;

class BddManager;

/// Value-semantics handle to a BDD rooted at some node of a manager.
///
/// Handles are cheap to copy (pointer + index). All boolean operators are
/// provided; two handles from the same manager compare equal iff they
/// denote the same boolean function (canonicity of the ROBDD).
class Bdd {
 public:
  Bdd() = default;
  Bdd(BddManager* mgr, NodeIndex idx) : mgr_(mgr), idx_(idx) {}

  [[nodiscard]] NodeIndex index() const { return idx_; }
  [[nodiscard]] BddManager* manager() const { return mgr_; }
  [[nodiscard]] bool is_false() const { return idx_ == kFalse; }
  [[nodiscard]] bool is_true() const { return idx_ == kTrue; }
  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }

  Bdd operator&(const Bdd& o) const;
  Bdd operator|(const Bdd& o) const;
  Bdd operator^(const Bdd& o) const;
  /// Set difference: *this AND NOT o.
  Bdd operator-(const Bdd& o) const;
  Bdd operator!() const;

  Bdd& operator&=(const Bdd& o) { return *this = *this & o; }
  Bdd& operator|=(const Bdd& o) { return *this = *this | o; }
  Bdd& operator^=(const Bdd& o) { return *this = *this ^ o; }
  Bdd& operator-=(const Bdd& o) { return *this = *this - o; }

  bool operator==(const Bdd& o) const { return mgr_ == o.mgr_ && idx_ == o.idx_; }
  bool operator!=(const Bdd& o) const { return !(*this == o); }

  /// True iff this function implies (is a subset of) `o`.
  [[nodiscard]] bool implies(const Bdd& o) const;

  /// Number of satisfying assignments over the manager's full variable set.
  [[nodiscard]] Uint128 count() const;

  /// Number of distinct arena nodes reachable from this root (incl. terminals).
  [[nodiscard]] size_t node_count() const;

 private:
  BddManager* mgr_ = nullptr;
  NodeIndex idx_ = kFalse;
};

/// One arena node: a decision on `var` with else/then branches.
struct BddNode {
  Var var;
  NodeIndex low;
  NodeIndex high;
};

/// Owner of the node arena, unique table and operation caches.
///
/// A manager is constructed with a fixed variable count; all counting is
/// relative to that universe. Managers are not thread-safe; Yardstick uses
/// one per analysis (plus short-lived per-worker shards).
class BddManager {
 public:
  /// @param num_vars size of the variable universe (max 120 so that
  ///        counts fit in 128 bits).
  explicit BddManager(Var num_vars);

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  [[nodiscard]] Var num_vars() const { return num_vars_; }

  [[nodiscard]] Bdd zero() { return {this, kFalse}; }
  [[nodiscard]] Bdd one() { return {this, kTrue}; }
  /// Single positive literal x_v.
  [[nodiscard]] Bdd var(Var v);
  /// Single negative literal NOT x_v.
  [[nodiscard]] Bdd nvar(Var v);

  /// Existentially quantify away every variable v with quantified[v] == true.
  [[nodiscard]] Bdd exists(const Bdd& f, const std::vector<bool>& quantified);

  /// Restrict variable v to a constant value in f (Shannon cofactor).
  [[nodiscard]] Bdd restrict_var(const Bdd& f, Var v, bool value);

  /// One (arbitrary) satisfying assignment; unconstrained variables get
  /// false. Precondition: f is satisfiable.
  [[nodiscard]] std::vector<bool> pick_one(const Bdd& f);

  /// Variables on which f actually depends.
  [[nodiscard]] std::vector<Var> support(const Bdd& f);

  /// Graphviz dump for debugging small functions.
  [[nodiscard]] std::string to_dot(const Bdd& f);

  /// Evaluate f under a complete assignment.
  [[nodiscard]] bool evaluate(const Bdd& f, const std::vector<bool>& assignment) const;

  /// Total nodes currently in the arena (diagnostic).
  [[nodiscard]] size_t arena_size() const { return nodes_.size(); }

  /// Direct-mapped operation cache statistics (diagnostic / ablation).
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const { return cache_stats_; }

  /// Aggregate engine statistics for the observability layer. Maintained
  /// with plain (non-atomic) members — a manager is single-threaded — and
  /// sampled into the obs metrics registry at phase boundaries, so the
  /// BDD hot path carries zero instrumentation cost.
  struct Stats {
    size_t arena_nodes = 0;          ///< nodes currently in the arena
    uint64_t cache_hits = 0;         ///< apply-cache hits
    uint64_t cache_misses = 0;       ///< apply-cache misses
    uint64_t unique_table_growths = 0;  ///< rehash/double events
    uint64_t op_cache_growths = 0;      ///< adaptive apply-cache resizes
    size_t op_cache_entries = 0;        ///< current apply-cache capacity
    uint64_t neg_cache_hits = 0;        ///< complement-memo hits
    uint64_t neg_cache_misses = 0;      ///< complement-memo misses
    /// Hit fraction in [0,1]; 0 when no lookups happened yet.
    [[nodiscard]] double cache_hit_rate() const {
      const uint64_t total = cache_hits + cache_misses;
      return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
    }
  };
  [[nodiscard]] Stats stats() const {
    return {nodes_.size(),     cache_stats_.hits, cache_stats_.misses,
            table_growths_,    op_cache_growths_, op_cache_.size(),
            neg_stats_.hits,   neg_stats_.misses};
  }

  /// Disable the apply cache (ablation only; quadratic blow-ups expected).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  /// Attach a resource budget (non-owning; nullptr = detach). The node
  /// cap is enforced on every fresh allocation; the deadline and cancel
  /// flag are polled every few thousand allocations. On a tripped budget,
  /// make() throws ys::BudgetExceededError / ys::CancelledError *before*
  /// mutating the arena, so the manager stays valid and callers can
  /// degrade to partial results.
  ///
  /// Node accounting is *global across managers*: attaching charges the
  /// current arena size against the budget's atomic node counter and every
  /// fresh allocation charges one more, so sharded per-thread managers
  /// sharing one budget are capped collectively. Detaching (nullptr, or
  /// attaching a different budget) releases this manager's charge. The
  /// budget must stay alive while attached. Callers attach through ScopedBudget
  /// below; every offline stage reads the budget back from budget().
  void set_budget(const ys::ResourceBudget* budget);
  [[nodiscard]] const ys::ResourceBudget* budget() const { return budget_; }

  // --- Internal index-level API (used by Bdd operators; public so that
  // free functions and tests can drive the engine directly). ---
  enum class Op : uint8_t { And = 0, Or = 1, Xor = 2, Diff = 3 };

  NodeIndex apply(Op op, NodeIndex a, NodeIndex b);
  /// Complement through the dedicated negation memo (never the apply cache).
  NodeIndex negate(NodeIndex a);
  [[nodiscard]] const BddNode& node(NodeIndex i) const { return nodes_[i]; }
  Uint128 count_index(NodeIndex a);
  NodeIndex make(Var v, NodeIndex low, NodeIndex high);

  /// Pre-size the arena and unique table for `expected` additional nodes,
  /// so a bulk rebuild (deserializing a trace or cache artifact, whose
  /// node count is in the header) pays one table rehash instead of a
  /// doubling cascade.
  void reserve_nodes(size_t expected);

 private:
  struct CacheEntry {
    uint64_t key = UINT64_MAX;  // packed (op, a, b); UINT64_MAX = empty
    NodeIndex result = kFalse;
  };

  NodeIndex apply_rec(Op op, NodeIndex a, NodeIndex b);
  NodeIndex negate_rec(NodeIndex a);
  NodeIndex exists_rec(NodeIndex f, const std::vector<bool>& quantified,
                       std::vector<NodeIndex>& memo);
  NodeIndex restrict_rec(NodeIndex f, Var v, bool value,
                         std::vector<NodeIndex>& memo);
  [[nodiscard]] Var level(NodeIndex i) const {
    return i <= kTrue ? num_vars_ : nodes_[i].var;
  }
  /// Rebuild the unique table at exactly `new_capacity` (a power of two),
  /// reinserting every current slot. One rehash, whatever the old size.
  void rehash_unique_table(size_t new_capacity);
  void grow_unique_table();
  /// Adaptive apply-cache sizing: once the arena outgrows the cache and
  /// the hit rate since the last resize says the cache is actually
  /// thrashing, double it (re-slotting live entries) up to kOpCacheMax.
  void maybe_grow_op_cache();
  [[nodiscard]] static uint64_t hash_triple(Var v, NodeIndex lo, NodeIndex hi);

  Var num_vars_;
  std::vector<BddNode> nodes_;

  // Open-addressing unique table over node indices; kEmptySlot marks free.
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  std::vector<uint32_t> unique_table_;
  uint64_t unique_mask_ = 0;

  std::vector<CacheEntry> op_cache_;
  uint64_t op_cache_mask_ = 0;
  bool cache_enabled_ = true;
  CacheStats cache_stats_;
  // Apply-cache stats at the last resize: the window since then
  // is what the adaptive-growth heuristic judges.
  uint64_t resize_base_hits_ = 0;
  uint64_t resize_base_misses_ = 0;
  uint64_t op_cache_growths_ = 0;

  // Dedicated complement memo (f <-> NOT f), keyed by node index. Both
  // directions are inserted on a miss (negation is an involution).
  std::vector<CacheEntry> neg_cache_;
  uint64_t neg_cache_mask_ = 0;
  CacheStats neg_stats_;

  uint64_t table_growths_ = 0;
  const ys::ResourceBudget* budget_ = nullptr;
  // Nodes this manager has charged against budget_ (released on detach).
  size_t charged_nodes_ = 0;

  // Persistent per-node model-count memo (nodes are immutable).
  std::vector<Uint128> count_memo_;
  std::vector<bool> count_memo_valid_;
};

/// Open-addressing NodeIndex -> NodeIndex map (the unique-table idiom:
/// power-of-two capacity, multiplicative hashing, linear probing, growth
/// at 3/4 load). Terminals are never stored, so kFalse can double as the
/// empty-key sentinel via an explicit occupancy convention: a slot is free
/// iff key == kEmptySlot. Backing storage is one flat array of 8-byte
/// entries — no per-node allocation, no pointer chase — which is what the
/// cross-manager merge (a measured hot path of the parallel offline
/// phase) wants from its memo.
class NodeIndexMap {
 public:
  explicit NodeIndexMap(size_t initial_capacity = 1 << 10);

  /// Value stored for `key`, or nullptr. Never invalidated by insert of a
  /// *different* key... but insert may grow the table, so don't hold the
  /// pointer across inserts.
  [[nodiscard]] const NodeIndex* find(NodeIndex key) const;

  /// Insert a key that is not present (importer memos never overwrite).
  void insert(NodeIndex key, NodeIndex value);

  [[nodiscard]] size_t size() const { return size_; }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  struct Entry {
    NodeIndex key = kEmptySlot;
    NodeIndex value = kFalse;
  };

  [[nodiscard]] size_t slot_of(NodeIndex key) const {
    return static_cast<size_t>((static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
                               32) &
           mask_;
  }
  void grow();

  std::vector<Entry> entries_;
  uint64_t mask_ = 0;
  size_t size_ = 0;
};

/// Memoized structural copier between managers ("BDD export/import").
///
/// Recursing over (var, lo, hi) rebuilds a function bottom-up through
/// dst.make(), so the copy is canonical in the destination manager and
/// semantically identical to the source — model counts, implications and
/// equality checks all agree. One importer owns one memo table; reuse it
/// for every root copied from the same source so shared subgraphs are
/// copied exactly once.
///
/// Thread-safety: import() mutates only the destination and *reads* only
/// the source, so many importers (each with its own destination) may share
/// one source concurrently as long as nothing mutates the source — the
/// contract the parallel offline phase relies on when per-thread shards
/// pull inputs from the engine's primary manager.
class BddImporter {
 public:
  /// Both managers must share the same variable universe.
  BddImporter(BddManager& dst, const BddManager& src);

  BddImporter(const BddImporter&) = delete;
  BddImporter& operator=(const BddImporter&) = delete;

  /// Copy `f` (rooted in the source manager) into the destination;
  /// invalid handles and handles already in the destination pass through
  /// unchanged.
  [[nodiscard]] Bdd import(const Bdd& f);
  [[nodiscard]] NodeIndex import_index(NodeIndex root);

  /// Distinct source nodes copied so far (shared subgraphs count once) —
  /// the cross-manager import volume the observability layer reports.
  [[nodiscard]] size_t imported_nodes() const { return memo_.size(); }

  [[nodiscard]] BddManager& destination() const { return dst_; }
  [[nodiscard]] const BddManager& source() const { return src_; }

 private:
  BddManager& dst_;
  const BddManager& src_;
  NodeIndexMap memo_;
};

/// Memoized n-ary disjunction: the union of many functions in one
/// Shannon expansion through make(), so the only nodes it allocates are
/// nodes of its results, where a chain of binary ORs leaves every
/// intermediate union behind in the arena.
///
/// unite() sorts its operands, drops duplicates and kFalse, and answers
/// kTrue as soon as an operand is kTrue. Zero or one operand left is the
/// answer; two go through the manager's cached binary OR, so a union of
/// two performs exactly the apply() calls `a | b` does. Three or more
/// expand on the top variable and recurse on the two cofactor lists;
/// each such list is memoized, sorted and duplicate-free, in this
/// object. Reuse one object for every union of a batch whose operand
/// lists overlap: a list seen before, at the top or as a cofactor list,
/// costs one lookup. Results are canonical, so they equal the binary
/// chain's node for node.
///
/// The memo holds node indices of one manager and lives for one batch. An
/// exception from make() (a tripped budget, an injected fault) leaves the
/// object usable: what it memoized is still correct.
class NaryUnion {
 public:
  explicit NaryUnion(BddManager& mgr) : mgr_(mgr) {}

  NaryUnion(const NaryUnion&) = delete;
  NaryUnion& operator=(const NaryUnion&) = delete;

  /// The disjunction of `operands`, in any order, duplicates and
  /// terminals allowed; kFalse for none.
  [[nodiscard]] NodeIndex unite(std::span<const NodeIndex> operands);

 private:
  /// One memoized operand list: keys_[offset, offset + size), sorted.
  struct Entry {
    uint64_t hash = 0;
    uint32_t offset = 0;
    uint32_t size = 0;  ///< 0 marks a free slot
    NodeIndex result = kFalse;
  };

  /// Unions the list stack_[base, end), which it sorts and dedups in
  /// place; the cofactor lists are pushed above it and popped again.
  NodeIndex unite_rec(size_t base);
  [[nodiscard]] const Entry* find(uint64_t hash, size_t base, size_t size) const;
  void remember(uint64_t hash, size_t base, size_t size, NodeIndex result);

  BddManager& mgr_;
  std::vector<NodeIndex> stack_;
  std::vector<NodeIndex> keys_;
  std::vector<Entry> table_;
  size_t entries_ = 0;
};

/// The way to attach a budget: installs `budget` on `mgr` (null means
/// none) and, on scope exit, restores the budget the manager had before,
/// on every exit path. The engine holds one for its lifetime, its online
/// phase runs under one that installs none, and every shard and worker
/// manager holds one installing its primary's budget, so node accounting
/// stays balanced and no budget outlives its scope. Scopes on one manager
/// must end in the reverse order they began, as nested scopes do; out of
/// order, one would restore a budget that may already be gone.
class ScopedBudget {
 public:
  ScopedBudget(BddManager& mgr, const ys::ResourceBudget* budget)
      : mgr_(mgr), previous_(mgr.budget()) {
    mgr_.set_budget(budget);
  }
  ~ScopedBudget() { mgr_.set_budget(previous_); }

  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  BddManager& mgr_;
  const ys::ResourceBudget* previous_;
};

}  // namespace yardstick::bdd
