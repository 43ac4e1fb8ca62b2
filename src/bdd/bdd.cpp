#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

#include "common/fault.hpp"
#include "common/status.hpp"

namespace yardstick::bdd {

namespace {
constexpr size_t kInitialUniqueCapacity = 1 << 16;
// The unique table never shrinks below this after a collection; going
// smaller saves nothing and pays an extra rehash cascade on regrowth.
constexpr size_t kMinUniqueCapacityAfterGc = 1 << 12;
// The apply cache starts small (per-worker shard managers multiply this by
// the thread count) and doubles adaptively up to the max; see
// maybe_grow_op_cache().
constexpr size_t kOpCacheInitial = 1 << 16;
constexpr size_t kOpCacheMax = 1 << 22;
constexpr size_t kNegCacheSize = 1 << 16;

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Truth table for each binary op, indexed by (a_bit << 1) | b_bit.
constexpr uint8_t kTruthTable[4] = {
    0b1000,  // And: true only at (1,1)
    0b1110,  // Or: true except (0,0)
    0b0110,  // Xor
    0b0010,  // Diff: true only at (1,0)
};

[[maybe_unused]] bool eval_op(BddManager::Op op, bool a, bool b) {
  const unsigned idx = (static_cast<unsigned>(a) << 1) | static_cast<unsigned>(b);
  return (kTruthTable[static_cast<unsigned>(op)] >> idx) & 1u;
}
}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle operators
// ---------------------------------------------------------------------------

Bdd Bdd::operator&(const Bdd& o) const {
  assert(mgr_ == o.mgr_ && mgr_ != nullptr);
  return {mgr_, mgr_->apply(BddManager::Op::And, idx_, o.idx_)};
}

Bdd Bdd::operator|(const Bdd& o) const {
  assert(mgr_ == o.mgr_ && mgr_ != nullptr);
  return {mgr_, mgr_->apply(BddManager::Op::Or, idx_, o.idx_)};
}

Bdd Bdd::operator^(const Bdd& o) const {
  assert(mgr_ == o.mgr_ && mgr_ != nullptr);
  return {mgr_, mgr_->apply(BddManager::Op::Xor, idx_, o.idx_)};
}

Bdd Bdd::operator-(const Bdd& o) const {
  assert(mgr_ == o.mgr_ && mgr_ != nullptr);
  return {mgr_, mgr_->apply(BddManager::Op::Diff, idx_, o.idx_)};
}

Bdd Bdd::operator!() const {
  assert(mgr_ != nullptr);
  return {mgr_, mgr_->negate(idx_)};
}

bool Bdd::implies(const Bdd& o) const {
  assert(mgr_ == o.mgr_ && mgr_ != nullptr);
  return mgr_->apply(BddManager::Op::Diff, idx_, o.idx_) == kFalse;
}

Uint128 Bdd::count() const {
  assert(mgr_ != nullptr);
  return mgr_->count_index(idx_);
}

size_t Bdd::node_count() const {
  assert(mgr_ != nullptr);
  std::unordered_set<NodeIndex> seen;
  std::vector<NodeIndex> stack{idx_};
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second || n <= kTrue) continue;
    stack.push_back(mgr_->node(n).low);
    stack.push_back(mgr_->node(n).high);
  }
  return seen.size();
}

// ---------------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------------

BddManager::BddManager(Var num_vars) : num_vars_(num_vars) {
  if (num_vars > 120) {
    throw ys::InvalidInputError("BddManager supports at most 120 variables");
  }
  nodes_.reserve(kInitialUniqueCapacity);
  // Terminals occupy indices 0 and 1; their var is a sentinel past the end.
  nodes_.push_back({num_vars_, kFalse, kFalse});
  nodes_.push_back({num_vars_, kTrue, kTrue});
  unique_table_.assign(kInitialUniqueCapacity, kEmptySlot);
  unique_mask_ = kInitialUniqueCapacity - 1;
  op_cache_.assign(kOpCacheInitial, {});
  op_cache_mask_ = kOpCacheInitial - 1;
  neg_cache_.assign(kNegCacheSize, {});
  neg_cache_mask_ = kNegCacheSize - 1;
}

uint64_t BddManager::hash_triple(Var v, NodeIndex lo, NodeIndex hi) {
  uint64_t h = static_cast<uint64_t>(v) * kGolden;
  h ^= (static_cast<uint64_t>(lo) + 0x7f4a7c15U) * 0xbf58476d1ce4e5b9ULL;
  h ^= (static_cast<uint64_t>(hi) + 0x1ce4e5b9U) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

void BddManager::rehash_unique_table(size_t new_capacity) {
  assert((new_capacity & (new_capacity - 1)) == 0);
  ++table_growths_;
  std::vector<uint32_t> fresh(new_capacity, kEmptySlot);
  const uint64_t mask = new_capacity - 1;
  for (const uint32_t idx : unique_table_) {
    if (idx == kEmptySlot) continue;
    const BddNode& n = nodes_[idx];
    uint64_t slot = hash_triple(n.var, n.low, n.high) & mask;
    while (fresh[slot] != kEmptySlot) slot = (slot + 1) & mask;
    fresh[slot] = idx;
  }
  unique_table_ = std::move(fresh);
  unique_mask_ = mask;
}

void BddManager::grow_unique_table() { rehash_unique_table(unique_table_.size() * 2); }

void BddManager::reserve_nodes(size_t expected) {
  nodes_.reserve(nodes_.size() + expected);
  const size_t needed = nodes_.size() + expected;
  if (needed * 4 <= unique_table_.size() * 3) return;
  size_t capacity = unique_table_.size();
  while (needed * 4 > capacity * 3) capacity *= 2;
  // Jump straight to the final capacity: one rehash of what exists now,
  // instead of one per doubling.
  rehash_unique_table(capacity);
}

void BddManager::maybe_grow_op_cache() {
  if (op_cache_.size() >= kOpCacheMax || nodes_.size() <= op_cache_.size()) return;
  // A direct-mapped cache smaller than the arena's working set thrashes —
  // but only grow when the observed hit rate since the last resize agrees,
  // so workloads that stay hot in a small cache keep their footprint.
  const uint64_t window_hits = cache_stats_.hits - resize_base_hits_;
  const uint64_t window_total =
      window_hits + (cache_stats_.misses - resize_base_misses_);
  if (window_total >= 1024 && window_hits * 16 >= window_total * 15) return;
  const size_t new_size = op_cache_.size() * 2;
  std::vector<CacheEntry> fresh(new_size);
  const uint64_t mask = new_size - 1;
  for (const CacheEntry& e : op_cache_) {
    if (e.key == UINT64_MAX) continue;
    fresh[(e.key * kGolden >> 32) & mask] = e;  // direct-mapped: last write wins
  }
  op_cache_ = std::move(fresh);
  op_cache_mask_ = mask;
  ++op_cache_growths_;
  resize_base_hits_ = cache_stats_.hits;
  resize_base_misses_ = cache_stats_.misses;
}

NodeIndex BddManager::make(Var v, NodeIndex low, NodeIndex high) {
  if (low == high) return low;  // reduction rule
  uint64_t slot = hash_triple(v, low, high) & unique_mask_;
  while (true) {
    const uint32_t occupant = unique_table_[slot];
    if (occupant == kEmptySlot) break;
    const BddNode& n = nodes_[occupant];
    if (n.var == v && n.low == low && n.high == high) return occupant;
    slot = (slot + 1) & unique_mask_;
  }
  // Fresh allocation: the budget gate runs before the arena mutates, so a
  // tripped budget leaves the manager fully consistent. The node charge
  // goes to the budget's atomic counter, shared by every manager attached
  // to it — sharded parallel builds are capped collectively.
  if (budget_ != nullptr) {
    if ((nodes_.size() & 0xfff) == 0) budget_->check("bdd allocation");
    if (!budget_->try_charge_bdd_nodes(1)) {
      throw ys::BudgetExceededError(budget_->node_cap_description());
    }
    ++charged_nodes_;
  }
  if (fault::active()) fault::fire("bdd.make");
  const NodeIndex fresh = static_cast<NodeIndex>(nodes_.size());
  nodes_.push_back({v, low, high});
  unique_table_[slot] = fresh;
  // Resize at 3/4 load to keep probe chains short.
  if (nodes_.size() * 4 > unique_table_.size() * 3) grow_unique_table();
  if (nodes_.size() > op_cache_.size()) maybe_grow_op_cache();
  return fresh;
}

void BddManager::set_budget(const ys::ResourceBudget* budget) {
  if (budget == budget_) return;
  if (budget_ != nullptr) {
    budget_->release_bdd_nodes(charged_nodes_);
    charged_nodes_ = 0;
  }
  budget_ = budget;
  if (budget_ != nullptr) {
    // Charge the existing arena (terminals included) so the cap bounds
    // total nodes, not growth since attachment.
    budget_->charge_bdd_nodes(nodes_.size());
    charged_nodes_ = nodes_.size();
  }
}

GcResult BddManager::collect(std::span<const NodeIndex> roots) {
  const size_t old_size = nodes_.size();
  GcResult res;
  res.remap.assign(old_size, GcResult::kDeadNode);

  // --- Mark everything reachable from the roots. ---
  std::vector<char> live(old_size, 0);
  live[kFalse] = 1;
  live[kTrue] = 1;
  std::vector<NodeIndex> stack;
  stack.reserve(256);
  for (const NodeIndex r : roots) {
    assert(r < old_size);
    if (r > kTrue && live[r] == 0) {
      live[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const BddNode nd = nodes_[stack.back()];
    stack.pop_back();
    if (nd.low > kTrue && live[nd.low] == 0) {
      live[nd.low] = 1;
      stack.push_back(nd.low);
    }
    if (nd.high > kTrue && live[nd.high] == 0) {
      live[nd.high] = 1;
      stack.push_back(nd.high);
    }
  }
  size_t live_count = 0;
  for (const char m : live) live_count += static_cast<unsigned char>(m);

  // --- Pre-allocate every replacement structure before touching the
  // arena, so an allocation failure propagates with the manager intact. ---
  size_t unique_cap = kMinUniqueCapacityAfterGc;
  while (live_count * 4 > unique_cap * 3) unique_cap *= 2;
  std::vector<uint32_t> fresh_table(unique_cap, kEmptySlot);
  size_t op_target = kOpCacheInitial;
  while (op_target < live_count && op_target < kOpCacheMax) op_target *= 2;
  std::vector<CacheEntry> fresh_op(op_target);
  std::vector<Uint128> fresh_memo(live_count, 0);
  std::vector<bool> fresh_memo_valid(live_count, false);

  // --- Compact in place. make() is strictly bottom-up, so children always
  // precede parents in the arena and one ascending pass can rewrite child
  // indices through the remap as it goes. Model-count memo entries ride
  // along: a node's count depends only on its (unchanged) semantics. ---
  res.remap[kFalse] = kFalse;
  res.remap[kTrue] = kTrue;
  const size_t memo_limit = std::min(count_memo_.size(), old_size);
  NodeIndex next = 2;
  for (NodeIndex i = 2; i < old_size; ++i) {
    if (live[i] == 0) continue;
    const BddNode nd = nodes_[i];
    nodes_[next] = {nd.var, res.remap[nd.low], res.remap[nd.high]};
    if (i < memo_limit && count_memo_valid_[i]) {
      fresh_memo[next] = count_memo_[i];
      fresh_memo_valid[next] = true;
    }
    res.remap[i] = next;
    ++next;
  }
  nodes_.resize(next);

  // --- Rebuild the unique table at right-sized capacity (one pass, no
  // doubling cascade on the way back up). ---
  const uint64_t mask = unique_cap - 1;
  for (NodeIndex i = 2; i < next; ++i) {
    const BddNode& n = nodes_[i];
    uint64_t slot = hash_triple(n.var, n.low, n.high) & mask;
    while (fresh_table[slot] != kEmptySlot) slot = (slot + 1) & mask;
    fresh_table[slot] = i;
  }
  unique_table_ = std::move(fresh_table);
  unique_mask_ = mask;

  // --- Operation caches key on old indices: replace them. The apply
  // cache is also right-sized back down so post-GC phases don't drag a
  // cache grown for the pre-GC peak. ---
  op_cache_ = std::move(fresh_op);
  op_cache_mask_ = op_target - 1;
  std::fill(neg_cache_.begin(), neg_cache_.end(), CacheEntry{});
  resize_base_hits_ = cache_stats_.hits;
  resize_base_misses_ = cache_stats_.misses;
  count_memo_ = std::move(fresh_memo);
  count_memo_valid_ = std::move(fresh_memo_valid);

  // --- Hand the freed node charge back to the shared budget so sibling
  // shard managers can use the headroom. ---
  const size_t reclaimed = old_size - next;
  if (budget_ != nullptr && reclaimed > 0) {
    const size_t release = std::min(charged_nodes_, reclaimed);
    budget_->release_bdd_nodes(release);
    charged_nodes_ -= release;
  }
  live_after_gc_ = next;
  ++gc_runs_;
  gc_reclaimed_ += reclaimed;
  res.live_nodes = next;
  res.reclaimed = reclaimed;
  return res;
}

Bdd BddManager::var(Var v) {
  assert(v < num_vars_);
  return {this, make(v, kFalse, kTrue)};
}

Bdd BddManager::nvar(Var v) {
  assert(v < num_vars_);
  return {this, make(v, kTrue, kFalse)};
}

NodeIndex BddManager::apply(Op op, NodeIndex a, NodeIndex b) {
  return apply_rec(op, a, b);
}

NodeIndex BddManager::apply_rec(Op op, NodeIndex a, NodeIndex b) {
  // Terminal shortcuts.
  switch (op) {
    case Op::And:
      if (a == kFalse || b == kFalse) return kFalse;
      if (a == kTrue) return b;
      if (b == kTrue) return a;
      if (a == b) return a;
      if (a > b) std::swap(a, b);  // commutative: canonicalize for cache
      break;
    case Op::Or:
      if (a == kTrue || b == kTrue) return kTrue;
      if (a == kFalse) return b;
      if (b == kFalse) return a;
      if (a == b) return a;
      if (a > b) std::swap(a, b);
      break;
    case Op::Xor:
      if (a == b) return kFalse;
      if (a == kFalse) return b;
      if (b == kFalse) return a;
      if (a > b) std::swap(a, b);
      break;
    case Op::Diff:
      if (a == kFalse || b == kTrue) return kFalse;
      if (a == b) return kFalse;
      if (b == kFalse) return a;
      break;
  }

  // Injective packing: op in bits 62-63, a in bits 31-61, b in bits 0-30.
  // Node indices stay far below 2^31 in practice; assert in debug builds.
  assert(a < (1u << 31) && b < (1u << 31));
  const uint64_t key = (static_cast<uint64_t>(op) << 62) |
                       (static_cast<uint64_t>(a) << 31) | static_cast<uint64_t>(b);
  const uint64_t slot = (key * kGolden >> 32) & op_cache_mask_;
  if (cache_enabled_) {
    const CacheEntry& e = op_cache_[slot];
    if (e.key == key) {
      ++cache_stats_.hits;
      return e.result;
    }
    ++cache_stats_.misses;
  }

  const Var la = level(a);
  const Var lb = level(b);
  const Var top = la < lb ? la : lb;
  const NodeIndex a_low = la == top ? nodes_[a].low : a;
  const NodeIndex a_high = la == top ? nodes_[a].high : a;
  const NodeIndex b_low = lb == top ? nodes_[b].low : b;
  const NodeIndex b_high = lb == top ? nodes_[b].high : b;

  const NodeIndex low = apply_rec(op, a_low, b_low);
  const NodeIndex high = apply_rec(op, a_high, b_high);
  const NodeIndex result = make(top, low, high);

  // make() may have resized the cache; recompute the slot before storing.
  if (cache_enabled_) op_cache_[(key * kGolden >> 32) & op_cache_mask_] = {key, result};
  return result;
}

NodeIndex BddManager::negate(NodeIndex a) { return negate_rec(a); }

NodeIndex BddManager::negate_rec(NodeIndex a) {
  if (a == kFalse) return kTrue;
  if (a == kTrue) return kFalse;
  const uint64_t slot =
      (static_cast<uint64_t>(a) * kGolden >> 32) & neg_cache_mask_;
  if (cache_enabled_) {
    const CacheEntry& e = neg_cache_[slot];
    if (e.key == a) {
      ++neg_stats_.hits;
      return e.result;
    }
    ++neg_stats_.misses;
  }
  const BddNode nd = nodes_[a];
  const NodeIndex low = negate_rec(nd.low);
  const NodeIndex high = negate_rec(nd.high);
  const NodeIndex result = make(nd.var, low, high);
  if (cache_enabled_) {
    neg_cache_[slot] = {a, result};
    // Negation is an involution: prime the reverse direction too, so
    // round-trips (covered = NOT uncovered = NOT NOT covered) stay O(1).
    neg_cache_[(static_cast<uint64_t>(result) * kGolden >> 32) & neg_cache_mask_] = {
        result, a};
  }
  return result;
}

Uint128 BddManager::count_index(NodeIndex a) {
  if (count_memo_.size() < nodes_.size()) {
    count_memo_.resize(nodes_.size(), 0);
    count_memo_valid_.resize(nodes_.size(), false);
  }
  // Iterative post-order to avoid deep recursion on wide header spaces.
  // c(n) = c(low)*2^(level(low)-level(n)-1) + c(high)*2^(level(high)-level(n)-1)
  // with c(false)=0, c(true)=1; final count scales by 2^level(root).
  // A memoized root skips the walk (and its stack allocation) entirely.
  struct Frame {
    NodeIndex n;
    bool expanded;
  };
  std::vector<Frame> stack;
  if (a != kFalse && a != kTrue && !count_memo_valid_[a]) stack.push_back({a, false});
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    if (n == kFalse || n == kTrue) continue;
    if (count_memo_valid_[n]) continue;
    const BddNode& nd = nodes_[n];
    if (!expanded) {
      stack.push_back({n, true});
      stack.push_back({nd.low, false});
      stack.push_back({nd.high, false});
      continue;
    }
    const auto sub = [&](NodeIndex child) -> Uint128 {
      Uint128 c;
      if (child == kFalse) {
        c = 0;
      } else if (child == kTrue) {
        c = 1;
      } else {
        c = count_memo_[child];
      }
      return c << (level(child) - nd.var - 1);
    };
    count_memo_[n] = sub(nd.low) + sub(nd.high);
    count_memo_valid_[n] = true;
  }
  Uint128 base;
  if (a == kFalse) {
    base = 0;
  } else if (a == kTrue) {
    base = 1;
  } else {
    base = count_memo_[a];
  }
  return base << level(a);
}

Bdd BddManager::exists(const Bdd& f, const std::vector<bool>& quantified) {
  assert(f.manager() == this);
  assert(quantified.size() >= num_vars_);
  std::vector<NodeIndex> memo(nodes_.size(), kEmptySlot);
  return {this, exists_rec(f.index(), quantified, memo)};
}

NodeIndex BddManager::exists_rec(NodeIndex f, const std::vector<bool>& quantified,
                                 std::vector<NodeIndex>& memo) {
  if (f <= kTrue) return f;
  if (memo[f] != kEmptySlot) return memo[f];
  const BddNode nd = nodes_[f];
  const NodeIndex low = exists_rec(nd.low, quantified, memo);
  const NodeIndex high = exists_rec(nd.high, quantified, memo);
  // Note: make() may grow nodes_, so memo is indexed by the *input* node id,
  // which is stable. memo may be smaller than nodes_ after growth; only
  // original nodes are memoized, which is all we look up.
  const NodeIndex result = quantified[nd.var] ? apply(Op::Or, low, high)
                                              : make(nd.var, low, high);
  memo[f] = result;
  return result;
}

Bdd BddManager::restrict_var(const Bdd& f, Var v, bool value) {
  assert(f.manager() == this);
  std::vector<NodeIndex> memo(nodes_.size(), kEmptySlot);
  return {this, restrict_rec(f.index(), v, value, memo)};
}

NodeIndex BddManager::restrict_rec(NodeIndex f, Var v, bool value,
                                   std::vector<NodeIndex>& memo) {
  if (f <= kTrue) return f;
  const BddNode nd = nodes_[f];
  if (nd.var > v) return f;  // v does not appear below this level
  if (nd.var == v) return value ? nd.high : nd.low;
  if (memo[f] != kEmptySlot) return memo[f];
  const NodeIndex low = restrict_rec(nd.low, v, value, memo);
  const NodeIndex high = restrict_rec(nd.high, v, value, memo);
  const NodeIndex result = make(nd.var, low, high);
  memo[f] = result;
  return result;
}

std::vector<bool> BddManager::pick_one(const Bdd& f) {
  assert(f.manager() == this && !f.is_false());
  std::vector<bool> assignment(num_vars_, false);
  NodeIndex n = f.index();
  while (n > kTrue) {
    const BddNode& nd = nodes_[n];
    if (nd.low != kFalse) {
      assignment[nd.var] = false;
      n = nd.low;
    } else {
      assignment[nd.var] = true;
      n = nd.high;
    }
  }
  return assignment;
}

std::vector<Var> BddManager::support(const Bdd& f) {
  std::vector<bool> present(num_vars_, false);
  std::unordered_set<NodeIndex> seen;
  std::vector<NodeIndex> stack{f.index()};
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (n <= kTrue || !seen.insert(n).second) continue;
    present[nodes_[n].var] = true;
    stack.push_back(nodes_[n].low);
    stack.push_back(nodes_[n].high);
  }
  std::vector<Var> result;
  for (Var v = 0; v < num_vars_; ++v) {
    if (present[v]) result.push_back(v);
  }
  return result;
}

bool BddManager::evaluate(const Bdd& f, const std::vector<bool>& assignment) const {
  assert(assignment.size() >= num_vars_);
  NodeIndex n = f.index();
  while (n > kTrue) {
    const BddNode& nd = nodes_[n];
    n = assignment[nd.var] ? nd.high : nd.low;
  }
  return n == kTrue;
}

std::string BddManager::to_dot(const Bdd& f) {
  std::ostringstream out;
  out << "digraph bdd {\n";
  out << "  node0 [label=\"0\", shape=box];\n  node1 [label=\"1\", shape=box];\n";
  std::unordered_set<NodeIndex> seen;
  std::vector<NodeIndex> stack{f.index()};
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (n <= kTrue || !seen.insert(n).second) continue;
    const BddNode& nd = nodes_[n];
    out << "  node" << n << " [label=\"x" << nd.var << "\"];\n";
    out << "  node" << n << " -> node" << nd.low << " [style=dashed];\n";
    out << "  node" << n << " -> node" << nd.high << ";\n";
    stack.push_back(nd.low);
    stack.push_back(nd.high);
  }
  out << "}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// NodeIndexMap
// ---------------------------------------------------------------------------

NodeIndexMap::NodeIndexMap(size_t initial_capacity) {
  size_t capacity = 16;
  while (capacity < initial_capacity) capacity *= 2;
  entries_.assign(capacity, Entry{});
  mask_ = capacity - 1;
}

const NodeIndex* NodeIndexMap::find(NodeIndex key) const {
  size_t slot = slot_of(key);
  while (true) {
    const Entry& e = entries_[slot];
    if (e.key == key) return &e.value;
    if (e.key == kEmptySlot) return nullptr;
    slot = (slot + 1) & mask_;
  }
}

void NodeIndexMap::insert(NodeIndex key, NodeIndex value) {
  assert(key != kEmptySlot);
  if ((size_ + 1) * 4 > entries_.size() * 3) grow();
  size_t slot = slot_of(key);
  while (entries_[slot].key != kEmptySlot) {
    assert(entries_[slot].key != key);  // callers probe with find() first
    slot = (slot + 1) & mask_;
  }
  entries_[slot] = {key, value};
  ++size_;
}

void NodeIndexMap::grow() {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(old.size() * 2, Entry{});
  mask_ = entries_.size() - 1;
  for (const Entry& e : old) {
    if (e.key == kEmptySlot) continue;
    size_t slot = slot_of(e.key);
    while (entries_[slot].key != kEmptySlot) slot = (slot + 1) & mask_;
    entries_[slot] = e;
  }
}

void NodeIndexMap::remap_values(const GcResult& gc) {
  size_t survivors = 0;
  for (const Entry& e : entries_) {
    if (e.key != kEmptySlot && gc.map(e.value) != GcResult::kDeadNode) ++survivors;
  }
  size_t capacity = 16;
  while (survivors * 4 > capacity * 3) capacity *= 2;
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(capacity, Entry{});
  mask_ = capacity - 1;
  size_ = 0;
  for (const Entry& e : old) {
    if (e.key == kEmptySlot) continue;
    const NodeIndex renumbered = gc.map(e.value);
    if (renumbered == GcResult::kDeadNode) continue;  // re-imported on next use
    size_t slot = slot_of(e.key);
    while (entries_[slot].key != kEmptySlot) slot = (slot + 1) & mask_;
    entries_[slot] = {e.key, renumbered};
    ++size_;
  }
}

// ---------------------------------------------------------------------------
// Cross-manager import
// ---------------------------------------------------------------------------

BddImporter::BddImporter(BddManager& dst, const BddManager& src) : dst_(dst), src_(src) {
  if (dst.num_vars() != src.num_vars()) {
    throw ys::InvalidInputError("BddImporter requires matching variable universes");
  }
}

NodeIndex BddImporter::import_index(NodeIndex root) {
  if (root <= kTrue) return root;  // terminals share indices everywhere
  if (const NodeIndex* hit = memo_.find(root)) return *hit;
  // Copy the fields before recursing: dst_.make() may be src_ itself in
  // degenerate uses, and recursion must not hold a reference into a
  // vector that can reallocate.
  const BddNode nd = src_.node(root);
  const NodeIndex low = import_index(nd.low);
  const NodeIndex high = import_index(nd.high);
  const NodeIndex out = dst_.make(nd.var, low, high);
  memo_.insert(root, out);
  return out;
}

Bdd BddImporter::import(const Bdd& f) {
  if (!f.valid()) return {};
  assert(f.manager() == &src_ || f.manager() == &dst_);
  if (f.manager() == &dst_) return f;
  return {&dst_, import_index(f.index())};
}

// ---------------------------------------------------------------------------
// N-ary union
// ---------------------------------------------------------------------------

NodeIndex NaryUnion::unite(std::span<const NodeIndex> operands) {
  // unite() is not reentrant, so the stack holds only this call's lists;
  // clearing it here also drops what a throwing call left behind.
  stack_.clear();
  for (const NodeIndex f : operands) {
    if (f == kTrue) return kTrue;
    if (f != kFalse) stack_.push_back(f);
  }
  return unite_rec(0);
}

NodeIndex NaryUnion::unite_rec(size_t base) {
  const auto first = stack_.begin() + static_cast<std::ptrdiff_t>(base);
  if (!std::is_sorted(first, stack_.end())) std::sort(first, stack_.end());
  stack_.erase(std::unique(first, stack_.end()), stack_.end());
  const size_t size = stack_.size() - base;
  if (size == 0) return kFalse;
  if (size == 1) return stack_[base];
  if (size == 2) return mgr_.apply(BddManager::Op::Or, stack_[base], stack_[base + 1]);

  uint64_t hash = size;
  Var top = mgr_.num_vars();
  for (size_t i = base; i < base + size; ++i) {
    hash = (hash ^ stack_[i]) * kGolden;
    top = std::min(top, mgr_.node(stack_[i]).var);
  }
  hash ^= hash >> 32;  // the table slots on the low bits
  if (const Entry* hit = find(hash, base, size)) return hit->result;

  // Each cofactor list goes on the stack above this one; a kTrue cofactor
  // decides its branch without a recursion.
  const auto cofactor = [&](bool high) {
    const size_t child = stack_.size();
    for (size_t i = base; i < base + size; ++i) {
      const BddNode& n = mgr_.node(stack_[i]);
      const NodeIndex c = n.var != top ? stack_[i] : high ? n.high : n.low;
      if (c == kTrue) {
        stack_.resize(child);
        return kTrue;
      }
      if (c != kFalse) stack_.push_back(c);
    }
    const NodeIndex r = unite_rec(child);
    stack_.resize(child);
    return r;
  };
  const NodeIndex low = cofactor(false);
  const NodeIndex high = cofactor(true);
  const NodeIndex result = mgr_.make(top, low, high);
  remember(hash, base, size, result);
  return result;
}

const NaryUnion::Entry* NaryUnion::find(uint64_t hash, size_t base, size_t size) const {
  if (table_.empty()) return nullptr;
  const uint64_t mask = table_.size() - 1;
  for (uint64_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const Entry& e = table_[slot];
    if (e.size == 0) return nullptr;
    if (e.hash == hash && e.size == size &&
        std::equal(keys_.begin() + e.offset, keys_.begin() + e.offset + size,
                   stack_.begin() + static_cast<std::ptrdiff_t>(base))) {
      return &e;
    }
  }
}

void NaryUnion::remember(uint64_t hash, size_t base, size_t size, NodeIndex result) {
  if ((entries_ + 1) * 4 > table_.size() * 3) {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.empty() ? 64 : old.size() * 2, Entry{});
    const uint64_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.size == 0) continue;
      uint64_t slot = e.hash & mask;
      while (table_[slot].size != 0) slot = (slot + 1) & mask;
      table_[slot] = e;
    }
  }
  const uint64_t mask = table_.size() - 1;
  uint64_t slot = hash & mask;
  while (table_[slot].size != 0) slot = (slot + 1) & mask;
  table_[slot] = {hash, static_cast<uint32_t>(keys_.size()), static_cast<uint32_t>(size), result};
  keys_.insert(keys_.end(), stack_.begin() + static_cast<std::ptrdiff_t>(base),
               stack_.begin() + static_cast<std::ptrdiff_t>(base + size));
  ++entries_;
}

}  // namespace yardstick::bdd
