// Correctness suite for phase-boundary mark-compact GC (BddManager::collect)
// and its satellites: the remap contract, budget charge balance on every
// path, the importer memo (NodeIndexMap) rekeying, the dedicated complement
// memo, reserve_nodes' single-rehash guarantee, and GcRootTracker's handle
// fixup. The cross-thread bit-identity of full engine runs with GC on/off
// lives in parallel_determinism_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd.hpp"
#include "common/budget.hpp"
#include "packet/gc_roots.hpp"
#include "packet/packet_set.hpp"

namespace yardstick {
namespace {

// Deterministic LCG so every run builds the same functions.
uint64_t next_rand(uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

bdd::Bdd random_cube(bdd::BddManager& m, uint64_t& state, int width) {
  bdd::Bdd acc = m.one();
  for (int i = 0; i < width; ++i) {
    const bdd::Var v = static_cast<bdd::Var>(next_rand(state) % m.num_vars());
    acc &= (next_rand(state) & 1) != 0 ? m.var(v) : m.nvar(v);
  }
  return acc;
}

bdd::Bdd random_function(bdd::BddManager& m, uint64_t& state, int cubes, int width) {
  bdd::Bdd acc = m.zero();
  for (int i = 0; i < cubes; ++i) acc |= random_cube(m, state, width);
  return acc;
}

TEST(BddGc, SemanticIdentityAcrossCollect) {
  bdd::BddManager m(32);
  uint64_t state = 42;
  std::vector<bdd::Bdd> fs;
  for (int i = 0; i < 16; ++i) fs.push_back(random_function(m, state, 8, 6));
  // Pure garbage: results nobody keeps.
  for (int i = 0; i < 16; ++i) (void)(fs[i] ^ fs[(i + 7) % 16]);

  std::vector<bdd::Uint128> counts;
  std::vector<size_t> sizes;
  for (const bdd::Bdd& f : fs) {
    counts.push_back(f.count());
    sizes.push_back(f.node_count());
  }
  const bool f0_implies_union = fs[0].implies(fs[0] | fs[1]);

  const size_t before = m.arena_size();
  std::vector<bdd::NodeIndex> roots;
  for (const bdd::Bdd& f : fs) roots.push_back(f.index());
  const bdd::GcResult gc = m.collect(roots);

  EXPECT_EQ(gc.live_nodes + gc.reclaimed, before);
  EXPECT_EQ(m.arena_size(), gc.live_nodes);
  EXPECT_GT(gc.reclaimed, 0u);

  for (size_t i = 0; i < fs.size(); ++i) {
    const bdd::NodeIndex idx = gc.map(fs[i].index());
    ASSERT_NE(idx, bdd::GcResult::kDeadNode);
    fs[i] = bdd::Bdd(&m, idx);
    EXPECT_TRUE(counts[i] == fs[i].count()) << "count changed for function " << i;
    EXPECT_EQ(sizes[i], fs[i].node_count()) << "shape changed for function " << i;
  }
  // Operations on remapped handles still behave.
  EXPECT_EQ(f0_implies_union, fs[0].implies(fs[0] | fs[1]));
  EXPECT_EQ(fs[2] & fs[2], fs[2]);
  EXPECT_TRUE(((fs[3] | !fs[3]) == m.one()));
}

TEST(BddGc, RemapContract) {
  bdd::BddManager m(16);
  const bdd::Bdd f = m.var(0) & m.var(1);
  const bdd::Bdd g = m.var(2) & m.var(3) & m.var(4);  // nodes unique to g

  const std::vector<bdd::NodeIndex> roots = {f.index()};
  const bdd::GcResult gc = m.collect(roots);

  // Terminals map to themselves; dead roots map to kDeadNode.
  EXPECT_EQ(gc.map(bdd::kFalse), bdd::kFalse);
  EXPECT_EQ(gc.map(bdd::kTrue), bdd::kTrue);
  EXPECT_EQ(gc.map(g.index()), bdd::GcResult::kDeadNode);
  ASSERT_NE(gc.map(f.index()), bdd::GcResult::kDeadNode);

  // Canonicity after compaction: hash-consing still finds the survivors.
  const bdd::NodeIndex fi = gc.map(f.index());
  const bdd::BddNode& n = m.node(fi);
  EXPECT_EQ(m.make(n.var, n.low, n.high), fi);
  EXPECT_EQ((m.var(0) & m.var(1)).index(), fi);
  // And a rebuilt g is a fresh, live function again.
  const bdd::Bdd g2 = m.var(2) & m.var(3) & m.var(4);
  EXPECT_TRUE(g2.count() == bdd::pow2(16 - 3));
}

TEST(BddGc, CollectIsIdempotentWhenNothingDied) {
  bdd::BddManager m(24);
  uint64_t state = 7;
  bdd::Bdd f = random_function(m, state, 10, 5);
  std::vector<bdd::NodeIndex> roots = {f.index()};
  const bdd::GcResult first = m.collect(roots);
  f = bdd::Bdd(&m, first.map(f.index()));

  roots = {f.index()};
  const bdd::GcResult second = m.collect(roots);
  EXPECT_EQ(second.reclaimed, 0u);
  EXPECT_EQ(second.map(f.index()), f.index());  // identity remap
  EXPECT_EQ(second.live_nodes, first.live_nodes);
}

TEST(BddGc, BudgetChargeBalancedAcrossCollectAndDetach) {
  ys::ResourceBudget budget;
  bdd::BddManager m(32);
  uint64_t state = 99;
  const bdd::Bdd keep = random_function(m, state, 12, 6);

  m.set_budget(&budget);
  EXPECT_EQ(budget.used_bdd_nodes(), m.arena_size());

  // Growth while attached is charged one node at a time.
  (void)random_function(m, state, 12, 6);
  EXPECT_EQ(budget.used_bdd_nodes(), m.arena_size());
  const size_t peak_before_gc = budget.peak_bdd_nodes();
  EXPECT_GE(peak_before_gc, m.arena_size());

  // collect() returns exactly the reclaimed charge to the pool...
  const std::vector<bdd::NodeIndex> roots = {keep.index()};
  const bdd::GcResult gc = m.collect(roots);
  EXPECT_GT(gc.reclaimed, 0u);
  EXPECT_EQ(budget.used_bdd_nodes(), m.arena_size());
  // ...and never lowers the high-water mark.
  EXPECT_EQ(budget.peak_bdd_nodes(), peak_before_gc);

  // Detach releases the rest, leaving the shared pool balanced.
  m.set_budget(nullptr);
  EXPECT_EQ(budget.used_bdd_nodes(), 0u);
}

TEST(BddGc, BudgetChargeBalancedOnExceptionPath) {
  ys::ResourceBudget budget;
  budget.with_max_bdd_nodes(64);
  bdd::BddManager m(32);
  m.set_budget(&budget);
  uint64_t state = 1;
  bool threw = false;
  try {
    for (int i = 0; i < 1000; ++i) (void)random_function(m, state, 16, 8);
  } catch (const ys::StatusError& e) {
    threw = ys::is_resource_exhaustion(e.code());
  }
  EXPECT_TRUE(threw);
  EXPECT_LE(budget.used_bdd_nodes(), 64u);
  // The failed allocation charged nothing: the manager's own charge still
  // matches its arena, so detaching drains the pool to zero.
  EXPECT_EQ(budget.used_bdd_nodes(), m.arena_size());
  m.set_budget(nullptr);
  EXPECT_EQ(budget.used_bdd_nodes(), 0u);
}

TEST(BddGc, DueTriggerRespectsThresholdAndFloor) {
  bdd::BddManager m(32);
  uint64_t state = 5;
  EXPECT_FALSE(m.gc_due());  // disarmed by default

  m.set_gc_threshold(0.5, /*min_arena=*/16);
  bdd::Bdd keep = random_function(m, state, 10, 6);
  ASSERT_GE(m.arena_size(), 16u);
  // Fresh manager: everything beyond the terminals was allocated since the
  // last (nonexistent) collection, so the dead-fraction upper bound is ~1.
  EXPECT_TRUE(m.gc_due());

  const std::vector<bdd::NodeIndex> roots = {keep.index()};
  const bdd::GcResult gc = m.collect(roots);
  keep = bdd::Bdd(&m, gc.map(keep.index()));
  EXPECT_FALSE(m.gc_due());  // nothing allocated since the collection

  // An armed-but-never-firing threshold (the overhead-probe mode).
  m.set_gc_threshold(1.0, 16);
  (void)random_function(m, state, 10, 6);
  EXPECT_FALSE(m.gc_due());

  // A high floor suppresses small-arena collections outright.
  m.set_gc_threshold(0.1, m.arena_size() * 100);
  EXPECT_FALSE(m.gc_due());
}

TEST(BddGc, StatsExposeGcCounters) {
  bdd::BddManager m(24);
  uint64_t state = 3;
  const bdd::Bdd keep = random_function(m, state, 10, 5);
  (void)random_function(m, state, 10, 5);
  EXPECT_EQ(m.stats().gc_runs, 0u);

  const std::vector<bdd::NodeIndex> roots = {keep.index()};
  const bdd::GcResult gc = m.collect(roots);
  const bdd::BddManager::Stats s = m.stats();
  EXPECT_EQ(s.gc_runs, 1u);
  EXPECT_EQ(s.gc_reclaimed_nodes, gc.reclaimed);
  EXPECT_EQ(s.arena_nodes, gc.live_nodes);
}

TEST(BddGc, NegationMemoIsCorrectAndCounted) {
  bdd::BddManager m(24);
  uint64_t state = 11;
  const bdd::Bdd f = random_function(m, state, 8, 5);

  const bdd::BddManager::Stats s0 = m.stats();
  const bdd::Bdd nf = !f;
  EXPECT_EQ(f & nf, m.zero());
  EXPECT_EQ(f | nf, m.one());
  EXPECT_TRUE(f.count() + nf.count() == bdd::pow2(24));

  // Involution comes straight from the memo (both directions are inserted).
  const bdd::Bdd back = !nf;
  EXPECT_EQ(back, f);
  const bdd::BddManager::Stats s1 = m.stats();
  EXPECT_GT(s1.neg_cache_misses, s0.neg_cache_misses);
  EXPECT_GT(s1.neg_cache_hits, s0.neg_cache_hits);

  // Terminals never touch the memo.
  EXPECT_EQ(!m.zero(), m.one());
  EXPECT_EQ(!m.one(), m.zero());
}

TEST(BddGc, ReserveNodesRehashesOnce) {
  bdd::BddManager m(16);
  const uint64_t growths0 = m.stats().unique_table_growths;
  m.reserve_nodes(1 << 18);  // far beyond the initial table
  EXPECT_EQ(m.stats().unique_table_growths, growths0 + 1);
  m.reserve_nodes(16);  // already capacious: no rehash at all
  EXPECT_EQ(m.stats().unique_table_growths, growths0 + 1);
  // The reservation is usable: bulk building stays rehash-free.
  uint64_t state = 13;
  (void)random_function(m, state, 30, 6);
  EXPECT_EQ(m.stats().unique_table_growths, growths0 + 1);
}

TEST(BddGc, OpCacheRightSizedByCollect) {
  bdd::BddManager m(32);
  uint64_t state = 21;
  const bdd::Bdd keep = random_function(m, state, 10, 6);
  const size_t cache_before = m.stats().op_cache_entries;
  EXPECT_NE(cache_before, 0u);
  EXPECT_EQ(cache_before & (cache_before - 1), 0u) << "capacity must stay a power of two";

  const std::vector<bdd::NodeIndex> roots = {keep.index()};
  (void)m.collect(roots);
  const size_t cache_after = m.stats().op_cache_entries;
  EXPECT_LE(cache_after, cache_before);  // collect never grows the cache
  EXPECT_EQ(cache_after & (cache_after - 1), 0u);
}

TEST(NodeIndexMap, InsertFindGrow) {
  bdd::NodeIndexMap map(/*initial_capacity=*/16);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(5), nullptr);
  // Push far past the initial capacity to exercise growth + re-slotting.
  for (uint32_t i = 0; i < 500; ++i) map.insert(i + 2, i * 3 + 2);
  EXPECT_EQ(map.size(), 500u);
  for (uint32_t i = 0; i < 500; ++i) {
    const bdd::NodeIndex* v = map.find(i + 2);
    ASSERT_NE(v, nullptr) << "key " << i + 2;
    EXPECT_EQ(*v, i * 3 + 2);
  }
  EXPECT_EQ(map.find(1000), nullptr);
}

TEST(NodeIndexMap, RemapValuesDropsDeadAndRenumbers) {
  bdd::NodeIndexMap map;
  for (uint32_t i = 0; i < 100; ++i) map.insert(i + 2, i * 3 + 2);  // values 2..299
  bdd::GcResult gc;
  gc.remap.resize(300, bdd::GcResult::kDeadNode);
  for (uint32_t v = 0; v < 300; ++v) {
    if (v % 2 == 0) gc.remap[v] = v / 2;  // evens survive, renumbered
  }
  map.remap_values(gc);
  size_t survivors = 0;
  for (uint32_t i = 0; i < 100; ++i) {
    const uint32_t value = i * 3 + 2;
    const bdd::NodeIndex* v = map.find(i + 2);
    if (value % 2 == 0) {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, value / 2);
      ++survivors;
    } else {
      EXPECT_EQ(v, nullptr);
    }
  }
  EXPECT_EQ(map.size(), survivors);
}

TEST(BddGc, ImporterMemoFollowsDestinationCollect) {
  bdd::BddManager src(24);
  bdd::BddManager dst(24);
  uint64_t state = 17;
  const bdd::Bdd f = random_function(src, state, 8, 5);
  const bdd::Bdd g = random_function(src, state, 8, 5);

  bdd::BddImporter imp(dst, src);
  bdd::Bdd fd = imp.import(f);
  const bdd::Bdd gd = imp.import(g);
  EXPECT_TRUE(fd.count() == f.count());
  EXPECT_TRUE(gd.count() == g.count());
  const size_t memo_full = imp.imported_nodes();

  // Collect the destination keeping only f's copy; rekey the memo.
  const std::vector<bdd::NodeIndex> roots = {fd.index()};
  const bdd::GcResult gc = dst.collect(roots);
  imp.rekey_destination(gc);
  fd = bdd::Bdd(&dst, gc.map(fd.index()));
  EXPECT_LT(imp.imported_nodes(), memo_full) << "dead copies must leave the memo";

  // Re-importing f is a pure memo hit on the renumbered entries...
  const size_t memo_after_rekey = imp.imported_nodes();
  const bdd::Bdd fd2 = imp.import(f);
  EXPECT_EQ(fd2, fd);
  EXPECT_EQ(imp.imported_nodes(), memo_after_rekey) << "memo hit must not re-copy";
  // ...and g re-imports from scratch, semantically intact.
  const bdd::Bdd gd2 = imp.import(g);
  EXPECT_TRUE(gd2.count() == g.count());
}

TEST(BddGc, RootTrackerFixesHandlesAcrossCollect) {
  bdd::BddManager m(packet::kNumHeaderBits);
  m.set_gc_threshold(0.25, /*min_arena=*/16);
  packet::GcRootTracker tracker(m);

  // Pre-sized result vector: the tracker may hold raw pointers into it.
  std::vector<packet::PacketSet> results(12);
  uint64_t state = 31;
  for (size_t i = 0; i < results.size(); ++i) {
    results[i] = packet::PacketSet(random_function(m, state, 6, 5));
    tracker.track(results[i]);
  }
  std::vector<bdd::Uint128> counts;
  for (const packet::PacketSet& ps : results) counts.push_back(ps.raw().count());

  // A tracked slot may hold another manager's handle, as a shard's slot
  // holds the primary's M[r] for a state-inspected rule: it is no root and
  // is not renumbered, though its index is also a node index of `m`.
  bdd::BddManager other(packet::kNumHeaderBits);
  uint64_t other_state = 47;
  packet::PacketSet foreign(random_function(other, other_state, 6, 5));
  const packet::PacketSet foreign_before = foreign;
  ASSERT_LT(foreign.raw().index(), m.arena_size());
  tracker.track(foreign);

  ASSERT_TRUE(tracker.due());
  const bdd::GcResult gc = tracker.collect();
  EXPECT_GT(gc.reclaimed, 0u);

  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].valid());
    EXPECT_TRUE(counts[i] == results[i].raw().count()) << "set " << i;
  }
  EXPECT_EQ(foreign, foreign_before);
  EXPECT_EQ(foreign.raw().manager(), &other);
  // The manager stays fully usable: operations across fixed-up handles.
  const packet::PacketSet u = results[0].union_with(results[1]);
  EXPECT_TRUE(results[0].raw().implies(u.raw()));
}

}  // namespace
}  // namespace yardstick
