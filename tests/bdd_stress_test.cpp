// Stress and growth-path tests for the BDD engine: unique-table resizing,
// persistent count-memo growth, deep structures at full header width, and
// quantification over large functions.
#include <gtest/gtest.h>

#include <set>

#include "bdd/bdd.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::bdd {
namespace {

using packet::Ipv4Prefix;
using packet::PacketSet;

TEST(BddStressTest, UniqueTableGrowsPastInitialCapacity) {
  // Initial unique capacity is 64K; build well past it and verify
  // canonicity still holds afterwards.
  BddManager mgr(packet::kNumHeaderBits);
  Bdd acc = mgr.zero();
  // Sparse scattered /24s force large intermediate unions; interleave two
  // address planes so intermediate results do not collapse into prefixes.
  for (uint32_t i = 0; i < 3000; ++i) {
    const uint32_t addr = (i * 2654435761u) & 0xFFFFFF00u;  // Knuth scatter
    acc = acc | PacketSet::dst_prefix(mgr, Ipv4Prefix(addr, 24)).raw();
  }
  EXPECT_GT(mgr.arena_size(), size_t{1} << 16);
  // Rebuild the same function from scratch: hash consing must give the
  // exact same root despite multiple table growths in between.
  Bdd again = mgr.zero();
  for (uint32_t i = 0; i < 3000; ++i) {
    const uint32_t addr = (i * 2654435761u) & 0xFFFFFF00u;
    again = again | PacketSet::dst_prefix(mgr, Ipv4Prefix(addr, 24)).raw();
  }
  EXPECT_EQ(acc, again);
  // Scattered multiplications can collide; count the distinct /24s.
  std::set<uint32_t> distinct;
  for (uint32_t i = 0; i < 3000; ++i) distinct.insert((i * 2654435761u) & 0xFFFFFF00u);
  EXPECT_EQ(acc.count(), Uint128{distinct.size()} * pow2(80));
}

TEST(BddStressTest, CountMemoSurvivesArenaGrowth) {
  BddManager mgr(packet::kNumHeaderBits);
  const Bdd early = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8")).raw();
  const Uint128 early_count = early.count();  // memoized now
  // Grow the arena substantially (forces count-memo resizing).
  Bdd acc = mgr.zero();
  for (uint32_t i = 0; i < 2000; ++i) {
    acc = acc | PacketSet::dst_prefix(mgr, Ipv4Prefix(0xC0000000u + (i << 10), 26)).raw();
    if ((i & 0xff) == 0) (void)acc.count();  // interleave counting with growth
  }
  // Memo for the early node must still answer correctly.
  EXPECT_EQ(early.count(), early_count);
  EXPECT_EQ(early.count(), pow2(96));
}

TEST(BddStressTest, ExistsOverWideFunction) {
  BddManager mgr(packet::kNumHeaderBits);
  // Union of many prefixes, then forget the whole dst field: result is
  // the universe (every dst had some member).
  PacketSet acc = PacketSet::none(mgr);
  for (uint32_t i = 0; i < 64; ++i) {
    acc = acc.union_with(PacketSet::dst_prefix(mgr, Ipv4Prefix(i << 26, 6)));
  }
  EXPECT_TRUE(acc.full());  // 64 disjoint /6s cover the space
  const PacketSet partial =
      PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"))
          .intersect(PacketSet::field_equals(mgr, packet::Field::DstPort, 80));
  EXPECT_EQ(partial.forget_field(packet::Field::DstIp),
            PacketSet::field_equals(mgr, packet::Field::DstPort, 80));
}

TEST(BddStressTest, DeepChainEvaluation) {
  // A conjunction across every variable exercises the full depth.
  BddManager mgr(120);
  Bdd all_ones = mgr.one();
  for (Var v = 0; v < 120; ++v) all_ones = all_ones & mgr.var(v);
  EXPECT_EQ(all_ones.count(), Uint128{1});
  EXPECT_EQ(all_ones.node_count(), 122u);  // 120 vars + 2 terminals
  const std::vector<bool> assignment(120, true);
  EXPECT_TRUE(mgr.evaluate(all_ones, assignment));
  std::vector<bool> almost = assignment;
  almost[119] = false;
  EXPECT_FALSE(mgr.evaluate(all_ones, almost));
}

TEST(BddStressTest, XorLadderStaysCanonical) {
  // XOR chains are the classic blowup-free worst case for ROBDDs: linear
  // nodes, exponential minterms.
  BddManager mgr(64);
  Bdd parity = mgr.zero();
  for (Var v = 0; v < 64; ++v) parity = parity ^ mgr.var(v);
  EXPECT_EQ(parity.count(), pow2(63));  // half of all assignments
  EXPECT_EQ(parity.node_count(), 2u + 2u * 63u + 1u);  // canonical parity DAG
  EXPECT_EQ(parity ^ parity, mgr.zero());
}

TEST(BddStressTest, CacheStatsAccumulate) {
  BddManager mgr(32);
  const Bdd a = mgr.var(0) & mgr.var(5) & mgr.var(9);
  const Bdd b = mgr.var(1) & mgr.var(5) & mgr.var(11);
  (void)(a | b);
  (void)(a | b);  // second time should hit the cache
  const auto stats = mgr.cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace yardstick::bdd
