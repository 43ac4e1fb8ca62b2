// Unit and property tests for the ROBDD engine.
#include <gtest/gtest.h>

#include <random>

#include "bdd/bdd.hpp"

namespace yardstick::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddManager mgr{8};
};

TEST_F(BddTest, TerminalsAreDistinct) {
  EXPECT_TRUE(mgr.zero().is_false());
  EXPECT_TRUE(mgr.one().is_true());
  EXPECT_NE(mgr.zero(), mgr.one());
}

TEST_F(BddTest, VarAndNvarAreComplements) {
  for (Var v = 0; v < 8; ++v) {
    EXPECT_EQ(!mgr.var(v), mgr.nvar(v));
    EXPECT_EQ((mgr.var(v) | mgr.nvar(v)), mgr.one());
    EXPECT_EQ((mgr.var(v) & mgr.nvar(v)), mgr.zero());
  }
}

TEST_F(BddTest, HashConsingGivesCanonicity) {
  const Bdd a = mgr.var(0) & mgr.var(1);
  const Bdd b = mgr.var(1) & mgr.var(0);
  EXPECT_EQ(a, b);  // same function => same node index
  const Bdd c = (mgr.var(0) | mgr.var(1)) & (mgr.var(0) | !mgr.var(1));
  EXPECT_EQ(c, mgr.var(0));
}

TEST_F(BddTest, DoubleNegation) {
  const Bdd f = (mgr.var(0) & mgr.var(2)) | mgr.nvar(5);
  EXPECT_EQ(!!f, f);
}

TEST_F(BddTest, DeMorgan) {
  const Bdd a = mgr.var(1) | (mgr.var(3) & mgr.var(4));
  const Bdd b = mgr.var(2) & mgr.nvar(6);
  EXPECT_EQ(!(a & b), (!a | !b));
  EXPECT_EQ(!(a | b), (!a & !b));
}

TEST_F(BddTest, AbsorptionAndIdempotence) {
  const Bdd a = mgr.var(0) ^ mgr.var(3);
  const Bdd b = mgr.var(1) & mgr.var(2);
  EXPECT_EQ((a & (a | b)), a);
  EXPECT_EQ((a | (a & b)), a);
  EXPECT_EQ((a & a), a);
  EXPECT_EQ((a | a), a);
}

TEST_F(BddTest, DifferenceSemantics) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  EXPECT_EQ(a - b, a & !b);
  EXPECT_EQ(a - a, mgr.zero());
  EXPECT_EQ(a - mgr.zero(), a);
  EXPECT_EQ(a - mgr.one(), mgr.zero());
}

TEST_F(BddTest, XorProperties) {
  const Bdd a = mgr.var(2) | mgr.var(4);
  const Bdd b = mgr.var(3);
  EXPECT_EQ(a ^ a, mgr.zero());
  EXPECT_EQ(a ^ mgr.zero(), a);
  EXPECT_EQ(a ^ mgr.one(), !a);
  EXPECT_EQ(a ^ b, (a - b) | (b - a));
}

TEST_F(BddTest, CountTerminals) {
  EXPECT_EQ(mgr.zero().count(), Uint128{0});
  EXPECT_EQ(mgr.one().count(), pow2(8));
}

TEST_F(BddTest, CountSingleVariable) {
  EXPECT_EQ(mgr.var(0).count(), pow2(7));
  EXPECT_EQ(mgr.var(7).count(), pow2(7));
  EXPECT_EQ(mgr.nvar(3).count(), pow2(7));
}

TEST_F(BddTest, CountInclusionExclusion) {
  const Bdd a = mgr.var(0) & mgr.var(1);
  const Bdd b = mgr.var(1) & mgr.var(2);
  EXPECT_EQ((a | b).count() + (a & b).count(), a.count() + b.count());
}

TEST_F(BddTest, CountComplement) {
  const Bdd f = (mgr.var(0) & mgr.var(5)) | mgr.var(2);
  EXPECT_EQ(f.count() + (!f).count(), pow2(8));
}

// A cube is a conjunction of one literal per listed variable.
Bdd literal_cube(BddManager& m, const std::vector<Var>& vars, const std::vector<bool>& bits) {
  Bdd cube = m.one();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    cube = cube & (bits[i] ? m.var(vars[i]) : m.nvar(vars[i]));
  }
  return cube;
}

TEST_F(BddTest, CubeCountsOnePoint) {
  std::vector<Var> vars{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<bool> bits{true, false, true, true, false, false, true, false};
  const Bdd cube = literal_cube(mgr, vars, bits);
  EXPECT_EQ(cube.count(), Uint128{1});
  EXPECT_TRUE(mgr.evaluate(cube, bits));
  bits[4] = true;
  EXPECT_FALSE(mgr.evaluate(cube, bits));
}

TEST_F(BddTest, PartialCubeCount) {
  std::vector<Var> vars{1, 6};
  std::vector<bool> bits{true, false};
  EXPECT_EQ(literal_cube(mgr, vars, bits).count(), pow2(6));
}

TEST_F(BddTest, PickOneSatisfies) {
  const Bdd f = (mgr.var(0) & !mgr.var(3)) | (mgr.var(5) & mgr.var(6));
  const std::vector<bool> assignment = mgr.pick_one(f);
  EXPECT_TRUE(mgr.evaluate(f, assignment));
}

TEST_F(BddTest, SupportFindsDependencies) {
  const Bdd f = (mgr.var(1) & mgr.var(4)) | mgr.var(6);
  EXPECT_EQ(mgr.support(f), (std::vector<Var>{1, 4, 6}));
  // x2 appears syntactically but cancels semantically.
  const Bdd g = (mgr.var(2) & mgr.var(0)) | (!mgr.var(2) & mgr.var(0));
  EXPECT_EQ(mgr.support(g), (std::vector<Var>{0}));
}

TEST_F(BddTest, ExistsRemovesVariable) {
  const Bdd f = mgr.var(0) & mgr.var(1);
  std::vector<bool> quantified(8, false);
  quantified[0] = true;
  EXPECT_EQ(mgr.exists(f, quantified), mgr.var(1));
  // Quantifying an irrelevant variable is the identity.
  std::vector<bool> other(8, false);
  other[7] = true;
  EXPECT_EQ(mgr.exists(f, other), f);
}

TEST_F(BddTest, ExistsIsDisjunctionOfCofactors) {
  const Bdd f = (mgr.var(2) & mgr.var(3)) | (!mgr.var(2) & mgr.var(5));
  std::vector<bool> quantified(8, false);
  quantified[2] = true;
  EXPECT_EQ(mgr.exists(f, quantified),
            mgr.restrict_var(f, 2, false) | mgr.restrict_var(f, 2, true));
}

TEST_F(BddTest, RestrictCofactors) {
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (!mgr.var(0) & mgr.var(2));
  EXPECT_EQ(mgr.restrict_var(f, 0, true), mgr.var(1));
  EXPECT_EQ(mgr.restrict_var(f, 0, false), mgr.var(2));
}

TEST_F(BddTest, ImpliesIsSubset) {
  const Bdd narrow = mgr.var(0) & mgr.var(1) & mgr.var(2);
  const Bdd wide = mgr.var(0);
  EXPECT_TRUE(narrow.implies(wide));
  EXPECT_FALSE(wide.implies(narrow));
  EXPECT_TRUE(mgr.zero().implies(narrow));
  EXPECT_TRUE(narrow.implies(mgr.one()));
}

TEST_F(BddTest, NodeCountReduced) {
  // x0 & x1 has two decision nodes + two terminals.
  EXPECT_EQ((mgr.var(0) & mgr.var(1)).node_count(), 4u);
  EXPECT_EQ(mgr.one().node_count(), 1u);
}

TEST_F(BddTest, ToDotMentionsVariables) {
  const std::string dot = mgr.to_dot(mgr.var(3) & mgr.var(5));
  EXPECT_NE(dot.find("x3"), std::string::npos);
  EXPECT_NE(dot.find("x5"), std::string::npos);
}

TEST(BddManagerTest, RejectsTooManyVariables) {
  EXPECT_THROW(BddManager{121}, std::invalid_argument);
  EXPECT_NO_THROW(BddManager{120});
}

TEST(BddManagerTest, WideCountUses128Bits) {
  BddManager mgr(104);
  EXPECT_EQ(mgr.one().count(), pow2(104));
  EXPECT_EQ(mgr.var(0).count(), pow2(103));
  EXPECT_EQ(to_string(pow2(104)), "20282409603651670423947251286016");
}

TEST(BddManagerTest, CacheAblationProducesSameResults) {
  BddManager with_cache(16);
  BddManager without_cache(16);
  without_cache.set_cache_enabled(false);

  std::mt19937 rng(7);
  const auto random_fn = [&rng](BddManager& m) {
    Bdd acc = m.zero();
    std::mt19937 local(42);
    for (int i = 0; i < 24; ++i) {
      const Var v1 = local() % 16;
      const Var v2 = local() % 16;
      acc = acc | (m.var(v1) & m.nvar(v2));
    }
    return acc;
  };
  (void)rng;
  EXPECT_EQ(random_fn(with_cache).count(), random_fn(without_cache).count());
  EXPECT_GT(with_cache.cache_stats().hits, 0u);
}

// Randomized law checking: build random expressions two ways and compare
// against brute-force evaluation over all 2^10 assignments.
class BddRandomTest : public ::testing::TestWithParam<int> {};

/// The literals of a 10-variable manager and 30 random expressions over them.
std::vector<Bdd> random_pool(BddManager& mgr, std::mt19937& rng) {
  std::vector<Bdd> pool;
  for (Var v = 0; v < 10; ++v) {
    pool.push_back(mgr.var(v));
    pool.push_back(mgr.nvar(v));
  }
  for (int step = 0; step < 30; ++step) {
    const Bdd a = pool[rng() % pool.size()];
    const Bdd b = pool[rng() % pool.size()];
    switch (rng() % 4) {
      case 0: pool.push_back(a & b); break;
      case 1: pool.push_back(a | b); break;
      case 2: pool.push_back(a ^ b); break;
      default: pool.push_back(a - b); break;
    }
  }
  return pool;
}

TEST_P(BddRandomTest, MatchesBruteForceEvaluation) {
  BddManager mgr(10);
  std::mt19937 rng(GetParam());
  const Bdd f = random_pool(mgr, rng).back();

  // Count satisfying assignments by enumeration and compare.
  uint64_t brute = 0;
  std::vector<bool> assignment(10, false);
  for (uint32_t bits = 0; bits < (1u << 10); ++bits) {
    for (int i = 0; i < 10; ++i) assignment[i] = (bits >> i) & 1;
    if (mgr.evaluate(f, assignment)) ++brute;
  }
  EXPECT_EQ(f.count(), Uint128{brute});
}

TEST_P(BddRandomTest, NaryUnionEqualsBinaryChain) {
  BddManager mgr(10);
  std::mt19937 rng(GetParam());
  const std::vector<Bdd> pool = random_pool(mgr, rng);
  const auto pick = [&] { return pool[rng() % pool.size()].index(); };
  const NodeIndex f = pick();
  const NodeIndex g = pick();
  std::vector<NodeIndex> twenty{kFalse};
  while (twenty.size() < 20) twenty.push_back(twenty.size() % 7 == 0 ? twenty[1] : pick());
  const std::vector<std::vector<NodeIndex>> groups = {
      {}, {f}, {f, kFalse}, {f, g}, {g, f, g}, {f, kTrue, g}, {kFalse, kFalse, f}, twenty};

  // One memo for every group, as a fold shares it across locations.
  NaryUnion shared(mgr);
  for (const std::vector<NodeIndex>& group : groups) {
    Bdd chain = mgr.zero();
    for (const NodeIndex n : group) chain = chain | Bdd(&mgr, n);
    EXPECT_EQ(shared.unite(group), chain.index()) << group.size() << " operands";
  }

  // Two overlapping groups under one memo, the second hitting the first's
  // cofactor lists, give what two fresh memos give.
  const std::vector<NodeIndex> first(twenty.begin(), twenty.begin() + 14);
  const std::vector<NodeIndex> second(twenty.begin() + 6, twenty.end());
  NaryUnion both(mgr);
  const NodeIndex a = both.unite(first);
  const NodeIndex b = both.unite(second);
  EXPECT_EQ(a, NaryUnion(mgr).unite(first));
  EXPECT_EQ(b, NaryUnion(mgr).unite(second));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace yardstick::bdd
