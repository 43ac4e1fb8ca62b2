// Resilience tests: resource budgets degrade gracefully (truncated
// results, never crashes or hangs), and the fault-injection harness can
// provoke failures at precise internal moments.
#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/budget.hpp"
#include "dataplane/match_sets.hpp"
#include "fault_injection.hpp"
#include "nettest/state_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/json.hpp"
#include "yardstick/persist.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::ScopedFault;
using testutil::TinyNetwork;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool exists(const std::string& path) { return std::ifstream(path).good(); }

/// Atomic saves stage through unique "<path>.tmp.<pid>.<seq>" names; any
/// survivor after a save — failed or not — is a cleanup bug.
bool temp_leftovers(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  bool found = false;
  while (const dirent* entry = ::readdir(d)) {
    if (std::string(entry->d_name).rfind(prefix, 0) == 0) {
      found = true;
      break;
    }
  }
  ::closedir(d);
  return found;
}

class ResilienceTest : public ::testing::Test {
 protected:
  ResilienceTest() : tiny_(make_tiny()) {}
  ~ResilienceTest() override { fault::reset(); }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  coverage::CoverageTrace trace_;
};

// --- resource budgets: graceful degradation ---

TEST_F(ResilienceTest, UnbudgetedEngineIsNotTruncated) {
  const CoverageEngine engine(mgr_, tiny_.net, trace_);
  EXPECT_FALSE(engine.truncated());
  EXPECT_FALSE(engine.metrics().truncated);
  EXPECT_FALSE(engine.report().truncated);
}

TEST_F(ResilienceTest, NodeBudgetTripReturnsTruncatedResults) {
  // A cap far below what the tiny network's match sets need: construction
  // must complete (no throw, no hang) and every downstream artifact must
  // carry the truncated flag.
  ResourceBudget budget;
  budget.with_max_bdd_nodes(64);
  const CoverageEngine engine(mgr_, tiny_.net, trace_, &budget);
  EXPECT_TRUE(engine.truncated());

  const MetricRow row = engine.metrics();
  EXPECT_TRUE(row.truncated);

  const CoverageReport report = engine.report();
  EXPECT_TRUE(report.truncated);
  EXPECT_NE(report.to_text().find("TRUNCATED"), std::string::npos);
  EXPECT_NE(report_to_json(report).find("\"truncated\":true"), std::string::npos);

  const PathCoverageResult paths = engine.path_coverage();
  EXPECT_TRUE(paths.truncated);
}

TEST_F(ResilienceTest, PreCancelledBudgetDegradesConstruction) {
  ResourceBudget budget;
  budget.request_cancel();
  const CoverageEngine engine(mgr_, tiny_.net, trace_, &budget);
  EXPECT_TRUE(engine.truncated());
  EXPECT_TRUE(engine.report().truncated);
}

TEST_F(ResilienceTest, TruncatedMetricsStayWellFormed) {
  // Degraded metrics are still numbers in [0, 1] — never NaN, never an
  // exception — and the truncated flag (not the values) is the signal that
  // they cannot be trusted. (Rule marks only: they are manager-independent.)
  trace_.mark_rule(tiny_.l1_to_p2);
  trace_.mark_rule(tiny_.sp_to_p2);
  ResourceBudget budget;
  budget.with_max_bdd_nodes(64);
  const CoverageEngine degraded(mgr_, tiny_.net, trace_, &budget);
  const MetricRow partial = degraded.metrics();
  EXPECT_TRUE(partial.truncated);
  for (const double v : {partial.device_fractional, partial.interface_fractional,
                         partial.rule_fractional, partial.rule_weighted}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(ResilienceTest, NodeCapTruncationKeepsMetricsLowerBounds) {
  // A rule a capped step 1 never reached has an empty match set; read as
  // vacuously covered it would inflate every metric. Under any cap, each
  // headline number must stay at or below its unbudgeted value.
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  CoverageTracker tracker;
  {
    const dataplane::MatchSetIndex index(mgr_, tree.network);
    const dataplane::Transfer transfer(index);
    (void)nettest::DefaultRouteCheck().run(transfer, tracker);
  }
  // Each run builds in a fresh manager, so the cap meets the full build.
  const auto run = [&](size_t cap, unsigned threads) {
    ResourceBudget budget;
    budget.with_max_bdd_nodes(cap);
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const coverage::CoverageTrace trace = tracker.trace().imported_into(mgr);
    const CoverageEngine engine(mgr, tree.network, trace,
                                EngineOptions{cap > 0 ? &budget : nullptr, threads, ""});
    return engine.report();
  };
  const auto expect_at_most = [](const MetricRow& got, const MetricRow& exact,
                                 const std::string& where) {
    EXPECT_LE(got.device_fractional, exact.device_fractional) << where;
    EXPECT_LE(got.interface_fractional, exact.interface_fractional) << where;
    EXPECT_LE(got.rule_fractional, exact.rule_fractional) << where;
    EXPECT_LE(got.rule_weighted, exact.rule_weighted) << where;
  };

  const CoverageReport exact = run(0, 1);
  ASSERT_FALSE(exact.truncated);
  size_t truncated_runs = 0;
  for (const size_t cap : {500u, 2000u, 5000u, 20000u, 50000u}) {
    for (const unsigned threads : {1u, 2u}) {
      const CoverageReport got = run(cap, threads);
      const std::string where =
          "cap " + std::to_string(cap) + ", " + std::to_string(threads) + " thread(s)";
      if (got.truncated) ++truncated_runs;
      expect_at_most(got.overall, exact.overall, where);
      ASSERT_EQ(got.by_role.size(), exact.by_role.size()) << where;
      for (size_t i = 0; i < exact.by_role.size(); ++i) {
        expect_at_most(got.by_role[i].metrics, exact.by_role[i].metrics,
                       where + ", role " + std::string(net::to_string(exact.by_role[i].role)));
      }
    }
  }
  EXPECT_GE(truncated_runs, 6u);
}

// --- fault injection: budget trips at precise internal moments ---

TEST_F(ResilienceTest, BudgetTripAtNthBddAllocationDegradesMatchSets) {
  const ScopedFault boom("bdd.make", testutil::trip_budget("injected bdd-nodes cap"),
                         /*nth=*/50);
  const dataplane::MatchSetIndex index(mgr_, tiny_.net);
  EXPECT_TRUE(index.truncated());
}

TEST_F(ResilienceTest, CancelAtNthDfsStepTruncatesPathSweep) {
  const CoverageEngine engine(mgr_, tiny_.net, trace_);
  ResourceBudget budget;
  const ScopedFault boom("path.dfs", testutil::cancel(budget), /*nth=*/2);
  coverage::PathExplorerOptions options;
  options.budget = &budget;
  const PathCoverageResult result = engine.path_coverage(options);
  EXPECT_TRUE(result.truncated);
}

TEST_F(ResilienceTest, PreExpiredDeadlineTruncatesPathSweep) {
  const CoverageEngine engine(mgr_, tiny_.net, trace_);
  ResourceBudget budget;
  budget.with_deadline(0.0);
  coverage::PathExplorerOptions options;
  options.budget = &budget;
  const PathCoverageResult result = engine.path_coverage(options);
  EXPECT_TRUE(result.truncated);
}

TEST_F(ResilienceTest, BudgetExceededPathEndIsDistinct) {
  EXPECT_STREQ(to_string(coverage::PathEnd::BudgetExceeded), "budget-exceeded");
  EXPECT_STREQ(to_string(static_cast<coverage::PathEnd>(250)), "invalid");
}

// --- crash-safe persistence ---

TEST_F(ResilienceTest, InterruptedSaveNeverLeavesPartialFile) {
  trace_.mark_packet(net::to_location(tiny_.l1_host),
                     PacketSet::dst_prefix(mgr_, tiny_.p1));
  const std::string path = ::testing::TempDir() + "/resilience_commit.trace";
  save_trace(path, trace_, mgr_);
  const std::string committed = slurp(path);
  ASSERT_FALSE(committed.empty());

  // Crash between flush and rename: the destination keeps its previous
  // content and the temp file is cleaned up.
  coverage::CoverageTrace bigger = trace_;
  bigger.mark_rule(tiny_.sp_to_p1);
  {
    const ScopedFault boom("persist.save.commit", testutil::throw_io("injected crash"));
    EXPECT_THROW(save_trace(path, bigger, mgr_), IoError);
  }
  EXPECT_EQ(slurp(path), committed);
  EXPECT_FALSE(temp_leftovers(path));

  // The retry (fault disarmed) succeeds and the new content is complete.
  save_trace(path, bigger, mgr_);
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  EXPECT_EQ(load_trace(path, mgr2).marked_rules().size(), 1u);
  std::remove(path.c_str());
}

TEST_F(ResilienceTest, InterruptedWriteLeavesNoFileAtFreshDestination) {
  const std::string path = ::testing::TempDir() + "/resilience_fresh.trace";
  std::remove(path.c_str());
  {
    const ScopedFault boom("persist.save.write", testutil::throw_io("injected disk full"));
    EXPECT_THROW(save_trace(path, trace_, mgr_), IoError);
  }
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(temp_leftovers(path));
}

TEST_F(ResilienceTest, FailedFsyncAbortsTheSaveBeforeCommit) {
  // fsync failing means the temp file's bytes may not be durable: the
  // save must abort without renaming, leaving the old content in place.
  trace_.mark_packet(net::to_location(tiny_.l1_host),
                     PacketSet::dst_prefix(mgr_, tiny_.p1));
  const std::string path = ::testing::TempDir() + "/resilience_fsync.trace";
  save_trace(path, trace_, mgr_);
  const std::string committed = slurp(path);
  {
    const ScopedFault boom("persist.save.fsync", testutil::throw_io("injected fsync"));
    EXPECT_THROW(save_trace(path, trace_, mgr_), IoError);
  }
  EXPECT_EQ(slurp(path), committed);
  EXPECT_FALSE(temp_leftovers(path));
  std::remove(path.c_str());
}

TEST_F(ResilienceTest, FailedDirectorySyncStillLeavesTheCommittedFile) {
  // The parent-directory fsync makes the rename itself durable. If IT
  // fails the rename has already happened: the error is reported, but
  // the committed (complete, self-checksummed) file must never be
  // deleted — deleting it would turn a maybe-lost rename into a
  // certainly-lost trace.
  const std::string path = ::testing::TempDir() + "/resilience_dirsync.trace";
  std::remove(path.c_str());
  {
    const ScopedFault boom("persist.save.dirsync", testutil::throw_io("injected dirsync"));
    EXPECT_THROW(save_trace(path, trace_, mgr_), IoError);
  }
  EXPECT_TRUE(exists(path));
  EXPECT_FALSE(temp_leftovers(path));
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  (void)load_trace(path, mgr2);  // complete and readable
  std::remove(path.c_str());
}

TEST_F(ResilienceTest, ConcurrentSavesToOnePathNeverClobberEachOther) {
  // Two savers racing on the same destination used to share one fixed
  // "<path>.tmp" staging name, so one could rename the other's half-written
  // bytes into place. With O_EXCL per-save temp names, every save commits a
  // complete file: whoever renames last wins, and the winner's content is
  // always loadable.
  trace_.mark_packet(net::to_location(tiny_.l1_host),
                     PacketSet::dst_prefix(mgr_, tiny_.p1));
  coverage::CoverageTrace other = trace_;
  other.mark_rule(tiny_.sp_to_p1);
  const std::string path = ::testing::TempDir() + "/resilience_race.trace";
  std::remove(path.c_str());

  std::vector<std::thread> savers;
  for (int round = 0; round < 8; ++round) {
    savers.emplace_back([&, round] {
      save_trace(path, round % 2 == 0 ? trace_ : other, mgr_);
    });
  }
  for (std::thread& t : savers) t.join();

  // The survivor is one of the two saved traces, never an interleaving.
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace winner = load_trace(path, mgr2);
  EXPECT_LE(winner.marked_rules().size(), 1u);
  EXPECT_EQ(winner.marked_packets().entries().size(), 1u);
  EXPECT_FALSE(temp_leftovers(path));
  std::remove(path.c_str());
}

// --- taxonomy plumbing ---

TEST_F(ResilienceTest, ErrorCodesRoundTripThroughCatch) {
  try {
    throw BudgetExceededError("bdd-nodes 64");
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), Error::BudgetExceeded);
    EXPECT_EQ(e.context().budget, "bdd-nodes 64");
    EXPECT_TRUE(is_resource_exhaustion(e.code()));
  }
  try {
    throw InvalidInputError("bad k", {.source = "cli"});
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad k"), std::string::npos);
  }
  EXPECT_FALSE(is_resource_exhaustion(Error::CorruptTrace));
  EXPECT_FALSE(is_resource_exhaustion(Error::IoError));
}

TEST_F(ResilienceTest, FaultCountdownFiresExactlyOnce) {
  int fired = 0;
  fault::arm("unit.count", 3, [&] { ++fired; });
  for (int i = 0; i < 10; ++i) fault::fire("unit.count");
  EXPECT_EQ(fired, 1);  // fires on the 3rd crossing, then disarms
  fault::reset();
}

}  // namespace
}  // namespace yardstick::ys
