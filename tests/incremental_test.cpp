// Incremental recomputation cache (DESIGN.md §11): content-hash keyed
// reuse of per-device match/covered sets across engine constructions.
//
// The contract under test: with a cache directory set, every run's output
// is bit-identical to a from-scratch run at any thread count; deltas
// invalidate exactly the touched devices; and a missing, corrupt,
// truncated or options-mismatched cache silently degrades to a full
// rebuild — never an error, never a wrong answer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "yardstick/cache.hpp"
#include "yardstick/delta.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/persist.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::TinyNetwork;

/// One engine construction, self-contained: its own manager and its own
/// engine, which keeps its structural copy of the shared trace.
struct EngineRun {
  std::unique_ptr<bdd::BddManager> mgr;
  std::unique_ptr<CoverageEngine> engine;
};

EngineRun run_engine(const net::Network& network, const coverage::CoverageTrace& trace,
               const std::string& cache_dir, unsigned threads = 1,
               const ResourceBudget* budget = nullptr) {
  EngineRun run;
  run.mgr = std::make_unique<bdd::BddManager>(packet::kNumHeaderBits);
  run.engine = std::make_unique<CoverageEngine>(
      *run.mgr, network, trace.imported_into(*run.mgr), EngineOptions{budget, threads, cache_dir});
  return run;
}

/// Bit-identity across two engines over the same network: every per-rule
/// set and every headline metric, compared exactly.
void expect_same_results(const net::Network& network, const CoverageEngine& want,
                         const CoverageEngine& got) {
  for (const net::Rule& rule : network.rules()) {
    EXPECT_EQ(want.match_sets().match_set_size(rule.id),
              got.match_sets().match_set_size(rule.id))
        << "match set of rule " << rule.id.value;
    EXPECT_EQ(want.covered_sets().covered_size(rule.id),
              got.covered_sets().covered_size(rule.id))
        << "covered set of rule " << rule.id.value;
  }
  const MetricRow a = want.metrics();
  const MetricRow b = got.metrics();
  EXPECT_EQ(a.device_fractional, b.device_fractional);
  EXPECT_EQ(a.interface_fractional, b.interface_fractional);
  EXPECT_EQ(a.rule_fractional, b.rule_fractional);
  EXPECT_EQ(a.rule_weighted, b.rule_weighted);
  EXPECT_EQ(a.truncated, b.truncated);
}

/// `v2`, a valid yardstick-cache v2 artifact, rewritten in the v1 layout a
/// v1 reader accepts: a v1 header, a matched-space ref on every match
/// record and a match-field ref on every rule line (each a ref the record
/// already holds), and a fresh checksum.
std::string as_v1_artifact(const std::string& v2) {
  std::istringstream in(checked_body(v2, "test cache"));
  std::string out;
  std::string line;
  size_t records = 0;
  while (std::getline(in, line)) {
    if (line == "yardstick-cache v2") line = "yardstick-cache v1";
    if (line.rfind("match-records ", 0) == 0) {
      records = std::stoul(line.substr(std::strlen("match-records ")));
    } else if (records > 0) {
      // "<hash> <rule_count> <acl_ref>" becomes "... <space_ref> <acl_ref>".
      std::istringstream fields(line);
      std::string hash;
      size_t rules = 0;
      std::string acl;
      fields >> hash >> rules >> acl;
      out += hash + " " + std::to_string(rules) + " " + acl + " " + acl + "\n";
      for (size_t r = 0; r < rules && std::getline(in, line); ++r) {
        out += line + " " + line + "\n";  // "<set_ref>" becomes "<field_ref> <set_ref>"
      }
      --records;
      continue;
    }
    out += line + "\n";
  }
  return with_checksum(std::move(out));
}

/// Records spans for one scope; tracing is off and empty again after it.
class ScopedTracing {
 public:
  ScopedTracing() {
    obs::Tracer::global().clear();
    obs::set_enabled(true);
  }
  ~ScopedTracing() {
    obs::set_enabled(false);
    obs::Tracer::global().clear();
    obs::metrics().reset_values();
  }
  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;
};

/// The step-1/2 build spans recorded so far, and the `parallel.worker`
/// spans that fall inside one of them.
struct BuildSpans {
  size_t builds = 0;
  size_t workers_inside = 0;
};

BuildSpans recorded_build_spans() {
  const std::vector<obs::TraceEvent> events = obs::Tracer::global().snapshot();
  BuildSpans out;
  for (const obs::TraceEvent& build : events) {
    if (std::strcmp(build.name, "match_sets.build") != 0 &&
        std::strcmp(build.name, "covered_sets.build") != 0) {
      continue;
    }
    ++out.builds;
    for (const obs::TraceEvent& w : events) {
      if (std::strcmp(w.name, "parallel.worker") == 0 && w.ts_us >= build.ts_us &&
          w.ts_us + w.dur_us <= build.ts_us + build.dur_us) {
        ++out.workers_inside;
      }
    }
  }
  return out;
}

class IncrementalTest : public ::testing::Test {
 protected:
  IncrementalTest() : tiny_(make_tiny()) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/incremental_" + info->name();
    std::remove(cache_file().c_str());
  }
  ~IncrementalTest() override { std::remove(cache_file().c_str()); }

  [[nodiscard]] std::string cache_file() const { return dir_ + "/coverage.cache"; }

  [[nodiscard]] bool cache_exists() const { return std::ifstream(cache_file()).good(); }

  /// Packets at both host ports plus one state-inspection rule mark, so
  /// both Algorithm-1 branches land in the cache.
  [[nodiscard]] coverage::CoverageTrace base_trace(const TinyNetwork& t) {
    CoverageTracker tracker;
    tracker.mark_packet(net::to_location(t.l1_host),
                        PacketSet::dst_prefix(scratch_, t.p1));
    tracker.mark_packet(net::to_location(t.l2_host),
                        PacketSet::dst_prefix(scratch_, t.p2));
    tracker.mark_rule(t.sp_to_p1);
    return tracker.trace();
  }

  bdd::BddManager scratch_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  std::string dir_;
};

TEST_F(IncrementalTest, ColdRunSavesWarmRunFullyHits) {
  const coverage::CoverageTrace trace = base_trace(tiny_);

  const EngineRun cold = run_engine(tiny_.net, trace, dir_);
  const CacheStats* cold_stats = cold.engine->cache_stats();
  ASSERT_NE(cold_stats, nullptr);
  EXPECT_FALSE(cold_stats->loaded);
  EXPECT_EQ(cold_stats->fallback_reason, "no cache file");
  EXPECT_TRUE(cold_stats->saved) << cold_stats->save_error;
  EXPECT_TRUE(cache_exists());

  const EngineRun warm = run_engine(tiny_.net, trace, dir_);
  const CacheStats* warm_stats = warm.engine->cache_stats();
  ASSERT_NE(warm_stats, nullptr);
  EXPECT_TRUE(warm_stats->loaded);
  EXPECT_EQ(warm_stats->devices, 3u);
  EXPECT_EQ(warm_stats->match_hits, 3u);
  EXPECT_EQ(warm_stats->cover_hits, 3u);
  EXPECT_EQ(warm_stats->invalidated, 0u);
  EXPECT_FALSE(warm_stats->saved);  // every device hit: file already current

  const EngineRun scratch = run_engine(tiny_.net, trace, /*cache_dir=*/"");
  EXPECT_EQ(scratch.engine->cache_stats(), nullptr);
  expect_same_results(tiny_.net, *scratch.engine, *cold.engine);
  expect_same_results(tiny_.net, *scratch.engine, *warm.engine);
}

TEST_F(IncrementalTest, WarmResultsBitIdenticalAtEveryThreadCount) {
  const coverage::CoverageTrace trace = base_trace(tiny_);
  const EngineRun serial_scratch = run_engine(tiny_.net, trace, /*cache_dir=*/"");
  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::string dir = dir_ + "_t" + std::to_string(threads);
    std::remove((dir + "/coverage.cache").c_str());
    const EngineRun cold = run_engine(tiny_.net, trace, dir, threads);
    const ScopedTracing tracing;
    const EngineRun warm = run_engine(tiny_.net, trace, dir, threads);
    EXPECT_EQ(warm.engine->cache_stats()->match_hits, 3u) << threads << " threads";
    EXPECT_EQ(warm.engine->cache_stats()->cover_hits, 3u) << threads << " threads";
    // A full hit leaves no device to build, so neither step starts a worker.
    const BuildSpans spans = recorded_build_spans();
    EXPECT_EQ(spans.builds, 2u) << threads << " threads";
    EXPECT_EQ(spans.workers_inside, 0u) << threads << " threads";
    expect_same_results(tiny_.net, *serial_scratch.engine, *cold.engine);
    expect_same_results(tiny_.net, *serial_scratch.engine, *warm.engine);
    std::remove((dir + "/coverage.cache").c_str());
  }
}

TEST_F(IncrementalTest, RuleAddedInvalidatesOnlyThatDevice) {
  const coverage::CoverageTrace trace = base_trace(tiny_);
  (void)run_engine(tiny_.net, trace, dir_);  // cold: seed the cache

  // Same topology, one extra leaf1 route appended: leaf1's key changes,
  // spine's and leaf2's do not (RuleIds may shift; content keys must not).
  TinyNetwork grown = make_tiny();
  grown.net.add_rule(grown.leaf1, net::MatchSpec::for_dst(Ipv4Prefix::parse("10.0.3.0/24")),
                     net::Action::forward({grown.l1_up}), net::RouteKind::Internal, 8);
  const coverage::CoverageTrace grown_trace = base_trace(grown);

  const EngineRun warm = run_engine(grown.net, grown_trace, dir_);
  const CacheStats* stats = warm.engine->cache_stats();
  EXPECT_TRUE(stats->loaded);
  EXPECT_EQ(stats->match_hits, 2u);
  EXPECT_EQ(stats->cover_hits, 2u);
  EXPECT_EQ(stats->invalidated, 1u);
  EXPECT_TRUE(stats->saved);  // refreshed with leaf1's new record

  const EngineRun scratch = run_engine(grown.net, grown_trace, /*cache_dir=*/"");
  expect_same_results(grown.net, *scratch.engine, *warm.engine);
}

TEST_F(IncrementalTest, RuleRemovedInvalidatesOnlyThatDevice) {
  TinyNetwork grown = make_tiny();
  grown.net.add_rule(grown.leaf1, net::MatchSpec::for_dst(Ipv4Prefix::parse("10.0.3.0/24")),
                     net::Action::forward({grown.l1_up}), net::RouteKind::Internal, 8);
  (void)run_engine(grown.net, base_trace(grown), dir_);  // cold, with the extra rule

  const coverage::CoverageTrace trace = base_trace(tiny_);
  const EngineRun warm = run_engine(tiny_.net, trace, dir_);  // the rule is gone
  const CacheStats* stats = warm.engine->cache_stats();
  EXPECT_TRUE(stats->loaded);
  EXPECT_EQ(stats->match_hits, 2u);
  EXPECT_EQ(stats->invalidated, 1u);

  const EngineRun scratch = run_engine(tiny_.net, trace, /*cache_dir=*/"");
  expect_same_results(tiny_.net, *scratch.engine, *warm.engine);
}

TEST_F(IncrementalTest, RuleReorderInvalidatesOnlyThatDevice) {
  // Two equal-priority disjoint routes: swapping their insertion (= table)
  // order leaves the device's semantics identical but changes its content
  // key. The cache must treat it as a change — positions key the records —
  // and the recomputed output must still match scratch exactly.
  const auto p3 = Ipv4Prefix::parse("10.0.3.0/24");
  const auto p4 = Ipv4Prefix::parse("10.0.4.0/24");
  TinyNetwork ab = make_tiny();
  ab.net.add_rule(ab.leaf1, net::MatchSpec::for_dst(p3),
                  net::Action::forward({ab.l1_up}), net::RouteKind::Internal, 8);
  ab.net.add_rule(ab.leaf1, net::MatchSpec::for_dst(p4),
                  net::Action::forward({ab.l1_up}), net::RouteKind::Internal, 8);
  (void)run_engine(ab.net, base_trace(ab), dir_);

  TinyNetwork ba = make_tiny();
  ba.net.add_rule(ba.leaf1, net::MatchSpec::for_dst(p4),
                  net::Action::forward({ba.l1_up}), net::RouteKind::Internal, 8);
  ba.net.add_rule(ba.leaf1, net::MatchSpec::for_dst(p3),
                  net::Action::forward({ba.l1_up}), net::RouteKind::Internal, 8);
  const coverage::CoverageTrace trace = base_trace(ba);

  const EngineRun warm = run_engine(ba.net, trace, dir_);
  const CacheStats* stats = warm.engine->cache_stats();
  EXPECT_TRUE(stats->loaded);
  EXPECT_EQ(stats->match_hits, 2u);
  EXPECT_EQ(stats->invalidated, 1u);

  const EngineRun scratch = run_engine(ba.net, trace, /*cache_dir=*/"");
  expect_same_results(ba.net, *scratch.engine, *warm.engine);
}

TEST_F(IncrementalTest, FibEditOnOneDeviceInvalidatesOnlyThatDevice) {
  const coverage::CoverageTrace trace = base_trace(tiny_);
  (void)run_engine(tiny_.net, trace, dir_);

  TinyNetwork edited = make_tiny();
  edited.net.set_action(edited.l2_to_p2, net::Action::drop());
  const coverage::CoverageTrace edited_trace = base_trace(edited);

  const EngineRun warm = run_engine(edited.net, edited_trace, dir_);
  const CacheStats* stats = warm.engine->cache_stats();
  EXPECT_TRUE(stats->loaded);
  EXPECT_EQ(stats->match_hits, 2u);  // leaf1 and spine reused
  EXPECT_EQ(stats->cover_hits, 2u);
  EXPECT_EQ(stats->invalidated, 1u);

  const EngineRun scratch = run_engine(edited.net, edited_trace, /*cache_dir=*/"");
  expect_same_results(edited.net, *scratch.engine, *warm.engine);
}

TEST_F(IncrementalTest, TraceChangeInvalidatesCoverageButReusesMatchSets) {
  (void)run_engine(tiny_.net, base_trace(tiny_), dir_);

  // Same FIBs, one extra packet mark at leaf1's host port: match sets are
  // pure functions of the FIBs (all reusable); only leaf1's covered sets
  // see a different trace slice.
  coverage::CoverageTrace bigger = base_trace(tiny_);
  {
    CoverageTracker extra;
    extra.mark_packet(net::to_location(tiny_.l1_host),
                      PacketSet::dst_prefix(scratch_, tiny_.p2));
    bigger.merge(extra.trace());
  }

  const EngineRun warm = run_engine(tiny_.net, bigger, dir_);
  const CacheStats* stats = warm.engine->cache_stats();
  EXPECT_TRUE(stats->loaded);
  EXPECT_EQ(stats->match_hits, 3u);
  EXPECT_EQ(stats->cover_hits, 2u);
  EXPECT_EQ(stats->invalidated, 1u);

  const EngineRun scratch = run_engine(tiny_.net, bigger, /*cache_dir=*/"");
  expect_same_results(tiny_.net, *scratch.engine, *warm.engine);
}

TEST_F(IncrementalTest, OptionsChangeForcesFullRebuild) {
  const coverage::CoverageTrace trace = base_trace(tiny_);
  (void)run_engine(tiny_.net, trace, dir_);

  // A node cap keys the cache, even one roomy enough never to truncate.
  ResourceBudget capped;
  capped.with_max_bdd_nodes(50'000'000);
  const EngineRun warm = run_engine(tiny_.net, trace, dir_, /*threads=*/1, &capped);
  const CacheStats* stats = warm.engine->cache_stats();
  EXPECT_FALSE(stats->loaded);
  EXPECT_EQ(stats->fallback_reason, "engine options changed");
  EXPECT_EQ(stats->match_hits, 0u);
  EXPECT_TRUE(stats->saved);  // re-keyed under the new fingerprint

  const EngineRun scratch = run_engine(tiny_.net, trace, /*cache_dir=*/"");
  expect_same_results(tiny_.net, *scratch.engine, *warm.engine);

  // And the rewrite took: the next run under the same cap is a full hit.
  ResourceBudget same_cap;
  same_cap.with_max_bdd_nodes(50'000'000);
  const EngineRun rewarmed = run_engine(tiny_.net, trace, dir_, /*threads=*/1, &same_cap);
  EXPECT_EQ(rewarmed.engine->cache_stats()->match_hits, 3u);
}

TEST_F(IncrementalTest, ThreadChangeIsAFullHit) {
  // Untruncated sets are bit-identical at any thread count, so the thread
  // count does not key the cache: a run at another count reuses every record.
  const coverage::CoverageTrace trace = base_trace(tiny_);
  (void)run_engine(tiny_.net, trace, dir_, /*threads=*/2);
  const EngineRun scratch = run_engine(tiny_.net, trace, /*cache_dir=*/"");
  for (const unsigned threads : {1u, 4u}) {
    const EngineRun warm = run_engine(tiny_.net, trace, dir_, threads);
    const CacheStats* stats = warm.engine->cache_stats();
    EXPECT_TRUE(stats->loaded) << stats->fallback_reason;
    EXPECT_EQ(stats->match_hits, 3u) << threads << " threads";
    EXPECT_EQ(stats->cover_hits, 3u) << threads << " threads";
    EXPECT_EQ(stats->invalidated, 0u) << threads << " threads";
    EXPECT_FALSE(stats->saved) << threads << " threads";  // the file is already current
    expect_same_results(tiny_.net, *scratch.engine, *warm.engine);
  }
}

TEST_F(IncrementalTest, CorruptOrTruncatedCacheFallsBackToFullRebuild) {
  const coverage::CoverageTrace trace = base_trace(tiny_);
  (void)run_engine(tiny_.net, trace, dir_);
  std::ifstream in(cache_file(), std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string good = buffer.str();
  ASSERT_FALSE(good.empty());
  const EngineRun scratch = run_engine(tiny_.net, trace, /*cache_dir=*/"");

  const auto overwrite = [&](const std::string& bytes) {
    std::ofstream out(cache_file(), std::ios::binary | std::ios::trunc);
    out << bytes;
  };

  // Foreign header, truncation, a flipped byte (checksum mismatch) and a
  // well-formed artifact of the previous format version: each degrades to
  // a clean full rebuild with a recorded reason.
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x01;
  const std::string v1 = as_v1_artifact(good);
  ASSERT_EQ(v1.rfind("yardstick-cache v1\n", 0), 0u);
  ASSERT_GT(v1.size(), good.size());
  for (const std::string& bad :
       {std::string("not a cache\n"), good.substr(0, good.size() / 2), flipped, v1}) {
    overwrite(bad);
    const EngineRun warm = run_engine(tiny_.net, trace, dir_);
    const CacheStats* stats = warm.engine->cache_stats();
    EXPECT_FALSE(stats->loaded);
    EXPECT_FALSE(stats->fallback_reason.empty());
    if (bad == v1) {
      EXPECT_NE(stats->fallback_reason.find("version mismatch"), std::string::npos)
          << stats->fallback_reason;
    }
    EXPECT_EQ(stats->match_hits, 0u);
    EXPECT_TRUE(stats->saved);  // replaced the damaged file
    expect_same_results(tiny_.net, *scratch.engine, *warm.engine);
  }

  // The last rebuild re-persisted a valid cache.
  const EngineRun healed = run_engine(tiny_.net, trace, dir_);
  EXPECT_TRUE(healed.engine->cache_stats()->loaded);
  EXPECT_EQ(healed.engine->cache_stats()->match_hits, 3u);
}

TEST_F(IncrementalTest, TruncatedRunNeverWritesTheCache) {
  const coverage::CoverageTrace trace = base_trace(tiny_);

  // Cold truncated run: partial sets must not be persisted at all.
  ResourceBudget tight;
  tight.with_max_bdd_nodes(64);
  const EngineRun degraded = run_engine(tiny_.net, trace, dir_, 1, &tight);
  ASSERT_TRUE(degraded.engine->truncated());
  const CacheStats* stats = degraded.engine->cache_stats();
  EXPECT_FALSE(stats->saved);
  EXPECT_FALSE(stats->save_error.empty());
  EXPECT_FALSE(cache_exists());

  // A good cache in place: a later truncated run must not clobber it.
  (void)run_engine(tiny_.net, trace, dir_);
  std::ifstream in(cache_file(), std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string committed = buffer.str();
  ASSERT_FALSE(committed.empty());

  ResourceBudget tight2;
  tight2.with_max_bdd_nodes(64);
  const EngineRun degraded2 = run_engine(tiny_.net, trace, dir_, 1, &tight2);
  EXPECT_TRUE(degraded2.engine->truncated());
  std::ifstream in2(cache_file(), std::ios::binary);
  std::ostringstream buffer2;
  buffer2 << in2.rdbuf();
  EXPECT_EQ(buffer2.str(), committed);
}

TEST_F(IncrementalTest, RandomizedChurnMatchesScratchAtEveryStep) {
  // Property test: an evolving network/trace driven through one persistent
  // cache, checked for bit-identity against from-scratch runs — serial AND
  // parallel — after every delta.
  std::mt19937 rng(20210823);  // SIGCOMM '21, day one
  TinyNetwork t = make_tiny();
  coverage::CoverageTrace trace = base_trace(t);

  for (int step = 0; step < 8; ++step) {
    switch (rng() % 3) {
      case 0: {  // append a random route to a random device
        const net::DeviceId dev{static_cast<uint32_t>(rng() % 3)};
        const std::string prefix = "10." + std::to_string(1 + rng() % 200) + "." +
                                   std::to_string(rng() % 250) + ".0/24";
        t.net.add_rule(dev, net::MatchSpec::for_dst(Ipv4Prefix::parse(prefix)),
                       rng() % 2 == 0 ? net::Action::forward({t.l1_up})
                                      : net::Action::drop(),
                       net::RouteKind::Internal, 8);
        break;
      }
      case 1: {  // flip a random rule's action in place
        const net::RuleId rid{static_cast<uint32_t>(rng() % t.net.rule_count())};
        t.net.set_action(rid, net::Action::drop());
        break;
      }
      default: {  // extend the trace at a random location
        CoverageTracker extra;
        const auto loc = rng() % 2 == 0 ? net::to_location(t.l1_host)
                                        : net::device_location(t.spine);
        extra.mark_packet(loc, PacketSet::dst_prefix(
                                   scratch_, rng() % 2 == 0 ? t.p1 : t.p2));
        if (rng() % 2 == 0) {
          extra.mark_rule(net::RuleId{static_cast<uint32_t>(rng() % t.net.rule_count())});
        }
        trace.merge(extra.trace());
        break;
      }
    }

    const EngineRun incremental = run_engine(t.net, trace, dir_, /*threads=*/2);
    EXPECT_FALSE(incremental.engine->truncated());
    const EngineRun serial = run_engine(t.net, trace, /*cache_dir=*/"", /*threads=*/1);
    const EngineRun parallel = run_engine(t.net, trace, /*cache_dir=*/"", /*threads=*/2);
    expect_same_results(t.net, *serial.engine, *incremental.engine);
    expect_same_results(t.net, *parallel.engine, *incremental.engine);
    const CacheStats* stats = incremental.engine->cache_stats();
    ASSERT_NE(stats, nullptr);
    if (stats->loaded) {
      EXPECT_EQ(stats->invalidated, stats->cover_misses());
    }
  }
}

}  // namespace
}  // namespace yardstick::ys
