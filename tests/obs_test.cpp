// Observability layer invariants (DESIGN.md §9):
//   * counters and histograms are exact under concurrent updates — sharded
//     workers may hammer the same handles,
//   * spans nest correctly in the recorded timeline (complete events nest
//     by [ts, ts+dur] containment, which is what the Chrome viewer draws),
//   * disabled mode allocates nothing — the switch is off by default in
//     production runs, so its cost must be a load-and-branch,
//   * both expositions (JSON, Prometheus text) are well-formed, because
//     dashboards and scrapers consume them unvalidated.
// The same allocation counter pins the local contract loop's promise
// (DESIGN.md §18, §19): it allocates per run, never per prefix or per
// check, and a tracked run adds only the tracker buffer's doublings; the
// FIB install's (§21): it allocates per device, never per rule; and the BGP
// fixpoint's (§17): it allocates per device and round, never per RIB entry
// or next hop.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "coverage/covered_sets.hpp"
#include "dataplane/match_sets.hpp"
#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/fib_builder.hpp"
#include "scenario/runner.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/engine.hpp"

// --- Global allocation counting (for the disabled-mode zero-alloc test) ---
//
// Replacing the global operator new/delete pair counts every allocation in
// the process; the test reads the counter before and after the code under
// test. Counting is always on — it is two relaxed atomic ops per
// allocation, which does not perturb what the tests assert.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace yardstick::obs {
namespace {

/// Enables observability for one test and restores the default (off) and
/// a clean tracer/registry state on the way out, even on assertion failure.
class ScopedObservability {
 public:
  ScopedObservability() { set_enabled(true); }
  ~ScopedObservability() {
    Tracer::global().clear();
    metrics().reset_values();
    set_enabled(false);
  }
};

/// Minimal recursive-descent JSON well-formedness checker (the same idiom
/// json_format_test.cpp uses to reject nan/inf tokens).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool well_formed() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(ObsMetricsTest, CounterIsExactUnderConcurrentIncrements) {
  ScopedObservability on;
  Counter& counter = metrics().counter("ys.obs_test.concurrent_counter");
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kAddsPerThread = 50'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(ObsMetricsTest, HistogramIsExactUnderConcurrentObserves) {
  ScopedObservability on;
  Histogram& hist =
      metrics().histogram("ys.obs_test.concurrent_histogram", {1.0, 10.0, 100.0});
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kObservesPerThread = 20'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&hist] {
      for (uint64_t i = 0; i < kObservesPerThread; ++i) {
        hist.observe(5.0);   // lands in (1, 10]
        hist.observe(500.0); // lands in +Inf
      }
    });
  }
  for (std::thread& t : pool) t.join();

  const uint64_t per_value = kThreads * kObservesPerThread;
  EXPECT_EQ(hist.count(), 2 * per_value);
  EXPECT_EQ(hist.bucket(0), 0u);          // (-inf, 1]
  EXPECT_EQ(hist.bucket(1), per_value);   // (1, 10]
  EXPECT_EQ(hist.bucket(2), 0u);          // (10, 100]
  EXPECT_EQ(hist.bucket(3), per_value);   // +Inf
  // The CAS-loop sum is exact for these integral observations.
  EXPECT_DOUBLE_EQ(hist.sum(), 5.0 * per_value + 500.0 * per_value);
}

TEST(ObsMetricsTest, DisabledUpdatesAreDropped) {
  Counter& counter = metrics().counter("ys.obs_test.disabled_counter");
  Gauge& gauge = metrics().gauge("ys.obs_test.disabled_gauge");
  ASSERT_FALSE(enabled());
  counter.add(42);
  gauge.set(7.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(ObsMetricsTest, NameReuseAcrossTypesThrows) {
  (void)metrics().counter("ys.obs_test.typed_once");
  EXPECT_THROW((void)metrics().gauge("ys.obs_test.typed_once"), std::logic_error);
  (void)metrics().histogram("ys.obs_test.bounded_once", {1.0, 2.0});
  // Same name, same bounds: the existing histogram comes back.
  (void)metrics().histogram("ys.obs_test.bounded_once", {1.0, 2.0});
  EXPECT_THROW((void)metrics().histogram("ys.obs_test.bounded_once", {3.0}),
               std::logic_error);
}

TEST(ObsMetricsTest, ResetValuesKeepsHandlesValid) {
  ScopedObservability on;
  Counter& counter = metrics().counter("ys.obs_test.reset_counter");
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
  metrics().reset_values();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(1);  // the cached handle still works after reset
  EXPECT_EQ(counter.value(), 1u);
}

TEST(ObsTracerTest, SpansNestAndSortParentFirst) {
  ScopedObservability on;
  {
    Span outer("obs_test.outer", "test");
    outer.arg("k", 4);
    {
      Span inner("obs_test.inner", "test");
    }
  }
  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);

  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "obs_test.outer") == 0) outer = &e;
    if (std::strcmp(e.name, "obs_test.inner") == 0) inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  // Same thread, and the inner interval is contained in the outer one —
  // the containment the trace viewers use to draw nesting.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  // snapshot() orders parent before child even at equal timestamps.
  EXPECT_EQ(events[0].name, outer->name);

  ASSERT_EQ(outer->num_args, 1);
  EXPECT_STREQ(outer->args[0].key, "k");
  EXPECT_EQ(outer->args[0].value, 4u);
}

TEST(ObsTracerTest, EventsFromMultipleThreadsAllLand) {
  ScopedObservability on;
  constexpr unsigned kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("obs_test.worker_span", "test");
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(Tracer::global().event_count(), kThreads * kSpansPerThread);
  EXPECT_EQ(Tracer::global().dropped_count(), 0u);
}

/// The spans named `name` in a snapshot, in start order.
std::vector<TraceEvent> spans_named(const std::vector<TraceEvent>& events, const char* name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, name) == 0) out.push_back(e);
  }
  return out;
}

/// The value of `key` among the span's args; fails the test when absent.
uint64_t arg_of(const TraceEvent& e, const char* key) {
  for (int a = 0; a < e.num_args; ++a) {
    if (std::strcmp(e.args[a].key, key) == 0) return e.args[a].value;
  }
  ADD_FAILURE() << e.name << " has no arg " << key;
  return 0;
}

bool contains(const TraceEvent& outer, const TraceEvent& inner) {
  return outer.tid == inner.tid && outer.ts_us <= inner.ts_us &&
         inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us;
}

nettest::TestSuite three_test_suite() {
  nettest::TestSuite suite("obs");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::ToRPingmesh>());
  return suite;
}

TEST(ObsTracerTest, SuiteRunRecordsOneSpanPerTest) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  const nettest::TestSuite suite = three_test_suite();
  ys::CoverageTracker tracker;

  ScopedObservability on;
  const std::vector<nettest::TestResult> results = suite.run_all(transfer, tracker);
  const std::vector<TraceEvent> events = Tracer::global().snapshot();

  const std::vector<TraceEvent> runs = spans_named(events, "suite.run");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(arg_of(runs[0], "tests"), 3u);
  const std::vector<TraceEvent> tests = spans_named(events, "suite.test");
  ASSERT_EQ(tests.size(), 3u);
  for (size_t i = 0; i < tests.size(); ++i) {
    EXPECT_TRUE(contains(runs[0], tests[i])) << "suite.test " << i;
    EXPECT_EQ(arg_of(tests[i], "index"), i);
    EXPECT_EQ(arg_of(tests[i], "checks"), results[i].checks);
  }
}

TEST(ObsTracerTest, EveryScenarioEvaluationRunsItsSuiteInASpan) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const nettest::TestSuite suite = three_test_suite();
  scenario::ScenarioRunner runner(tree.network, tree.routing, suite);
  const scenario::ScenarioSpec spec = scenario::random_link_scenarios(tree.network, 2, 7);

  ScopedObservability on;
  (void)runner.run(spec);
  const std::vector<TraceEvent> events = Tracer::global().snapshot();

  const std::vector<TraceEvent> evaluations = spans_named(events, "scenario.evaluate");
  const std::vector<TraceEvent> runs = spans_named(events, "suite.run");
  ASSERT_EQ(evaluations.size(), 3u);  // the baseline and two scenarios
  ASSERT_EQ(runs.size(), 3u);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(contains(evaluations[i], runs[i])) << "suite.run " << i;
    EXPECT_EQ(arg_of(runs[i], "tests"), 3u);
  }
}

TEST(ObsTracerTest, EveryScenarioEvaluationKeysItsRulesInASpan) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const nettest::TestSuite suite = three_test_suite();
  scenario::ScenarioRunner runner(tree.network, tree.routing, suite);
  const scenario::ScenarioSpec spec = scenario::random_link_scenarios(tree.network, 2, 7);

  ScopedObservability on;
  const scenario::ScenarioReport report = runner.run(spec);
  const std::vector<TraceEvent> events = Tracer::global().snapshot();

  const std::vector<TraceEvent> evaluations = spans_named(events, "scenario.evaluate");
  const std::vector<TraceEvent> keys = spans_named(events, "scenario.rule_keys");
  ASSERT_EQ(evaluations.size(), 3u);  // the baseline and two scenarios
  ASSERT_EQ(keys.size(), 3u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(contains(evaluations[i], keys[i])) << "scenario.rule_keys " << i;
    EXPECT_EQ(arg_of(keys[i], "rules"), i == 0 ? report.baseline_rule_count
                                               : report.scenarios[i - 1].scenario_rule_count);
  }
}

TEST(ObsTracerTest, EveryScenarioDiffIsASpanOutsideTheEvaluations) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const nettest::TestSuite suite = three_test_suite();
  scenario::ScenarioRunner runner(tree.network, tree.routing, suite);
  const scenario::ScenarioSpec spec = scenario::random_link_scenarios(tree.network, 2, 7);

  ScopedObservability on;
  const scenario::ScenarioReport report = runner.run(spec);
  const std::vector<TraceEvent> events = Tracer::global().snapshot();

  const std::vector<TraceEvent> evaluations = spans_named(events, "scenario.evaluate");
  const std::vector<TraceEvent> diffs = spans_named(events, "scenario.diff");
  ASSERT_EQ(evaluations.size(), 3u);  // the baseline and two scenarios
  ASSERT_EQ(diffs.size(), 2u);
  for (size_t i = 0; i < diffs.size(); ++i) {
    // Scenario i's diff runs after its evaluation (i + 1) and before the
    // next one starts. Timestamps are whole microseconds, so a short diff
    // may share one with an evaluation's end without being inside it.
    const TraceEvent& evaluated = evaluations[i + 1];
    EXPECT_GE(diffs[i].ts_us, evaluated.ts_us + evaluated.dur_us) << "scenario.diff " << i;
    if (i + 2 < evaluations.size()) {
      EXPECT_LE(diffs[i].ts_us + diffs[i].dur_us, evaluations[i + 2].ts_us)
          << "scenario.diff " << i;
    }
    const scenario::ScenarioDiff& diff = report.scenarios[i];
    EXPECT_EQ(arg_of(diffs[i], "lost"), diff.rules_lost);
    EXPECT_EQ(arg_of(diffs[i], "gained"), diff.rules_gained);
    EXPECT_EQ(arg_of(diffs[i], "collapsed"), diff.rules_collapsed);
  }
}

TEST(ObsTracerTest, MatchSetBuildCountsFieldsAndDifferences) {
  // Step 1 builds each distinct match field once and pays a difference only
  // for a rule whose field overlaps an earlier rule's in its table
  // (DESIGN.md §20), in one walk in the engine's manager at every thread
  // count; its span and counters say how often.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const net::Network& network = tree.network;
  bdd::BddManager scratch(packet::kNumHeaderBits);
  const auto field = [&](net::RuleId rid) {
    return dataplane::MatchSetIndex::build_match_field(scratch, network.match_spec(rid));
  };
  std::unordered_set<bdd::NodeIndex> fields;
  uint64_t overlapping = 0;
  for (const net::Device& dev : network.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      const auto rules = network.table(dev.id, table);
      for (size_t i = 0; i < rules.size(); ++i) {
        fields.insert(field(rules[i]).raw().index());
        for (size_t j = 0; j < i; ++j) {
          if (!field(rules[i]).intersect(field(rules[j])).empty()) {
            ++overlapping;
            break;
          }
        }
      }
    }
  }
  ASSERT_GT(overlapping, 0u);
  ASSERT_LT(fields.size(), network.rule_count());

  for (const unsigned threads : {1u, 4u}) {
    ScopedObservability on;
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const ys::CoverageEngine engine(mgr, network, coverage::CoverageTrace{},
                                    ys::EngineOptions{nullptr, threads, ""});
    const std::vector<TraceEvent> builds =
        spans_named(Tracer::global().snapshot(), "match_sets.build");
    ASSERT_EQ(builds.size(), 1u) << threads << " threads";
    EXPECT_EQ(arg_of(builds[0], "fields"), fields.size()) << threads << " threads";
    EXPECT_EQ(arg_of(builds[0], "differences"), overlapping) << threads << " threads";
    EXPECT_EQ(metrics().counter("ys.match_sets.fields_built").value(), fields.size())
        << threads << " threads";
    EXPECT_EQ(metrics().counter("ys.match_sets.differences").value(), overlapping)
        << threads << " threads";
  }
}

TEST(ObsTracerTest, CoveredSetBuildDecidesRulesOnTheHeadersCofactor) {
  // Step 2 decides a rule on the device headers' cofactor at its dst prefix
  // and intersects only when that cofactor is neither everything nor
  // nothing (DESIGN.md §22); its span says how each rule went. On a fat
  // tree every rule with a longer prefix than /0 is decided without one:
  // the only rule intersected is the WAN's default route, whose cube is the
  // whole space and which no test inspects. So a second build over the
  // same trace pays one apply-cache lookup per intersected rule, the hit at
  // the top of the intersection the first build cached, and no other.
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  const net::Network& network = tree.network;
  nettest::TestSuite final_suite("final");
  final_suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  final_suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  final_suite.add(std::make_unique<nettest::InternalRouteCheck>());
  final_suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  ScopedObservability on;
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const ys::CoverageEngine engine(mgr, network, final_suite);
  uint64_t whole_space = 0;
  for (const net::Rule& rule : network.rules()) {
    const auto prefix = rule.dst_prefix();
    whole_space += (!prefix || prefix->length() == 0) && !engine.trace().rule_marked(rule.id);
  }
  ASSERT_EQ(whole_space, 1u);

  const auto decided = [](const TraceEvent& build) {
    return arg_of(build, "all") + arg_of(build, "none") + arg_of(build, "intersected") +
           arg_of(build, "marked");
  };
  const std::vector<TraceEvent> builds =
      spans_named(Tracer::global().snapshot(), "covered_sets.build");
  ASSERT_EQ(builds.size(), 1u);
  EXPECT_EQ(decided(builds[0]), network.rule_count());
  EXPECT_EQ(arg_of(builds[0], "intersected"), whole_space);
  EXPECT_EQ(arg_of(builds[0], "marked"), engine.trace().marked_rules().size());
  for (int a = 0; a < builds[0].num_args; ++a) {
    EXPECT_STRNE(builds[0].args[a].key, "workers");
  }

  const bdd::BddManager::CacheStats before = mgr.cache_stats();
  const coverage::CoveredSets again(engine.match_sets(), engine.trace());
  const bdd::BddManager::CacheStats after = mgr.cache_stats();
  EXPECT_EQ(after.hits + after.misses - before.hits - before.misses, whole_space);
  for (const net::Rule& rule : network.rules()) {
    ASSERT_EQ(again.covered(rule.id).raw(), engine.covered_sets().covered(rule.id).raw());
  }

  // A regional net whose ToR FIB rules are clipped by their ACL's permitted
  // space intersects below the prefix.
  topo::RegionalNetwork region = topo::make_regional({});
  const topo::TransformState transforms =
      topo::plan_transforms(region, {.tunnels = 2, .nat_rules_per_wan = 2});
  routing::FibBuilder::compute_and_build(region.network, region.routing);
  topo::install_ingress_acls(region.network, region.tors);
  topo::install_transform_rules(region.network, transforms, region.routing);
  nettest::TestSuite acl_suite("acl");
  acl_suite.add(std::make_unique<nettest::InternalRouteCheck>());
  acl_suite.add(std::make_unique<nettest::AclBlockCheck>());
  acl_suite.add(std::make_unique<nettest::BlockedPortCheck>());
  acl_suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
  Tracer::global().clear();
  bdd::BddManager regional_mgr(packet::kNumHeaderBits);
  const ys::CoverageEngine regional(regional_mgr, region.network, acl_suite);
  const std::vector<TraceEvent> regional_builds =
      spans_named(Tracer::global().snapshot(), "covered_sets.build");
  ASSERT_EQ(regional_builds.size(), 1u);
  EXPECT_EQ(decided(regional_builds[0]), region.network.rule_count());
  EXPECT_GT(arg_of(regional_builds[0], "intersected"), 0u);
}

TEST(ObsTracerTest, DisabledModeAllocatesNothing) {
  // Warm the cold paths first: registration allocates by design, and the
  // calling thread's trace buffer is created on first enabled use.
  Counter& counter = metrics().counter("ys.obs_test.zero_alloc_counter");
  Gauge& gauge = metrics().gauge("ys.obs_test.zero_alloc_gauge");
  Histogram& hist = metrics().histogram("ys.obs_test.zero_alloc_histogram", {1.0, 2.0});
  ASSERT_FALSE(enabled());

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    Span span("obs_test.disabled_span", "test");
    span.arg("i", static_cast<uint64_t>(i));
    counter.add();
    gauge.set(static_cast<double>(i));
    hist.observe(static_cast<double>(i));
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled-mode hot path must not allocate";
}

TEST(ContractLoopTest, AllocatesPerRunNotPerCheck) {
  // k=8: 32 hosted prefixes, each checked at the 80 other devices. With
  // the tracker off what remains is the test's own work: the run's
  // buffers (5 allocations). Building a prefix's packet set allocates
  // nothing; it took three allocations per prefix (96) before, and the
  // old loop allocated three vectors per check (~29,000).
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  tracker.set_enabled(false);
  (void)nettest::ToRContract().run(transfer, tracker);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const nettest::TestResult result = nettest::ToRContract().run(transfer, tracker);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.checks, 2560u);
  EXPECT_LT(allocations, 16u) << "a contract check or a prefix's packet set allocated";
}

TEST(FibInstallTest, AllocatesPerDeviceNotPerRule) {
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::BgpSimulator sim(tree.network, tree.routing);
  const std::vector<routing::SimRib> ribs = sim.run();
  // The first build sizes the store; a rebuild, as a scenario run makes,
  // reuses its capacity.
  for (const char* pass : {"first build", "rebuild"}) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    routing::FibBuilder::build(tree.network, ribs, tree.routing);
    const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
    // A table and a few port lists per device, the per-build scratch and
    // the pool's growth, never one per rule (3,353 rules on 80 devices).
    EXPECT_LE(allocations, 8 * tree.network.device_count() + 32) << pass;
  }
  EXPECT_EQ(tree.network.rule_count(), 3353u);
}

TEST(BgpFixpointTest, AllocatesPerDeviceAndRoundNotPerEntry) {
  // k=8: 81 devices, 2,809 RIB entries after 5 rounds. A RIB entry is a
  // fixed record and its next hops a bitset, so what allocates is a few
  // arrays per device (originations, neighbour list, the two RIB buffers)
  // and the growth of a recomputed device's three buffers in a round
  // (1,274 in all). A next-hop vector per entry made the same run allocate
  // 6,412 times.
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::BgpSimulator sim(tree.network, tree.routing);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::vector<routing::SimRib> ribs = sim.run();
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  size_t entries = 0;
  for (const routing::SimRib& rib : ribs) entries += rib.size();
  EXPECT_EQ(entries, 2809u);
  EXPECT_EQ(sim.rounds_used(), 5);
  const uint64_t devices = tree.network.device_count();
  const auto rounds = static_cast<uint64_t>(sim.rounds_used());
  EXPECT_LE(allocations, 8 * devices + 3 * devices * rounds)
      << "the fixpoint allocated per RIB entry or per next hop";
}

TEST(ContractLoopTest, TrackedRunAllocatesPerRunNotPerCheck) {
  // The same run with the tracker on: each check's report is appended to
  // the tracker's one flat buffer, which grows by doubling (18 allocations
  // in all); a buffer per location would allocate per location. The fold,
  // at trace(), is not counted.
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker warm;
  (void)nettest::ToRContract().run(transfer, warm);

  ys::CoverageTracker tracker;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const nettest::TestResult result = nettest::ToRContract().run(transfer, tracker);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(tracker.pending().size(), result.checks);
  EXPECT_LT(allocations, result.checks / 8) << "a tracked contract check must not allocate";
}

TEST(PingmeshTest, UntrackedRunAllocatesPerRunNotPerProbe) {
  // k=8: 32 ToRs, 992 probes. With the tracker off nothing reads a probe's
  // packet set, so none is built, and the probes share one hop list. A set
  // per probe cost three allocations and a hop list per probe about four
  // (6,886 in all). What is left is one host-port list per source ToR and
  // the growth of the ToR list and the hop list (42 in all).
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  tracker.set_enabled(false);
  (void)nettest::ToRPingmesh().run(transfer, tracker);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const nettest::TestResult result = nettest::ToRPingmesh().run(transfer, tracker);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.checks, 992u);
  EXPECT_LT(allocations, 64u) << "an untracked probe allocated";
}

TEST(PingmeshTest, TrackedRunAllocatesPerRunNotPerProbe) {
  // The same run with the tracker on: each probe builds its singleton with
  // make() alone, and each hop's report (4,768 in all) is appended to the
  // tracker's one flat buffer, which grows by doubling: 56 allocations in
  // all, with the untracked run's 42. Building the singleton through a
  // sorted cube cost three allocations per probe (3,032 in all). The fold,
  // at trace(), is not counted.
  topo::FatTree tree = topo::make_fat_tree({.k = 8});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, tree.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker warm;
  (void)nettest::ToRPingmesh().run(transfer, warm);

  ys::CoverageTracker tracker;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const nettest::TestResult result = nettest::ToRPingmesh().run(transfer, tracker);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.checks, 992u);
  EXPECT_GT(tracker.pending().size(), result.checks);
  EXPECT_LT(allocations, 128u) << "a tracked probe allocated";
}

TEST(ObsExpositionTest, JsonIsWellFormedAndComplete) {
  ScopedObservability on;
  metrics().counter("ys.obs_test.json_counter", "a counter").add(3);
  metrics().gauge("ys.obs_test.json_gauge", "a gauge").set(1.5);
  Histogram& hist = metrics().histogram("ys.obs_test.json_histogram", {1.0, 10.0});
  hist.observe(0.5);
  hist.observe(5.0);
  // Non-finite gauge values must serialize as 0 (repo-wide JSON contract).
  metrics().gauge("ys.obs_test.json_degraded_gauge")
      .set(std::numeric_limits<double>::quiet_NaN());

  const std::string json = metrics().to_json();
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
  EXPECT_NE(json.find("\"ys.obs_test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"ys.obs_test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"ys.obs_test.json_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos) << "only the quoted \"+Inf\" le label may "
                                                    "contain inf";
}

TEST(ObsExpositionTest, PrometheusFormatAndCumulativeBuckets) {
  ScopedObservability on;
  metrics().counter("ys.obs_test.prom_counter", "events seen").add(7);
  metrics().gauge("ys.obs_test.prom_gauge", "current level").set(2.5);
  Histogram& hist = metrics().histogram("ys.obs_test.prom_histogram", {1.0, 10.0});
  hist.observe(0.5);
  hist.observe(5.0);
  hist.observe(50.0);

  const std::string text = metrics().to_prometheus();
  // Names map '.' → '_' and each series carries HELP/TYPE headers.
  EXPECT_NE(text.find("# HELP ys_obs_test_prom_counter events seen"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE ys_obs_test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ys_obs_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ys_obs_test_prom_histogram histogram"), std::string::npos);
  // Cumulative buckets: le="1" has 1 observation, le="10" has 2, +Inf all 3.
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_count 3"), std::string::npos);
  EXPECT_NE(text.find("ys_obs_test_prom_histogram_sum 55.5"), std::string::npos);
  // Every non-comment line is `name[{labels}] value`.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(line[0]))) << line;
    // The series name (everything before the value) has every '.' mapped.
    EXPECT_EQ(line.substr(0, space).find('.'), std::string::npos)
        << "unmapped '.' in: " << line;
  }
}

}  // namespace
}  // namespace yardstick::obs
