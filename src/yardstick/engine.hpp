// CoverageEngine — Yardstick's post-processing phase (§5.2).
//
// Given a network snapshot and the coverage trace collected online, the
// engine runs the three steps of §5.2:
//   1. compute disjoint rule match sets (MatchSetIndex),
//   2. compute covered sets T[r] (Algorithm 1),
//   3. compute the requested component and collection metrics.
//
// The online tests read the same match sets step 1 builds, so the engine
// runs a suite itself, between steps 1 and 2, on its own index: one index
// per snapshot (DESIGN.md §16). A trace collected earlier goes in by value
// instead. Either way the engine owns everything it reads after
// construction except the manager and the network.
//
// Step 3's local metrics (rules, devices, outgoing interfaces) all fold
// the same per-rule fraction |T[r] ∩ M[r]| / |M[r]|, so construction ends
// by measuring every rule once into a table (DESIGN.md §15); those queries
// are folds over it. Paths, flows and incoming interfaces still go through
// the (G, µ, κ, α) framework.
//
// Metric computation is deliberately off the testing path: the engine can
// be constructed at any time after tests finish, and users can keep asking
// it new questions (different components, filters, aggregations) against
// the same trace.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "coverage/components.hpp"
#include "coverage/covered_sets.hpp"
#include "coverage/path_explorer.hpp"
#include "coverage/trace.hpp"
#include "dataplane/transfer.hpp"
#include "nettest/test.hpp"
#include "yardstick/cache.hpp"
#include "yardstick/report.hpp"

namespace yardstick::ys {

/// Restricts a metric to a subset of devices (§6: users can zoom in on,
/// say, only leaf routers). Null filter = every device; a filter that keeps
/// no device gives empty collections, which aggregate to 1.0.
using DeviceFilter = std::function<bool(const net::Device&)>;

/// One rule's row in step 3's measure table: the two model counts the
/// fraction measure takes.
struct RuleMeasure {
  bdd::Uint128 match = 0;    ///< |M[r]|: the rule's weight in every weighted fold
  bdd::Uint128 covered = 0;  ///< |T[r] ∩ M[r]|: the rule's exercised ATUs

  /// Rule coverage (fraction_measure): vacuously 1 for an empty match set.
  [[nodiscard]] double coverage() const {
    return match == 0 ? 1.0 : bdd::ratio(covered, match);
  }
};

/// Result of a path-universe sweep (Figure 9's most expensive metric).
struct PathCoverageResult {
  uint64_t total_paths = 0;
  uint64_t covered_paths = 0;  // paths with non-zero Equation-(3) coverage
  double fractional = 0.0;     // covered_paths / total_paths
  double mean = 0.0;           // unweighted mean of per-path coverage
  bool truncated = false;      // hit the max_paths / deadline / budget limit
  double seconds = 0.0;        // wall-clock (steady) cost of this sweep
};

/// Construction-time knobs for the engine's offline phase.
struct EngineOptions {
  /// Non-owning; may be null. Attached to the manager for the engine's
  /// lifetime (bdd::ScopedBudget); the previous budget is restored
  /// afterwards, so engines sharing a manager end in the reverse order they
  /// began. See the engine constructor docs for degradation semantics.
  const ResourceBudget* budget = nullptr;
  /// Worker threads for the path-universe sweep (clone_and_drain.hpp); the
  /// CLI passes the same count to the suite matrix. 1 = serial, 0 = one per
  /// hardware thread. Steps 1 and 2 build in the engine's manager at every
  /// count (DESIGN.md §8). Unbounded results are bit-identical across
  /// thread counts — the sweep folds per-ingress partials in a fixed order.
  unsigned threads = 1;
  /// Directory for the incremental result cache (DESIGN.md §11). Empty =
  /// no cross-run caching. When set, construction loads cached per-device
  /// results whose content keys still match, recomputes only the
  /// invalidation frontier, and re-persists the cache afterwards — with
  /// output bit-identical to a from-scratch run. A missing/corrupt/
  /// mismatched cache silently degrades to a full rebuild.
  std::string cache_dir{};
  /// Read by nothing. perfbench/layers.cpp, which changes only with the
  /// benchmark, still builds these options from four values; this member
  /// goes with that file (ROADMAP item 7).
  double reserved = 0.0;
};

class CoverageEngine {
 public:
  /// Runs the online phase inside steps 1-2: builds the match sets (step
  /// 1), runs `suite` on the transfer function over them, then computes the
  /// covered sets of the suite's trace (step 2) on the same index. Metric
  /// queries afterwards are step 3.
  ///
  /// `options.budget` is the manager's budget for the engine's lifetime,
  /// so it bounds steps 1-3 and every stage run on the engine's index
  /// meanwhile; the budget `mgr` had before comes back when the engine
  /// dies, also when construction throws. The tests run unbudgeted (the
  /// budget is off the manager while they run), and a step 1 it truncated
  /// hands them the partial data plane. A tripped budget never escapes as
  /// an exception from the engine: construction completes with partial
  /// match/covered sets and truncated() == true, and metric queries return
  /// the values computed so far with their `truncated` flag set. The
  /// incremental cache is read once before step 1 and keys its covered-set
  /// records by the suite's trace.
  CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                 const nettest::TestSuite& suite, const EngineOptions& options = {});

  /// Steps 1-2 for a trace collected earlier (saved, merged by a daemon,
  /// or assembled by hand), which the engine keeps; budget and cache as
  /// above.
  CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                 coverage::CoverageTrace trace, const EngineOptions& options = {});

  /// Pinned: the transfer function, the covered sets and the component
  /// factory point into the engine's own index and trace.
  CoverageEngine(const CoverageEngine&) = delete;
  CoverageEngine(CoverageEngine&&) = delete;
  CoverageEngine& operator=(const CoverageEngine&) = delete;
  CoverageEngine& operator=(CoverageEngine&&) = delete;

  /// True when a resource budget degraded steps 1-2; all metrics are
  /// lower bounds in that case (a rule step 1 never reached counts as
  /// untested, weighted by the whole header space).
  [[nodiscard]] bool truncated() const {
    return index_.truncated() || covered_.truncated();
  }

  // --- Single-component metrics ---
  [[nodiscard]] double rule_coverage(net::RuleId id) const {
    return measures_.rules[id.value].coverage();
  }
  [[nodiscard]] double device_coverage(net::DeviceId id) const {
    return measures_.devices[id.value].value;
  }
  /// Outgoing: a table lookup. Incoming: evaluated on the framework.
  [[nodiscard]] double interface_coverage(
      net::InterfaceId id,
      coverage::InterfaceDirection direction = coverage::InterfaceDirection::Outgoing) const;
  /// Explores the flow's paths under the manager's budget. Once that
  /// budget's deadline has passed or its cancel flag is up, the walk stops
  /// before its first hop: the flow has no path, and the query returns the
  /// vacuous 1.0, not a lower bound. A node cap that trips mid-query throws
  /// BudgetExceededError.
  [[nodiscard]] double flow_coverage(net::DeviceId device, net::InterfaceId in_interface,
                                     const packet::PacketSet& headers) const;

  // --- Collection metrics (Equation 2) ---
  [[nodiscard]] double rules_coverage(const coverage::Aggregator& aggregate,
                                      const DeviceFilter& filter = nullptr) const;
  [[nodiscard]] double devices_coverage(const coverage::Aggregator& aggregate,
                                        const DeviceFilter& filter = nullptr) const;
  [[nodiscard]] double interfaces_coverage(
      const coverage::Aggregator& aggregate, const DeviceFilter& filter = nullptr,
      coverage::InterfaceDirection direction = coverage::InterfaceDirection::Outgoing) const;

  /// Full path-universe sweep; expensive (§8.2), one item per edge ingress
  /// port on the clone-and-drain driver (dataplane/clone_and_drain.hpp).
  /// `deadline_seconds` stops the sweep after a wall-time budget and
  /// `max_paths` after that many paths (0 = none for either), as does the
  /// manager's budget; a stopped sweep reports its result truncated.
  [[nodiscard]] PathCoverageResult path_coverage(double deadline_seconds = 0.0,
                                                 uint64_t max_paths = 0) const;

  // --- Reports ---

  /// The four headline metrics for an arbitrary device subset — the §3.1
  /// "what do our tests say about a particular pod?" query. Null filter =
  /// the whole network.
  [[nodiscard]] MetricRow metrics(const DeviceFilter& filter = nullptr) const;

  /// The standard report: overall + per-role breakdown + gap analysis.
  [[nodiscard]] CoverageReport report() const;

  /// Rules with zero coverage, optionally filtered (gap drill-down §7.2).
  [[nodiscard]] std::vector<net::RuleId> untested_rules(
      const DeviceFilter& filter = nullptr) const;

  /// Interfaces with zero outgoing coverage.
  [[nodiscard]] std::vector<net::InterfaceId> untested_interfaces(
      const DeviceFilter& filter = nullptr) const;

  // --- Internals exposed for tests, benches and advanced queries ---
  /// The rule's row in the measure table.
  [[nodiscard]] const RuleMeasure& rule_measure(net::RuleId id) const {
    return measures_.rules[id.value];
  }
  [[nodiscard]] const dataplane::MatchSetIndex& match_sets() const { return index_; }
  [[nodiscard]] const dataplane::Transfer& transfer() const { return transfer_; }
  [[nodiscard]] const coverage::CoveredSets& covered_sets() const { return covered_; }
  /// The trace steps 2 and 3 read: the suite's, or the one passed in.
  [[nodiscard]] const coverage::CoverageTrace& trace() const { return trace_; }
  /// The suite's results in suite order; empty when a trace was passed in.
  [[nodiscard]] const std::vector<nettest::TestResult>& results() const { return results_; }
  [[nodiscard]] const coverage::ComponentFactory& components() const { return factory_; }
  [[nodiscard]] const net::Network& network() const { return network_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  /// Wall-clock cost of steps 1 and 2, measured at construction (always,
  /// independent of the observability switch).
  [[nodiscard]] const PhaseTimings& timings() const { return timings_; }
  /// Incremental-cache statistics for this construction; null when
  /// EngineOptions::cache_dir was empty.
  [[nodiscard]] const CacheStats* cache_stats() const {
    return incremental_ ? &incremental_->stats() : nullptr;
  }

 private:
  /// Both public constructors: the suite's run replaces `trace` unless
  /// `suite` is null.
  CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                 const nettest::TestSuite* suite, coverage::CoverageTrace trace,
                 const EngineOptions& options);

  /// Step 3's shared work (DESIGN.md §15): every rule's measures, and each
  /// device's and outgoing interface's weighted mean folded from them in
  /// the framework's string order.
  struct MeasureTable {
    std::vector<RuleMeasure> rules;                          // by RuleId
    std::vector<coverage::ComponentCoverage> devices;        // by DeviceId
    std::vector<coverage::ComponentCoverage> interfaces;     // by InterfaceId
  };
  enum class Collection : uint8_t { Rules, Devices, OutgoingInterfaces };

  /// The collection's (value, weight) pairs over the devices `filter`
  /// keeps, in the order ComponentFactory::all_* lists their specs.
  [[nodiscard]] std::vector<coverage::ComponentCoverage> components(
      Collection collection, const DeviceFilter& filter) const;
  [[nodiscard]] std::vector<net::DeviceId> filtered_devices(const DeviceFilter& filter) const;
  /// Serial, in the primary manager, after steps 1-2 (no BDD operation
  /// beyond model counts, so a tripped budget cannot interrupt it).
  [[nodiscard]] static MeasureTable build_measures(const dataplane::MatchSetIndex& index,
                                                   const coverage::CoveredSets& covered,
                                                   const coverage::ComponentFactory& factory);

  /// Init-list helpers: build step 1 / step 2 while timing them into
  /// `timings` (guaranteed copy elision constructs the member in place;
  /// the timing guard's destructor fires after construction completes).
  [[nodiscard]] static dataplane::MatchSetIndex timed_match_sets(
      bdd::BddManager& mgr, const net::Network& network, PhaseTimings& timings,
      const IncrementalSession* incremental);
  [[nodiscard]] static coverage::CoveredSets timed_covered_sets(
      const dataplane::MatchSetIndex& index, const coverage::CoverageTrace& trace,
      PhaseTimings& timings, const IncrementalSession* incremental);
  /// Null when options.cache_dir is empty; never throws (cache failures
  /// degrade to a full rebuild, recorded in the session's stats).
  [[nodiscard]] static std::unique_ptr<IncrementalSession> make_incremental(
      bdd::BddManager& mgr, const net::Network& network, const EngineOptions& options);

  const net::Network& network_;
  // Declared before every member the offline phase builds, so the budget
  // bounds them from the first BDD operation, and outlives them.
  bdd::ScopedBudget budget_;
  unsigned threads_;
  PhaseTimings timings_;  // declared before index_/covered_: written during their init
  // Declared before index_: its prefills feed index_'s and covered_'s
  // construction in the init list below.
  std::unique_ptr<IncrementalSession> incremental_;
  dataplane::MatchSetIndex index_;
  dataplane::Transfer transfer_;
  // In this order: the suite runs on transfer_ into results_ and hands its
  // trace to trace_, which covered_ reads.
  std::vector<nettest::TestResult> results_;
  coverage::CoverageTrace trace_;
  coverage::CoveredSets covered_;
  coverage::ComponentFactory factory_;
  MeasureTable measures_;
};

/// Convenience device filter: keep only devices of one role.
[[nodiscard]] inline DeviceFilter role_filter(net::Role role) {
  return [role](const net::Device& d) { return d.role == role; };
}

}  // namespace yardstick::ys
