// CoverageEngine — Yardstick's post-processing phase (§5.2).
//
// Given a network snapshot and the coverage trace collected online, the
// engine runs the three steps of §5.2:
//   1. compute disjoint rule match sets (MatchSetIndex),
//   2. compute covered sets T[r] (Algorithm 1),
//   3. compute the requested component and collection metrics.
//
// The online tests read the same match sets step 1 builds, so the engine
// can also run them itself, between steps 1 and 2, on its own index: one
// index per snapshot (DESIGN.md §16).
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
  /// Non-owning; may be null; must outlive the engine. See the engine
  /// constructor docs for degradation semantics.
  const ResourceBudget* budget = nullptr;
  /// Worker threads for the offline phase (match sets, covered sets and
  /// path-universe sweeps): 1 = serial, 0 = one per hardware thread. The
  /// drivers in dataplane/sharded_build.hpp and clone_and_drain.hpp own
  /// the worker policy. Unbounded results are bit-identical across thread
  /// counts — results merge canonically into the engine's manager, and
  /// floating-point folds run in a fixed order.
  unsigned threads = 1;
  /// Directory for the incremental result cache (DESIGN.md §11). Empty =
  /// no cross-run caching. When set, construction loads cached per-device
  /// results whose content keys still match, recomputes only the
  /// invalidation frontier, and re-persists the cache afterwards — with
  /// output bit-identical to a from-scratch run. A missing/corrupt/
  /// mismatched cache silently degrades to a full rebuild.
  std::string cache_dir;
  /// Dead-fraction trigger in (0, 1] for phase-boundary mark-compact GC on
  /// the per-worker shard managers of steps 1-2 (0 = off). Enabling GC
  /// forces the sharded build path even at threads == 1; output stays
  /// bit-identical either way (GC only renumbers shard-private nodes; the
  /// merge canonicalizes). Deliberately NOT part of the incremental
  /// cache's options fingerprint for the same reason.
  double gc_threshold = 0.0;
};

class CoverageEngine {
 public:
  /// Runs steps 1 and 2 (match sets + covered sets) immediately; metric
  /// queries afterwards are step 3.
  ///
  /// `budget` (non-owning, may be null; must outlive the engine) bounds
  /// both construction and later queries. A tripped budget never escapes
  /// as an exception from the engine: construction completes with partial
  /// match/covered sets and truncated() == true, and metric queries return
  /// the values computed so far with their `truncated` flag set.
  CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                 const coverage::CoverageTrace& trace,
                 const ResourceBudget* budget = nullptr);

  /// Same, with the full option set (budget + worker threads).
  CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                 const coverage::CoverageTrace& trace, const EngineOptions& options);

  /// Runs the online phase too: after step 1, `online` gets the transfer
  /// function over the engine's index, runs the tests on it and returns
  /// their trace (which must outlive the engine); steps 2 and 3 follow on
  /// the same index. The budget bounds steps 1-3 only: it is detached
  /// from `mgr` while `online` runs (re-attached even if it throws), and a
  /// step 1 it truncated hands the tests the partial data plane. The
  /// incremental cache is read once before step 1 and keys its covered-set
  /// records by the returned trace.
  CoverageEngine(
      bdd::BddManager& mgr, const net::Network& network,
      const std::function<const coverage::CoverageTrace&(const dataplane::Transfer&)>& online,
      const EngineOptions& options = {});

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
  /// `options.max_paths` bounds the work; `deadline_seconds` stops the
  /// sweep after a wall-time budget (0 = none), reporting the result
  /// truncated.
  [[nodiscard]] PathCoverageResult path_coverage(coverage::PathExplorerOptions options = {},
                                                 double deadline_seconds = 0.0) const;

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
      bdd::BddManager& mgr, const net::Network& network, const EngineOptions& options,
      PhaseTimings& timings, const IncrementalSession* incremental);
  [[nodiscard]] static coverage::CoveredSets timed_covered_sets(
      const dataplane::MatchSetIndex& index, const coverage::CoverageTrace& trace,
      const EngineOptions& options, PhaseTimings& timings,
      const IncrementalSession* incremental);
  /// Null when options.cache_dir is empty; never throws (cache failures
  /// degrade to a full rebuild, recorded in the session's stats).
  [[nodiscard]] static std::unique_ptr<IncrementalSession> make_incremental(
      bdd::BddManager& mgr, const net::Network& network, const EngineOptions& options);

  const net::Network& network_;
  const ResourceBudget* budget_;
  unsigned threads_;
  PhaseTimings timings_;  // declared before index_/covered_: written during their init
  // Declared before index_: its prefills feed index_'s and covered_'s
  // construction in the init list below.
  std::unique_ptr<IncrementalSession> incremental_;
  dataplane::MatchSetIndex index_;
  dataplane::Transfer transfer_;
  coverage::CoveredSets covered_;
  coverage::ComponentFactory factory_;
  MeasureTable measures_;
};

/// Convenience device filter: keep only devices of one role.
[[nodiscard]] inline DeviceFilter role_filter(net::Role role) {
  return [role](const net::Device& d) { return d.role == role; };
}

}  // namespace yardstick::ys
