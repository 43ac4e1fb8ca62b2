#include "yardstick/engine.hpp"

#include <atomic>
#include <chrono>

#include "dataplane/clone_and_drain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::ys {

namespace {

/// The online phase, between steps 1 and 2: with a suite, the tests run
/// unbudgeted on the engine's transfer (the engine's budget is back on the
/// manager afterwards, also when a test throws) and their trace replaces
/// `trace`; then the cache keys its covered-set records by the trace.
std::vector<nettest::TestResult> run_online(const nettest::TestSuite* suite,
                                            const dataplane::Transfer& transfer,
                                            coverage::CoverageTrace& trace,
                                            IncrementalSession* incremental) {
  std::vector<nettest::TestResult> results;
  if (suite != nullptr) {
    const bdd::ScopedBudget unbudgeted(transfer.index().manager(), nullptr);
    CoverageTracker tracker;
    results = suite->run_all(transfer, tracker);
    trace = tracker.take_trace();
  }
  if (incremental != nullptr) incremental->add_trace(trace);
  return results;
}

/// Writes the elapsed steady-clock seconds into `out` on scope exit. In a
/// return statement, locals are destroyed *after* the returned object is
/// constructed, so a guard in a factory function times the construction.
class PhaseTimer {
 public:
  explicit PhaseTimer(double& out) : out_(out), start_(ResourceBudget::Clock::now()) {}
  ~PhaseTimer() {
    out_ = std::chrono::duration<double>(ResourceBudget::Clock::now() - start_).count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& out_;
  ResourceBudget::Clock::time_point start_;
};

/// Samples the size of the rule store the engine analyses: its rules and the
/// heap bytes of the rule array, the tables, the group pool and the side
/// table (net::RuleStore::bytes).
void sample_network_gauges(const net::Network& network) {
  if (!obs::enabled()) return;
  obs::MetricsRegistry& reg = obs::metrics();
  reg.gauge("ys.network.rules", "rules in the analysed network")
      .set(static_cast<double>(network.rule_count()));
  reg.gauge("ys.network.rule_bytes",
            "heap bytes of the rule store: rules, tables, group pool and side table")
      .set(static_cast<double>(network.rule_bytes()));
}

/// Samples the primary manager's engine statistics and its budget's
/// consumption into the metrics registry — called at phase boundaries so
/// the BDD hot path itself carries no instrumentation.
void sample_engine_gauges(const bdd::BddManager& mgr) {
  if (!obs::enabled()) return;
  obs::MetricsRegistry& reg = obs::metrics();
  const bdd::BddManager::Stats stats = mgr.stats();
  reg.gauge("ys.bdd.arena_nodes", "nodes in the primary BDD arena")
      .set(static_cast<double>(stats.arena_nodes));
  reg.gauge("ys.bdd.cache_hit_rate", "apply-cache hit fraction [0,1]")
      .set(stats.cache_hit_rate());
  reg.gauge("ys.bdd.cache_hits", "apply-cache hits on the primary manager")
      .set(static_cast<double>(stats.cache_hits));
  reg.gauge("ys.bdd.cache_misses", "apply-cache misses on the primary manager")
      .set(static_cast<double>(stats.cache_misses));
  reg.gauge("ys.bdd.unique_table_growths", "unique-table rehash events")
      .set(static_cast<double>(stats.unique_table_growths));
  reg.gauge("ys.bdd.op_cache_entries", "adaptive apply-cache capacity (entries)")
      .set(static_cast<double>(stats.op_cache_entries));
  reg.gauge("ys.bdd.op_cache_growths", "adaptive apply-cache resize events")
      .set(static_cast<double>(stats.op_cache_growths));
  reg.gauge("ys.bdd.neg_cache_hits", "complement-memo hits on the primary manager")
      .set(static_cast<double>(stats.neg_cache_hits));
  reg.gauge("ys.bdd.neg_cache_misses", "complement-memo misses on the primary manager")
      .set(static_cast<double>(stats.neg_cache_misses));
  if (const ResourceBudget* budget = mgr.budget()) {
    reg.gauge("ys.budget.used_bdd_nodes", "nodes charged against the shared budget")
        .set(static_cast<double>(budget->used_bdd_nodes()));
    reg.gauge("ys.budget.peak_bdd_nodes",
              "high-water mark of concurrent node charge across all managers")
        .set(static_cast<double>(budget->peak_bdd_nodes()));
    reg.gauge("ys.budget.max_bdd_nodes", "node cap (0 = unlimited)")
        .set(static_cast<double>(budget->max_bdd_nodes()));
    reg.gauge("ys.budget.exhausted", "1 when deadline/cancel tripped")
        .set(budget->exhausted() ? 1.0 : 0.0);
  }
}

}  // namespace

dataplane::MatchSetIndex CoverageEngine::timed_match_sets(
    bdd::BddManager& mgr, const net::Network& network, const EngineOptions& options,
    PhaseTimings& timings, const IncrementalSession* incremental) {
  PhaseTimer timer(timings.match_sets_seconds);
  return dataplane::MatchSetIndex(
      mgr, network, options.threads,
      incremental != nullptr ? incremental->match_prefill() : nullptr);
}

coverage::CoveredSets CoverageEngine::timed_covered_sets(
    const dataplane::MatchSetIndex& index, const coverage::CoverageTrace& trace,
    const EngineOptions& options, PhaseTimings& timings,
    const IncrementalSession* incremental) {
  PhaseTimer timer(timings.covered_sets_seconds);
  return coverage::CoveredSets(
      index, trace, options.threads,
      incremental != nullptr ? incremental->cover_prefill() : nullptr);
}

std::unique_ptr<IncrementalSession> CoverageEngine::make_incremental(
    bdd::BddManager& mgr, const net::Network& network, const EngineOptions& options) {
  if (options.cache_dir.empty()) return nullptr;
  const uint64_t fingerprint =
      options_fingerprint(options.budget != nullptr ? options.budget->max_bdd_nodes() : 0,
                          options.budget != nullptr && options.budget->has_deadline());
  return std::make_unique<IncrementalSession>(mgr, network, options.cache_dir, fingerprint);
}

CoverageEngine::CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                               const nettest::TestSuite& suite, const EngineOptions& options)
    : CoverageEngine(mgr, network, &suite, {}, options) {}

CoverageEngine::CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                               coverage::CoverageTrace trace, const EngineOptions& options)
    : CoverageEngine(mgr, network, nullptr, std::move(trace), options) {}

CoverageEngine::CoverageEngine(bdd::BddManager& mgr, const net::Network& network,
                               const nettest::TestSuite* suite, coverage::CoverageTrace trace,
                               const EngineOptions& options)
    : network_(network),
      budget_(mgr, options.budget),
      threads_(options.threads),
      incremental_(make_incremental(mgr, network, options)),
      index_(timed_match_sets(mgr, network, options, timings_, incremental_.get())),
      transfer_(index_),
      results_(run_online(suite, transfer_, trace, incremental_.get())),
      trace_(std::move(trace)),
      covered_(timed_covered_sets(index_, trace_, options, timings_, incremental_.get())),
      factory_(transfer_),
      measures_(build_measures(index_, covered_, factory_)) {
  if (incremental_) {
    incremental_->save(index_, covered_);
    if (obs::enabled()) {
      const CacheStats& cs = incremental_->stats();
      obs::MetricsRegistry& reg = obs::metrics();
      reg.counter("ys.cache.hits", "incremental cache: per-device records reused")
          .add(cs.match_hits + cs.cover_hits);
      reg.counter("ys.cache.misses", "incremental cache: per-device records recomputed")
          .add(cs.match_misses() + cs.cover_misses());
      reg.counter("ys.cache.invalidations",
                  "incremental cache: devices on the invalidation frontier")
          .add(cs.invalidated);
      reg.counter("ys.cache.saves", "incremental cache: files committed")
          .add(cs.saved ? 1 : 0);
    }
  }
  // Offline phase (steps 1-2) just finished: snapshot the primary
  // manager's state and the budget consumption into the registry.
  sample_engine_gauges(mgr);
  sample_network_gauges(network);
}

CoverageEngine::MeasureTable CoverageEngine::build_measures(
    const dataplane::MatchSetIndex& index, const coverage::CoveredSets& covered,
    const coverage::ComponentFactory& factory) {
  obs::Span span("measure_table.build", "offline");
  const net::Network& network = index.network();
  MeasureTable table;
  table.rules.resize(network.rule_count());
  const bdd::Uint128 universe = packet::PacketSet::all(index.manager()).count();
  for (const net::Rule& rule : network.rules()) {
    RuleMeasure& m = table.rules[rule.id.value];
    if (index.reached(rule.id)) {
      m.match = index.match_set_size(rule.id);
      // Algorithm 1 clips every covered set to its match set, so |T[r]| is
      // already |T[r] ∩ M[r]|.
      m.covered = covered.covered_size(rule.id);
    } else {
      // Step 1 never computed M[r]: count the rule untested, weighted as
      // heavily as any match set could be, so the metrics stay lower bounds.
      m.match = universe;
    }
  }

  // Device and outgoing-interface components: the framework's weighted-mean
  // combinator over each rule's fraction_measure result, the one string per
  // rule that every such component folds, in the same order.
  const coverage::Combinator weighted_mean = coverage::weighted_mean_combinator();
  std::vector<coverage::MeasureResult> strings;
  const auto add = [&](net::RuleId rid) {
    const RuleMeasure& m = table.rules[rid.value];
    strings.push_back({m.coverage(), m.match});
  };
  const auto fold = [&] {
    coverage::ComponentCoverage out{weighted_mean(strings), 0};
    for (const coverage::MeasureResult& s : strings) out.weight += s.weight;
    strings.clear();
    return out;
  };
  table.devices.resize(network.device_count());
  for (const net::Device& dev : network.devices()) {
    for (const net::TableKind kind : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(dev.id, kind)) add(rid);
    }
    table.devices[dev.id.value] = fold();
  }
  table.interfaces.resize(network.interface_count());
  for (const net::Interface& intf : network.interfaces()) {
    for (const net::RuleId rid : factory.rules_to_interface(intf.id)) add(rid);
    table.interfaces[intf.id.value] = fold();
  }
  span.arg("rules", network.rule_count());
  return table;
}

double CoverageEngine::interface_coverage(net::InterfaceId id,
                                          coverage::InterfaceDirection direction) const {
  if (direction == coverage::InterfaceDirection::Outgoing) {
    return measures_.interfaces[id.value].value;
  }
  return coverage::component_coverage(covered_, factory_.interface(id, direction));
}

double CoverageEngine::flow_coverage(net::DeviceId device, net::InterfaceId in_interface,
                                     const packet::PacketSet& headers) const {
  return coverage::component_coverage(covered_,
                                      factory_.flow(device, in_interface, headers));
}

std::vector<net::DeviceId> CoverageEngine::filtered_devices(
    const DeviceFilter& filter) const {
  std::vector<net::DeviceId> out;
  for (const net::Device& d : network_.devices()) {
    if (!filter || filter(d)) out.push_back(d.id);
  }
  return out;
}

std::vector<coverage::ComponentCoverage> CoverageEngine::components(
    Collection collection, const DeviceFilter& filter) const {
  std::vector<coverage::ComponentCoverage> out;
  for (const net::Device& dev : network_.devices()) {
    if (filter && !filter(dev)) continue;
    switch (collection) {
      case Collection::Rules:
        for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
          for (const net::RuleId rid : network_.table(dev.id, table)) {
            const RuleMeasure& m = measures_.rules[rid.value];
            out.push_back({m.coverage(), m.match});
          }
        }
        break;
      case Collection::Devices:
        out.push_back(measures_.devices[dev.id.value]);
        break;
      case Collection::OutgoingInterfaces:
        for (const net::InterfaceId intf : dev.interfaces) {
          out.push_back(measures_.interfaces[intf.value]);
        }
        break;
    }
  }
  return out;
}

double CoverageEngine::rules_coverage(const coverage::Aggregator& aggregate,
                                      const DeviceFilter& filter) const {
  return aggregate(components(Collection::Rules, filter));
}

double CoverageEngine::devices_coverage(const coverage::Aggregator& aggregate,
                                        const DeviceFilter& filter) const {
  return aggregate(components(Collection::Devices, filter));
}

double CoverageEngine::interfaces_coverage(const coverage::Aggregator& aggregate,
                                           const DeviceFilter& filter,
                                           coverage::InterfaceDirection direction) const {
  if (direction == coverage::InterfaceDirection::Outgoing) {
    return aggregate(components(Collection::OutgoingInterfaces, filter));
  }
  return coverage::collection_coverage(
      covered_, factory_.all_interfaces(filtered_devices(filter), direction), aggregate);
}

namespace {

/// Partial sweep results for one ingress port. Every worker count computes
/// the same per-ingress partials and folds them in ingress order, so the
/// final counts/ratios are bit-identical regardless of thread count.
struct IngressSweep {
  uint64_t total_paths = 0;
  uint64_t covered_paths = 0;
  double ratio_sum = 0.0;
};

/// What one ingress sweep reads: the engine's transfer and covered sets, or
/// a worker's clone of both.
struct SweepInputs {
  const dataplane::Transfer& transfer;
  const coverage::CoveredSets& covered;
};

/// A worker's private copy of the sweep's inputs (dataplane/clone_and_drain.hpp).
struct SweepClone {
  SweepClone(bdd::BddManager& mgr, const SweepInputs& from)
      : index(mgr, from.transfer.index()), transfer(index), covered(index, from.covered) {}
  [[nodiscard]] SweepInputs inputs() const { return {transfer, covered}; }

  dataplane::MatchSetIndex index;
  dataplane::Transfer transfer;
  coverage::CoveredSets covered;
};

/// Run the streamed DFS for one ingress port into `sweep`, which keeps the
/// paths emitted before a budget trips mid-ingress. Returns true when the
/// explorer cut a path short. `emitted_total` is the sweep-global path
/// counter enforcing `max_paths` across every ingress (and every worker).
bool sweep_ingress(const SweepInputs& in, const coverage::PathExplorerOptions& options,
                   uint64_t max_paths, const net::Interface& intf,
                   std::atomic<uint64_t>& emitted_total, IngressSweep& sweep) {
  const coverage::PathExplorer explorer(in.transfer, &in.covered, options);
  const packet::PacketSet all = packet::PacketSet::all(in.transfer.index().manager());
  bool cut_short = false;
  explorer.explore(intf.device, intf.id, all, [&](const coverage::ExploredPath& path) {
    ++sweep.total_paths;
    if (path.covered_ratio > 0.0) ++sweep.covered_paths;
    sweep.ratio_sum += path.covered_ratio;
    // The explorer marks paths it had to cut short when the cooperative
    // budget or the deadline tripped mid-DFS.
    if (path.end == coverage::PathEnd::BudgetExceeded) cut_short = true;
    const uint64_t emitted = emitted_total.fetch_add(1, std::memory_order_relaxed) + 1;
    return max_paths == 0 || emitted < max_paths;
  });
  return cut_short;
}

}  // namespace

PathCoverageResult CoverageEngine::path_coverage(double deadline_seconds,
                                                 uint64_t max_paths) const {
  obs::Span sweep_span("path_coverage.sweep", "offline");
  const auto sweep_start = ResourceBudget::Clock::now();
  PathCoverageResult result;
  result.truncated = truncated();  // steps 1-2 already degraded: Eq. 3 inputs partial
  coverage::PathExplorerOptions options;
  if (deadline_seconds > 0.0) {
    options.deadline = sweep_start + std::chrono::duration_cast<ResourceBudget::Clock::duration>(
                                         std::chrono::duration<double>(deadline_seconds));
    options.has_deadline = true;
  }

  // The sweep frontier: every edge ingress port, in network interface
  // order (the fold order that fixes the floating-point sums).
  std::vector<const net::Interface*> frontier;
  for (const net::Interface& intf : network_.interfaces()) {
    if (intf.kind == net::PortKind::HostPort || intf.kind == net::PortKind::ExternalPort) {
      frontier.push_back(&intf);
    }
  }

  std::vector<IngressSweep> sweeps(frontier.size());
  std::atomic<uint64_t> emitted_total{0};
  const dataplane::DrainResult drain = dataplane::clone_and_drain<SweepClone>(
      index_.manager(), SweepInputs{transfer_, covered_}, frontier.size(), threads_,
      [&] {
        return (options.has_deadline && ResourceBudget::Clock::now() >= options.deadline) ||
               (max_paths != 0 && emitted_total.load(std::memory_order_relaxed) >= max_paths);
      },
      [&](const SweepInputs& in, size_t i) {
        return sweep_ingress(in, options, max_paths, *frontier[i], emitted_total, sweeps[i]);
      });
  if (drain.truncated) result.truncated = true;

  // Deterministic fold in ingress order.
  for (const IngressSweep& s : sweeps) {
    result.total_paths += s.total_paths;
    result.covered_paths += s.covered_paths;
    result.mean += s.ratio_sum;
  }
  if (max_paths != 0 && result.total_paths >= max_paths) result.truncated = true;
  // A budget that tripped while the sweep ran leaves it partial, even when
  // no path was cut short.
  const ResourceBudget* budget = index_.manager().budget();
  if (budget != nullptr && budget->exhausted()) result.truncated = true;
  if (result.total_paths > 0) {
    result.fractional = static_cast<double>(result.covered_paths) /
                        static_cast<double>(result.total_paths);
    result.mean /= static_cast<double>(result.total_paths);
  }
  result.seconds =
      std::chrono::duration<double>(ResourceBudget::Clock::now() - sweep_start).count();
  sweep_span.arg("total_paths", result.total_paths);
  sweep_span.arg("covered_paths", result.covered_paths);
  sweep_span.arg("workers", drain.workers);
  sweep_span.arg("truncated", result.truncated ? 1 : 0);
  sample_engine_gauges(index_.manager());
  return result;
}

std::vector<net::RuleId> CoverageEngine::untested_rules(const DeviceFilter& filter) const {
  std::vector<net::RuleId> out;
  for (const net::Device& dev : network_.devices()) {
    if (filter && !filter(dev)) continue;
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network_.table(dev.id, table)) {
        if (rule_coverage(rid) == 0.0) out.push_back(rid);
      }
    }
  }
  return out;
}

std::vector<net::InterfaceId> CoverageEngine::untested_interfaces(
    const DeviceFilter& filter) const {
  std::vector<net::InterfaceId> out;
  for (const net::Device& dev : network_.devices()) {
    if (filter && !filter(dev)) continue;
    for (const net::InterfaceId intf : dev.interfaces) {
      if (measures_.interfaces[intf.value].value == 0.0) out.push_back(intf);
    }
  }
  return out;
}

MetricRow CoverageEngine::metrics(const DeviceFilter& filter) const {
  const std::vector<coverage::ComponentCoverage> rules = components(Collection::Rules, filter);
  MetricRow row;
  row.device_fractional =
      coverage::fractional_aggregator()(components(Collection::Devices, filter));
  row.interface_fractional =
      coverage::fractional_aggregator()(components(Collection::OutgoingInterfaces, filter));
  row.rule_fractional = coverage::fractional_aggregator()(rules);
  row.rule_weighted = coverage::weighted_average_aggregator()(rules);
  row.truncated = truncated();
  return row;
}

CoverageReport CoverageEngine::report() const {
  obs::Span span("analysis.report", "report");
  CoverageReport report;
  report.timings = timings_;
  report.truncated = truncated();
  report.overall = metrics();

  // Per-role breakdown in hierarchy order, only for roles that exist.
  for (const net::Role role :
       {net::Role::ToR, net::Role::Aggregation, net::Role::Spine,
        net::Role::RegionalHub, net::Role::Wan, net::Role::Other}) {
    const std::vector<net::DeviceId> members = network_.devices_with_role(role);
    if (members.empty()) continue;
    RoleBreakdown row;
    row.role = role;
    row.device_count = members.size();
    for (const net::DeviceId id : members) {
      row.interface_count += network_.device(id).interfaces.size();
      row.rule_count += network_.table(id, net::TableKind::Acl).size() +
                        network_.table(id, net::TableKind::Fib).size();
    }
    row.metrics = metrics(role_filter(role));
    report.by_role.push_back(row);
  }

  // Gap analysis: untested rules grouped by provenance (§7.2). Rules with
  // empty match sets are vacuous and count in neither column.
  std::map<net::RouteKind, RuleGap> gaps;
  for (const net::Rule& rule : network_.rules()) {
    const RuleMeasure& m = measures_.rules[rule.id.value];
    if (m.match == 0) continue;
    RuleGap& gap = gaps[rule.kind];
    gap.kind = rule.kind;
    ++gap.total;
    if (m.covered == 0) ++gap.untested;
  }
  for (const auto& [kind, gap] : gaps) report.gaps.push_back(gap);

  for (const coverage::ComponentCoverage& device : measures_.devices) {
    if (device.value == 0.0) ++report.untested_device_count;
  }
  report.untested_interface_count = untested_interfaces().size();
  return report;
}

}  // namespace yardstick::ys
