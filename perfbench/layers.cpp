// perfbench_layers — the benchmark's traced run (run.py --trace 1).
//
//   perfbench_layers OUT_DIR NAME -- <yardstick arguments>
//
// Makes, in this process, the public library calls the yardstick CLI makes
// for the given arguments, in the CLI's order and on the same inputs, and
// wraps each in its own obs::Span named "bench.<layer>...". The library
// records its own spans inside them (match_sets.build, covered_sets.build,
// parallel.worker, analysis.report, ...). This pass runs three times:
// traced, untraced, traced. Layer times come from the second traced pass,
// whose whole timeline the tracer holds; counts and memory figures come from
// the first, which runs in a fresh process as the CLI does; run.py derives
// obs.overhead_pct from the second traced pass and the untraced one.
//
// A layer the CLI invocation never calls (the scenario runner during a
// snapshot review, say) is then timed once on the same snapshot inside a
// "bench.probe" span, so every layer metric is a measurement on every
// workload; the table marks those values "probe".
//
// Writes OUT_DIR/NAME.output.json (the pass's output in the CLI's --json
// format, which run.py checks against the workload's digest),
// OUT_DIR/NAME.trace.json (Chrome trace of the last traced pass and the
// probes) and OUT_DIR/NAME.layers.txt (the per-layer table), and prints the
// layer metrics as one JSON object on the last line of stdout.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "packet/fields.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "workload.hpp"
#include "yardstick/json.hpp"
#include "yardstick/optimize.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
/// Metric values keyed by the names BENCHMARK.json lists.
using Values = std::map<std::string, double>;

constexpr double kMiB = 1024.0 * 1024.0;

/// Keeps results of work whose value nothing else reads observable.
volatile double g_sink = 0.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Resident set size of this process, from the kernel's accounting.
double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Peak resident set size of this process so far. A step's growth of it is
/// that step's contribution to the CLI's peak_rss_mb.
double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

uint64_t imported_nodes() { return obs::metrics().counter("ys.bdd.imported_nodes").value(); }

/// The CLI's suite for the workload (`build_suite` in tools/yardstick_cli.cpp).
nettest::TestSuite build_suite(const Workload& w, const routing::RoutingConfig& routing) {
  const std::unordered_set<net::DeviceId> excluded(routing.no_default_devices.begin(),
                                                   routing.no_default_devices.end());
  nettest::TestSuite suite(w.suite);
  const bool original = w.suite == "original" || w.suite == "final";
  const bool fresh = w.suite == "new" || w.suite == "final";
  if (w.suite == "fattree") {
    suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
    suite.add(std::make_unique<nettest::ToRContract>());
    suite.add(std::make_unique<nettest::ToRReachability>());
    suite.add(std::make_unique<nettest::ToRPingmesh>());
  }
  if (original) {
    suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
    suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  }
  if (fresh) {
    suite.add(std::make_unique<nettest::InternalRouteCheck>());
    suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  }
  if (w.acl) {
    suite.add(std::make_unique<nettest::AclBlockCheck>());
    suite.add(std::make_unique<nettest::BlockedPortCheck>());
  }
  if (w.transforms > 0) {
    suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
    suite.add(std::make_unique<nettest::NatTranslationCheck>());
  }
  return suite;
}

ys::EngineOptions engine_options(const Workload& w) {
  return ys::EngineOptions{nullptr, w.threads, "", 0.0};
}

// --- the CLI's calls, one span each ----------------------------------------

/// One FIB (re)computation: FibBuilder::compute_and_build split into its BGP
/// fixpoint and FIB build, then the post-FIB install.
void route(const Workload& w, Snapshot& s, const routing::RoutingConfig& config, Values& v) {
  std::vector<routing::SimRib> ribs;
  {
    obs::Span span("bench.routing.bgp", "bench");
    routing::BgpSimulator sim(*s.network, config);
    ribs = sim.run();
    v.try_emplace("routing.bgp_rounds", sim.rounds_used());
  }
  obs::Span span("bench.routing.fib", "bench");
  routing::FibBuilder::build(*s.network, ribs, config);
  install_post_fib_state(w, s, *s.network, config);
}

/// The snapshot set-up setup_s times: topology, BGP, FIB, post-FIB state.
std::unique_ptr<Snapshot> set_up(const Workload& w, Values& v) {
  obs::Span span("bench.setup", "bench");
  const double rss = rss_bytes();
  std::unique_ptr<Snapshot> s;
  {
    obs::Span topo_span("bench.topo", "bench");
    s = build_topology(w);
  }
  route(w, *s, *s->routing, v);
  const double rules = static_cast<double>(s->network->rule_count());
  v.try_emplace("routing.rules", rules);
  v.try_emplace("routing.bytes_per_rule", (rss_bytes() - rss) / rules);
  return s;
}

/// One evaluation's state, destroyed in the reverse of the CLI's build order.
struct Evaluation {
  bdd::BddManager mgr{packet::kNumHeaderBits};
  std::optional<dataplane::MatchSetIndex> index;
  std::optional<dataplane::Transfer> transfer;
  ys::CoverageTracker tracker;
  std::vector<nettest::TestResult> results;
  std::optional<ys::CoverageEngine> engine;
};

/// The serial match-set index the CLI builds for the online tests.
void build_index(Evaluation& ev, const net::Network& network, Values& v) {
  obs::Span span("bench.dataplane.index", "bench");
  ev.index.emplace(ev.mgr, network);
  ev.transfer.emplace(*ev.index);
  v.try_emplace("dataplane.index_nodes", static_cast<double>(ev.mgr.stats().arena_nodes));
}

void run_tests(Evaluation& ev, const nettest::TestSuite& suite, Values& v) {
  {
    obs::Span span("bench.nettest.run", "bench");
    ev.results = suite.run_all(*ev.transfer, ev.tracker);
  }
  size_t checks = 0;
  for (const nettest::TestResult& r : ev.results) checks += r.checks;
  const coverage::CoverageTrace& trace = ev.tracker.trace();
  v.try_emplace("nettest.checks", static_cast<double>(checks));
  v.try_emplace("nettest.trace_rules", static_cast<double>(trace.marked_rules().size()));
  v.try_emplace("nettest.trace_locations",
                static_cast<double>(trace.marked_packets().location_count()));
}

/// Offline steps 1-2 (the paper's measured phase).
void build_engine(const Workload& w, const net::Network& network, Evaluation& ev, Values& v) {
  const uint64_t imported = imported_nodes();
  const double peak = peak_rss_bytes();
  {
    obs::Span span("bench.engine", "bench");
    ev.engine.emplace(ev.mgr, network, ev.tracker.trace(), engine_options(w));
  }
  const bdd::BddManager::Stats stats = ev.mgr.stats();
  v.try_emplace("engine.rss_mb", (peak_rss_bytes() - peak) / kMiB);
  v.try_emplace("bdd.arena_nodes", static_cast<double>(stats.arena_nodes));
  v.try_emplace("bdd.cache_hit_rate", stats.cache_hit_rate());
  v.try_emplace("bdd.imported_nodes", static_cast<double>(imported_nodes() - imported));
}

/// Step 3 of a snapshot review.
ys::CoverageReport report_step(const ys::CoverageEngine& engine, Values& v) {
  const double peak = peak_rss_bytes();
  obs::Span span("bench.report.report", "bench");
  ys::CoverageReport report = engine.report();
  v.try_emplace("report.rss_mb", (peak_rss_bytes() - peak) / kMiB);
  return report;
}

/// Step 3 of a scenario evaluation: metrics() plus the per-rule loop that
/// feeds the runner's baseline diff (its content keys stay in the runner).
void metrics_step(const ys::CoverageEngine& engine, const net::Network& network, Values& v) {
  const double peak = peak_rss_bytes();
  obs::Span span("bench.report.metrics", "bench");
  double sum = engine.metrics().rule_fractional;
  bdd::Uint128 atus = 0;
  for (const net::Device& dev : network.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(dev.id, table)) {
        sum += engine.rule_coverage(rid);
        atus += engine.covered_sets().covered_size(rid);
      }
    }
  }
  g_sink = sum + bdd::to_double(atus);
  v.try_emplace("report.rss_mb", (peak_rss_bytes() - peak) / kMiB);
}

/// `yardstick scenarios`: a replay of every evaluation the runner makes,
/// one span per layer, then the runner itself. What the replay does not
/// cover (content keys and the baseline diff) is the runner's self time.
/// The replay goes first so that, in a fresh process, its memory figures
/// are first-touch as in the CLI.
scenario::ScenarioReport scenario_layer(const Workload& w, Snapshot& s,
                                        const nettest::TestSuite& suite,
                                        const scenario::ScenarioSpec& spec, Values& v) {
  obs::Span layer("bench.scenario", "bench");
  std::vector<routing::RoutingConfig> configs{*s.routing};
  for (const scenario::Scenario& sc : spec.scenarios) {
    const scenario::ResolvedScenario resolved = scenario::resolve(sc, *s.network);
    routing::RoutingConfig config = *s.routing;
    config.failed_devices.insert(resolved.devices.begin(), resolved.devices.end());
    config.failed_links.insert(resolved.links.begin(), resolved.links.end());
    configs.push_back(std::move(config));
  }
  for (const routing::RoutingConfig& config : configs) {
    obs::Span span("bench.scenario.eval", "bench");
    route(w, s, config, v);
    Evaluation ev;
    build_index(ev, *s.network, v);
    run_tests(ev, suite, v);
    build_engine(w, *s.network, ev, v);
    metrics_step(*ev.engine, *s.network, v);
  }
  {
    obs::Span span("bench.scenario.restore", "bench");
    route(w, s, *s.routing, v);
  }
  scenario::ScenarioReport report;
  {
    obs::Span span("bench.scenario.run", "bench");
    span.arg("evaluations", spec.scenarios.size() + 1);
    scenario::ScenarioRunnerOptions options;
    options.engine = engine_options(w);
    scenario::ScenarioRunner runner(*s.network, *s.routing, suite, options);
    runner.set_post_fib_hook(
        [&w, &s](net::Network& network, const routing::RoutingConfig& config) {
          install_post_fib_state(w, s, network, config);
        });
    report = runner.run(spec);
  }
  size_t lost = 0;
  bdd::Uint128 atus = 0;
  for (const scenario::ScenarioDiff& d : report.scenarios) {
    lost += d.rules_lost;
    atus += d.unreachable_atus;
  }
  v.try_emplace("scenario.rules_lost", static_cast<double>(lost));
  v.try_emplace("scenario.unreachable_atus", bdd::to_double(atus));
  return report;
}

struct Optimized {
  ys::SuiteCoverageMatrix matrix;
  std::optional<ys::MinimizeResult> minimized;
  std::optional<ys::GapReport> gaps;
};

/// `yardstick optimize` after its index: the isolated per-test matrix, the
/// merged run and engine, minimization with its subset recompute, and the
/// gap report.
Optimized optimize_layer(const Workload& w, const net::Network& network,
                         const nettest::TestSuite& suite, Evaluation& ev, Values& v) {
  obs::Span layer("bench.optimize", "bench");
  Optimized o;
  {
    obs::Span span("bench.optimize.matrix", "bench");
    o.matrix = ys::build_suite_matrix(*ev.transfer, suite, nullptr, w.threads);
  }
  run_tests(ev, suite, v);
  build_engine(w, network, ev, v);
  if (w.minimize) {
    {
      obs::Span span("bench.optimize.minimize", "bench");
      o.minimized = ys::minimize_suite(o.matrix);
    }
    obs::Span span("bench.optimize.subset", "bench");
    ys::CoverageTracker subset_tracker;
    for (const ys::SelectedTest& t : o.minimized->selected) {
      (void)suite.test(t.index).run(*ev.transfer, subset_tracker);
    }
    const ys::CoverageEngine subset(ev.mgr, network, subset_tracker.trace(), engine_options(w));
    o.minimized->recomputed_full = ev.engine->metrics().rule_fractional;
    o.minimized->recomputed_subset = subset.metrics().rule_fractional;
    v.try_emplace("optimize.kept_tests", static_cast<double>(o.minimized->selected.size()));
  }
  if (w.gap_report) {
    obs::Span span("bench.optimize.gap_report", "bench");
    o.gaps = ys::build_gap_report(*ev.engine);
    v.try_emplace("optimize.uncovered_rules", static_cast<double>(o.gaps->uncovered_rules));
  }
  return o;
}

/// One pass: set-up, then the CLI's calls for the workload's mode. Returns
/// what the CLI prints with --json for the same arguments.
std::string pass(const Workload& w, Values& v) {
  obs::Span root("bench.pass", "bench");
  const std::unique_ptr<Snapshot> s = set_up(w, v);
  const nettest::TestSuite suite = build_suite(w, *s->routing);
  std::string out;
  if (w.mode == "scenarios") {
    const scenario::ScenarioReport report =
        scenario_layer(w, *s, suite, scenario::ScenarioSpec::load(w.scenario_spec), v);
    obs::Span span("bench.report.render", "bench");
    out = scenario::report_to_json(report) + "\n";
  } else if (w.mode == "optimize") {
    Evaluation ev;
    build_index(ev, *s->network, v);
    const Optimized o = optimize_layer(w, *s->network, suite, ev, v);
    obs::Span span("bench.report.render", "bench");
    out = ys::optimize_to_json(o.matrix, o.minimized ? &*o.minimized : nullptr, nullptr,
                               o.gaps ? &*o.gaps : nullptr) +
          "\n";
  } else {
    Evaluation ev;
    build_index(ev, *s->network, v);
    run_tests(ev, suite, v);
    {
      obs::Span span("bench.report.render", "bench");
      out = "{\"tests\":" + ys::results_to_json(ev.results) + ",";
    }
    // The CLI scopes the serial index to its online stage.
    ev.transfer.reset();
    ev.index.reset();
    build_engine(w, *s->network, ev, v);
    const ys::CoverageReport report = report_step(*ev.engine, v);
    obs::Span span("bench.report.render", "bench");
    out += "\"coverage\":" + ys::report_to_json(report) + "}\n";
  }
  return out;
}

/// Times, once, each layer the pass did not call, on the same snapshot.
void probe(const Workload& w, const Values& have, Values& v) {
  obs::Span root("bench.probe", "bench");
  const std::unique_ptr<Snapshot> s = set_up(w, v);
  const nettest::TestSuite suite = build_suite(w, *s->routing);
  if (!have.contains("scenario.eval_s")) {
    // A sweep of zero scenarios: the runner's baseline evaluation alone.
    (void)scenario_layer(w, *s, suite, scenario::ScenarioSpec{}, v);
  }
  const bool optimize = !have.contains("optimize.matrix_s");
  const bool report = !have.contains("report.report_s");
  const bool metrics = !have.contains("report.metrics_s");
  if (!optimize && !report && !metrics) return;
  Evaluation ev;
  build_index(ev, *s->network, v);
  if (optimize) {
    Workload all = w;
    all.minimize = true;
    all.gap_report = true;
    (void)optimize_layer(all, *s->network, suite, ev, v);
  } else {
    run_tests(ev, suite, v);
    build_engine(w, *s->network, ev, v);
  }
  if (metrics) metrics_step(*ev.engine, *s->network, v);
  if (report) (void)report_step(*ev.engine, v);
}

// --- reading the spans back ------------------------------------------------

/// The spans of one traced run, with the containment queries the layer
/// metrics need. Nesting is by time: a span lies inside another when its
/// interval does, whatever thread recorded it.
class Spans {
 public:
  explicit Spans(std::vector<obs::TraceEvent> events) : events_(std::move(events)) {}

  [[nodiscard]] static double seconds(const obs::TraceEvent& e) {
    return static_cast<double>(e.dur_us) * 1e-6;
  }

  [[nodiscard]] static uint64_t arg(const obs::TraceEvent& e, std::string_view key) {
    for (int i = 0; i < e.num_args; ++i) {
      if (key == e.args[i].key) return e.args[i].value;
    }
    return 0;
  }

  /// Spans called `name` inside `parent` (anywhere when null).
  [[nodiscard]] std::vector<const obs::TraceEvent*> find(
      std::string_view name, const obs::TraceEvent* parent = nullptr) const {
    std::vector<const obs::TraceEvent*> out;
    for (const obs::TraceEvent& e : events_) {
      if (&e == parent || e.name == nullptr || name != e.name) continue;
      if (parent == nullptr || inside(e, *parent)) out.push_back(&e);
    }
    return out;
  }

  [[nodiscard]] double total(std::string_view name, const obs::TraceEvent* parent) const {
    double sum = 0.0;
    for (const obs::TraceEvent* e : find(name, parent)) sum += seconds(*e);
    return sum;
  }

  /// The span's duration minus the time spans nested in it on the same
  /// thread cover.
  [[nodiscard]] double self(const obs::TraceEvent& e) const {
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    for (const obs::TraceEvent& c : events_) {
      if (&c != &e && c.tid == e.tid && inside(c, e) && c.dur_us < e.dur_us) {
        covered.emplace_back(c.ts_us, end(c));
      }
    }
    std::sort(covered.begin(), covered.end());
    uint64_t busy = 0, reach = e.ts_us;
    for (const auto& [from, to] : covered) {
      if (to <= reach) continue;
      busy += to - std::max(from, reach);
      reach = to;
    }
    return static_cast<double>(e.dur_us - std::min(busy, e.dur_us)) * 1e-6;
  }

  /// Fork-join idle time of a parallel phase: its workers times the window
  /// its parallel.worker spans cover, minus the time they were busy.
  [[nodiscard]] double fork_join_wait(const obs::TraceEvent& phase) const {
    const std::vector<const obs::TraceEvent*> workers = find("parallel.worker", &phase);
    if (workers.size() < 2) return 0.0;
    uint64_t first = UINT64_MAX, last = 0, busy = 0;
    for (const obs::TraceEvent* w : workers) {
      first = std::min(first, w->ts_us);
      last = std::max(last, end(*w));
      busy += w->dur_us;
    }
    const double window = static_cast<double>(last - first) * workers.size();
    return std::max(0.0, window - static_cast<double>(busy)) * 1e-6;
  }

  /// Time the phase's worker threads sit finished while it still runs: per
  /// thread other than the phase's own, from its last span to the phase's end.
  [[nodiscard]] double tail_wait(const obs::TraceEvent& phase) const {
    std::map<uint32_t, uint64_t> last_end;
    for (const obs::TraceEvent& e : events_) {
      if (e.tid != phase.tid && inside(e, phase)) {
        uint64_t& t = last_end[e.tid];
        t = std::max(t, end(e));
      }
    }
    double wait = 0.0;
    for (const auto& [tid, t] : last_end) wait += static_cast<double>(end(phase) - t) * 1e-6;
    return wait;
  }

  [[nodiscard]] const std::vector<obs::TraceEvent>& events() const { return events_; }

  [[nodiscard]] static uint64_t end(const obs::TraceEvent& e) { return e.ts_us + e.dur_us; }
  [[nodiscard]] static bool inside(const obs::TraceEvent& c, const obs::TraceEvent& p) {
    return c.ts_us >= p.ts_us && end(c) <= end(p);
  }

 private:
  std::vector<obs::TraceEvent> events_;
};

/// Layer times of the spans inside `root`. A metric whose layer did not run
/// there is absent.
Values layer_times(const Spans& sp, const obs::TraceEvent& root) {
  Values m;
  const auto mean = [&](const char* key, std::string_view name, const auto& value) {
    const std::vector<const obs::TraceEvent*> spans = sp.find(name, &root);
    if (spans.empty()) return;
    double sum = 0.0;
    for (const obs::TraceEvent* e : spans) sum += value(*e);
    m[key] = sum / static_cast<double>(spans.size());
  };
  const auto own = [](const obs::TraceEvent& e) { return Spans::seconds(e); };
  const auto nested = [&sp](std::string_view name) {
    return [&sp, name](const obs::TraceEvent& e) { return sp.total(name, &e); };
  };
  mean("routing.bgp_s", "bench.setup", nested("bench.routing.bgp"));
  mean("routing.fib_s", "bench.setup", nested("bench.routing.fib"));
  mean("dataplane.index_s", "bench.dataplane.index", own);
  mean("nettest.run_s", "bench.nettest.run", own);
  mean("engine.match_sets_s", "bench.engine", nested("match_sets.build"));
  mean("engine.covered_sets_s", "bench.engine", nested("covered_sets.build"));
  mean("engine.merge_s", "bench.engine", [&](const obs::TraceEvent& e) {
    return sp.total("match_sets.merge", &e) + sp.total("covered_sets.merge", &e);
  });
  mean("engine.worker_wait_s", "bench.engine", [&](const obs::TraceEvent& e) {
    double wait = 0.0;
    for (const char* phase : {"match_sets.build", "covered_sets.build"}) {
      for (const obs::TraceEvent* p : sp.find(phase, &e)) wait += sp.fork_join_wait(*p);
    }
    return wait;
  });
  mean("report.report_s", "bench.report.report", own);
  mean("report.metrics_s", "bench.report.metrics", own);
  if (!sp.find("bench.report.render", &root).empty()) {
    m["report.render_s"] = sp.total("bench.report.render", &root);
  }
  for (const obs::TraceEvent* layer : sp.find("bench.scenario", &root)) {
    const std::vector<const obs::TraceEvent*> run = sp.find("bench.scenario.run", layer);
    const std::vector<const obs::TraceEvent*> evals = sp.find("bench.scenario.eval", layer);
    if (run.empty() || evals.empty()) continue;
    const double n = static_cast<double>(Spans::arg(*run.front(), "evaluations"));
    double replayed = sp.total("bench.scenario.restore", layer), routing = 0.0;
    for (const obs::TraceEvent* e : evals) {
      replayed += Spans::seconds(*e);
      routing += sp.total("bench.routing.bgp", e) + sp.total("bench.routing.fib", e);
    }
    m["scenario.eval_s"] = Spans::seconds(*run.front()) / n;
    m["scenario.routing_s"] = routing / static_cast<double>(evals.size());
    m["scenario.self_s"] = (Spans::seconds(*run.front()) - replayed) / n;
    break;
  }
  for (const obs::TraceEvent* layer : sp.find("bench.optimize", &root)) {
    for (const obs::TraceEvent* matrix : sp.find("bench.optimize.matrix", layer)) {
      m["optimize.matrix_s"] = Spans::seconds(*matrix);
      m["optimize.matrix_wait_s"] = sp.tail_wait(*matrix);
    }
    if (!sp.find("bench.optimize.subset", layer).empty()) {
      m["optimize.rerun_s"] =
          sp.total("bench.nettest.run", layer) + sp.total("bench.optimize.subset", layer);
    }
    if (!sp.find("bench.optimize.gap_report", layer).empty()) {
      m["optimize.gap_report_s"] = sp.total("bench.optimize.gap_report", layer);
    }
    break;
  }
  m["obs.unattributed_s"] = sp.self(root);
  return m;
}

/// Per span name inside `root`: calls, busy time, self time, and wait time
/// (fork-join idle for the engine's parallel phases, idle workers for the
/// suite matrix).
std::string span_table(const Spans& sp, const obs::TraceEvent& root) {
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> rows;  // calls, busy, self, wait
  for (const obs::TraceEvent& e : sp.events()) {
    if (&e != &root && !Spans::inside(e, root)) continue;
    auto [it, fresh] = rows.try_emplace(e.name, std::vector<double>(4, 0.0));
    if (fresh) order.push_back(e.name);
    std::vector<double>& r = it->second;
    r[0] += 1.0;
    r[1] += Spans::seconds(e);
    r[2] += sp.self(e);
    const std::string_view name = e.name;
    if (name == "match_sets.build" || name == "covered_sets.build") r[3] += sp.fork_join_wait(e);
    if (name == "bench.optimize.matrix") r[3] += sp.tail_wait(e);
  }
  std::string out = "span                          calls     busy_s     self_s     wait_s\n";
  char line[160];
  for (const std::string& name : order) {
    const std::vector<double>& r = rows[name];
    std::snprintf(line, sizeof(line), "%-28s %6.0f %10.6f %10.6f %10.6f\n", name.c_str(),
                  r[0], r[1], r[2], r[3]);
    out += line;
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

int traced_run(const std::string& dir, const std::string& name, const Workload& w) {
  obs::Tracer& tracer = obs::Tracer::global();
  obs::set_enabled(true);
  Values values;
  const std::string output = pass(w, values);

  obs::set_enabled(false);
  tracer.clear();
  Values unused;
  auto start = Clock::now();
  (void)pass(w, unused);
  const double untraced_s = seconds_since(start);

  obs::set_enabled(true);
  tracer.clear();
  start = Clock::now();
  (void)pass(w, unused);
  const double traced_s = seconds_since(start);

  const Spans timeline(tracer.snapshot());
  const std::vector<const obs::TraceEvent*> roots = timeline.find("bench.pass");
  if (roots.size() != 1) throw std::runtime_error("expected one bench.pass span");
  Values metrics = layer_times(timeline, *roots.front());
  for (const auto& [key, value] : values) metrics.try_emplace(key, value);

  Values probe_values;
  probe(w, metrics, probe_values);
  const Spans all(tracer.snapshot());
  const std::vector<const obs::TraceEvent*> probes = all.find("bench.probe");
  std::set<std::string> probed;
  if (!probes.empty()) {
    Values from_probe = layer_times(all, *probes.front());
    from_probe.erase("obs.unattributed_s");
    from_probe.insert(probe_values.begin(), probe_values.end());
    for (const auto& [key, value] : from_probe) {
      if (metrics.try_emplace(key, value).second) probed.insert(key);
    }
  }
  if (tracer.dropped_count() != 0) {
    std::fprintf(stderr, "warning: the tracer dropped %llu spans\n",
                 static_cast<unsigned long long>(tracer.dropped_count()));
  }

  const obs::TraceEvent& root = *roots.front();
  std::string table = "per-layer table: " + name + " (threads " + std::to_string(w.threads) +
                      ")\n\ntraced pass:\n" + span_table(timeline, root);
  if (!probes.empty()) table += "\nprobes (layers the CLI invocation never calls):\n" +
                                span_table(all, *probes.front());
  char line[160];
  std::snprintf(line, sizeof(line),
                "\ntraced pass %.6f s, untraced pass %.6f s; %.6f s of the traced pass "
                "in no named layer\n\nmetric                              value  source\n",
                Spans::seconds(root), untraced_s, metrics["obs.unattributed_s"]);
  table += line;
  std::string json = "{\"traced_s\":" + std::to_string(traced_s) +
                     ",\"untraced_s\":" + std::to_string(untraced_s) + ",\"metrics\":{";
  bool comma = false;
  for (const auto& [key, value] : metrics) {
    const bool from_probe = probed.contains(key);
    std::snprintf(line, sizeof(line), "%-28s %14.6f  %s\n", key.c_str(), value,
                  from_probe ? "probe" : "pass");
    table += line;
    std::snprintf(line, sizeof(line), "%s\"%s\":%.9g", comma ? "," : "", key.c_str(), value);
    json += line;
    comma = true;
  }
  json += "},\"probed\":[";
  comma = false;
  for (const std::string& key : probed) {
    json += (comma ? ",\"" : "\"") + key + "\"";
    comma = true;
  }
  json += "]}";

  write_file(dir + "/" + name + ".output.json", output);
  write_file(dir + "/" + name + ".trace.json", tracer.to_chrome_json());
  write_file(dir + "/" + name + ".layers.txt", table);
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    int dash = 0;
    const perfbench::Workload w =
        perfbench::parse_workload(perfbench::workload_args(argc, argv, dash));
    if (dash != 3) {
      std::fprintf(stderr, "usage: %s OUT_DIR NAME -- <yardstick arguments>\n", argv[0]);
      return 2;
    }
    return perfbench::traced_run(argv[1], argv[2], w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
