// yardstick — command-line front end.
//
// Builds a synthetic topology (fat-tree or multi-DC regional network),
// computes its forwarding state with the eBGP substrate, runs a test
// suite with coverage tracking, and prints the coverage report.
//
//   yardstick fattree --k 8 --suite fattree --paths
//   yardstick regional --suite original --json
//   yardstick regional --suite final --acl --save-trace trace.txt
//   yardstick regional --load-trace trace.txt
//
// Daemon mode (yardstickd, the fault-tolerant online phase):
//   yardstick serve --socket /run/ys.sock --wal ys.wal --snapshot ys.trace
//   yardstick ingest fattree --k 8 --socket /run/ys.sock --session 1
//   yardstick ingest-replay --wal ys.wal --save-trace recovered.trace
//
// Exit codes map the error taxonomy so scripts can dispatch on failures:
//   0 all tests passed          4 corrupt trace file
//   1 test failures             5 I/O error
//   2 usage error               6 resource budget exceeded
//   3 invalid input             7 cancelled
//                              10 internal error
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "netio/network_format.hpp"
#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "routing/fib_builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/signal.hpp"
#include "yardstick/analysis.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/optimize.hpp"
#include "yardstick/json.hpp"
#include "yardstick/persist.hpp"

using namespace yardstick;

namespace {

// --- strict numeric flag parsing ----------------------------------------
//
// atoi/atof silently turn garbage into 0 and saturate nothing: "--port
// 70000" used to pass a `> 0` check and wrap through a uint16_t cast to
// port 4464. Every numeric flag goes through these instead: the whole
// token must parse, and the value must sit inside the flag's range —
// anything else is a usage error (exit 2), never a silent reinterpretation.

/// Parse a complete base-10 integer token. Rejects empty strings, trailing
/// garbage ("5x"), and values outside long long.
bool parse_i64(const char* s, long long& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(s, &end, 10);
  return errno == 0 && end != s && *end == '\0';
}

/// Parse a complete finite floating-point token.
bool parse_f64(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(s, &end);
  return errno == 0 && end != s && *end == '\0' && std::isfinite(out);
}

/// Integer token constrained to [lo, hi].
bool parse_range(const char* s, long long lo, long long hi, long long& out) {
  return parse_i64(s, out) && out >= lo && out <= hi;
}

/// TCP port: 1..65535, no wrapping.
bool parse_port(const char* s, uint16_t& out) {
  long long v = 0;
  if (!parse_range(s, 1, 65535, v)) return false;
  out = static_cast<uint16_t>(v);
  return true;
}

struct CliOptions {
  std::string topology;       // "fattree" | "regional" | "file"
  std::string network_file;   // for topology == "file"
  int k = 4;
  topo::RegionalParams regional;
  std::string suite = "final";
  bool with_acl = false;
  bool json = false;
  bool paths = false;
  double path_budget_s = 60.0;
  bool analyze = false;
  size_t suggest = 0;
  std::optional<std::string> save_trace;
  std::optional<std::string> load_trace;
  double deadline_s = 0.0;       // 0 = unlimited
  size_t max_bdd_nodes = 0;      // 0 = unlimited
  unsigned threads = 0;          // offline-phase workers; 0 = all hardware threads
  double gc_threshold = 0.0;     // shard-manager GC dead-fraction trigger; 0 = off
  std::string cache_dir;         // incremental result cache; empty = off
  std::optional<std::string> trace_out;    // Chrome trace-event JSON
  std::optional<std::string> metrics_out;  // metrics JSON (+ FILE.prom)
  int transforms = 0;            // tunnels + NAT rules per WAN (regional only)
  // Scenario mode (the `scenarios` subcommand):
  std::string scenario_spec;     // spec file; mutually exclusive with random_links
  int random_links = 0;          // generate N random link-down scenarios
  uint64_t scenario_seed = 1;    // PRNG seed for --random-links
  int links_per_scenario = 1;    // failed links per random scenario
  // Optimize mode (the `optimize` subcommand):
  bool minimize = false;         // greedy set-cover suite minimization
  bool prioritize = false;       // cost-aware ordering + coverage/cost curve
  bool gap_report = false;       // exhaustive gap witnesses
  double min_coverage = 1.0;     // minimization slack knob (fraction of full)
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <fattree|regional|file PATH> [options]\n"
               "  --k N                fat-tree arity (default 4)\n"
               "  --datacenters N      regional: datacenter count\n"
               "  --pods N             regional: pods per datacenter\n"
               "  --tors N             regional: ToRs per pod\n"
               "  --suite NAME         original|new|final|fattree (default final)\n"
               "  --acl                install ToR ingress ACLs and ACL tests\n"
               "  --json               JSON output\n"
               "  --paths [SECONDS]    also compute path coverage (budget)\n"
               "  --analyze            per-test contributions + redundancy\n"
               "  --suggest N          synthesize probes for N untested rules\n"
               "  --save-trace FILE    persist the coverage trace\n"
               "  --load-trace FILE    skip testing; compute metrics from FILE\n"
               "  --deadline SECONDS   overall wall-clock budget (partial results)\n"
               "  --max-bdd-nodes N    cap BDD arena size (partial results)\n"
               "  --threads N          offline-phase worker threads (default: all\n"
               "                       hardware threads; results are identical)\n"
               "  --gc-threshold F     collect shard BDD arenas when the dead fraction\n"
               "                       may exceed F in (0,1] (default off; results are\n"
               "                       identical, peak memory shrinks)\n"
               "  --incremental        cache offline-phase results in .yardstick-cache\n"
               "                       and recompute only what changed (bit-identical)\n"
               "  --cache-dir DIR      like --incremental, with an explicit cache directory\n"
               "  --trace-out FILE     write a Chrome trace-event JSON span timeline\n"
               "                       (open in about:tracing or ui.perfetto.dev)\n"
               "  --metrics-out FILE   write engine metrics as JSON to FILE and\n"
               "                       Prometheus text exposition to FILE.prom\n"
               "  --transforms N       regional: N tunnels (VIP encap/decap across ToRs)\n"
               "                       and N NAT rules per WAN, plus their checks\n"
               "Scenario mode (coverage under failure, DESIGN.md §13):\n"
               "  %s scenarios <topology> [options] --scenario-spec FILE\n"
               "  %s scenarios <topology> [options] --random-links N [--seed S]\n"
               "  --scenario-spec FILE named device/link failure sets (see DESIGN.md)\n"
               "  --random-links N     N seeded random link-down scenarios instead\n"
               "  --seed S             PRNG seed for --random-links (default 1)\n"
               "  --links-per-scenario L  failed links per random scenario (default 1)\n"
               "Optimize mode (suite minimization / prioritization / gap witnesses,\n"
               "DESIGN.md §14):\n"
               "  %s optimize <topology> [options] --minimize [--min-coverage F]\n"
               "  %s optimize <topology> [options] --prioritize --gap-report --json\n"
               "  --minimize           smallest subset preserving full-suite coverage\n"
               "  --min-coverage F     keep >= F of the full suite's fractional rule\n"
               "                       coverage, F in (0,1] (default 1.0 = exact)\n"
               "  --prioritize         marginal-coverage-per-second order + cost curve\n"
               "  --gap-report         witness packet (or state-only marker) for every\n"
               "                       uncovered rule, grouped by device\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

std::optional<CliOptions> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  CliOptions opts;
  opts.topology = argv[1];
  int first_option = 2;
  if (opts.topology == "file") {
    if (argc < 3) return std::nullopt;
    opts.network_file = argv[2];
    first_option = 3;
  } else if (opts.topology != "fattree" && opts.topology != "regional") {
    return std::nullopt;
  }

  for (int i = first_option; i < argc; ++i) {
    const std::string arg = argv[i];
    // Positive int / positive size flag values, strictly parsed.
    const auto next_int = [&](int& out) {
      long long v = 0;
      if (i + 1 >= argc || !parse_range(argv[++i], 1, INT_MAX, v)) return false;
      out = static_cast<int>(v);
      return true;
    };
    const auto next_size = [&](size_t& out) {
      long long v = 0;
      if (i + 1 >= argc || !parse_range(argv[++i], 1, LLONG_MAX, v)) return false;
      out = static_cast<size_t>(v);
      return true;
    };
    if (arg == "--k") {
      if (!next_int(opts.k)) return std::nullopt;
    } else if (arg == "--datacenters") {
      if (!next_int(opts.regional.datacenters)) return std::nullopt;
    } else if (arg == "--pods") {
      if (!next_int(opts.regional.pods_per_dc)) return std::nullopt;
    } else if (arg == "--tors") {
      if (!next_int(opts.regional.tors_per_pod)) return std::nullopt;
    } else if (arg == "--suite") {
      if (i + 1 >= argc) return std::nullopt;
      opts.suite = argv[++i];
    } else if (arg == "--acl") {
      opts.with_acl = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--paths") {
      opts.paths = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        if (!parse_f64(argv[++i], opts.path_budget_s) || opts.path_budget_s <= 0.0) {
          return std::nullopt;
        }
      }
    } else if (arg == "--analyze") {
      opts.analyze = true;
    } else if (arg == "--suggest") {
      if (!next_size(opts.suggest)) return std::nullopt;
    } else if (arg == "--save-trace") {
      if (i + 1 >= argc) return std::nullopt;
      opts.save_trace = argv[++i];
    } else if (arg == "--load-trace") {
      if (i + 1 >= argc) return std::nullopt;
      opts.load_trace = argv[++i];
    } else if (arg == "--deadline") {
      if (i + 1 >= argc || !parse_f64(argv[++i], opts.deadline_s) ||
          opts.deadline_s <= 0.0) {
        return std::nullopt;
      }
    } else if (arg == "--max-bdd-nodes") {
      if (!next_size(opts.max_bdd_nodes)) return std::nullopt;
    } else if (arg == "--threads") {
      int n = 0;
      if (!next_int(n)) return std::nullopt;
      opts.threads = static_cast<unsigned>(n);
    } else if (arg == "--gc-threshold") {
      if (i + 1 >= argc || !parse_f64(argv[++i], opts.gc_threshold) ||
          opts.gc_threshold <= 0.0 || opts.gc_threshold > 1.0) {
        return std::nullopt;
      }
    } else if (arg == "--incremental") {
      if (opts.cache_dir.empty()) opts.cache_dir = ".yardstick-cache";
    } else if (arg == "--cache-dir") {
      if (i + 1 >= argc) return std::nullopt;
      opts.cache_dir = argv[++i];
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) return std::nullopt;
      opts.trace_out = argv[++i];
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) return std::nullopt;
      opts.metrics_out = argv[++i];
    } else if (arg == "--transforms") {
      if (!next_int(opts.transforms)) return std::nullopt;
    } else if (arg == "--scenario-spec") {
      if (i + 1 >= argc) return std::nullopt;
      opts.scenario_spec = argv[++i];
    } else if (arg == "--random-links") {
      if (!next_int(opts.random_links)) return std::nullopt;
    } else if (arg == "--seed") {
      long long v = 0;
      if (i + 1 >= argc || !parse_range(argv[++i], 0, LLONG_MAX, v)) return std::nullopt;
      opts.scenario_seed = static_cast<uint64_t>(v);
    } else if (arg == "--links-per-scenario") {
      if (!next_int(opts.links_per_scenario)) return std::nullopt;
    } else if (arg == "--minimize") {
      opts.minimize = true;
    } else if (arg == "--prioritize") {
      opts.prioritize = true;
    } else if (arg == "--gap-report") {
      opts.gap_report = true;
    } else if (arg == "--min-coverage") {
      if (i + 1 >= argc || !parse_f64(argv[++i], opts.min_coverage) ||
          opts.min_coverage <= 0.0 || opts.min_coverage > 1.0) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
  }
  return opts;
}

/// Topology + routing config + optional transform plan, built from the CLI
/// options. Out-parameter style: the struct holds both the storage and the
/// interior pointers, so it must not be moved after building.
struct BuiltTopology {
  net::Network* network = nullptr;
  routing::RoutingConfig* routing = nullptr;
  std::vector<net::DeviceId> tors;
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  netio::LoadedNetwork from_file;
  bool state_loaded = false;
  topo::TransformState transforms;
};

void build_topology(const CliOptions& opts, BuiltTopology& t) {
  if (opts.topology == "fattree") {
    t.fattree = topo::make_fat_tree({.k = opts.k});
    t.network = &t.fattree.network;
    t.routing = &t.fattree.routing;
    t.tors = t.fattree.tors;
  } else if (opts.topology == "regional") {
    t.regional = topo::make_regional(opts.regional);
    t.network = &t.regional.network;
    t.routing = &t.regional.routing;
    t.tors = t.regional.tors;
  } else {
    t.from_file = netio::load_network_file(opts.network_file);
    t.network = &t.from_file.network;
    t.routing = &t.from_file.routing;
    t.tors = t.network->devices_with_role(net::Role::ToR);
    t.state_loaded = t.from_file.has_forwarding_state;
  }
  if (opts.transforms > 0) {
    if (opts.topology != "regional") {
      throw ys::InvalidInputError("--transforms requires the regional topology");
    }
    // Must run before FIB computation: tunnel endpoints are BGP-originated.
    t.transforms = topo::plan_transforms(
        t.regional, {.tunnels = opts.transforms, .nat_rules_per_wan = opts.transforms});
  }
}

/// Post-FIB state (ingress ACLs, transform rules) — everything that
/// FibBuilder::build wipes and that must be reinstalled per FIB rebuild.
void install_post_fib_state(const CliOptions& opts, const BuiltTopology& t,
                            net::Network& network,
                            const routing::RoutingConfig& routing) {
  if (opts.with_acl) {
    std::vector<net::DeviceId> alive;
    alive.reserve(t.tors.size());
    for (const net::DeviceId tor : t.tors) {
      if (!routing.failed_devices.contains(tor)) alive.push_back(tor);
    }
    topo::install_ingress_acls(network, alive);
  }
  if (!t.transforms.empty()) {
    topo::install_transform_rules(network, t.transforms, routing);
  }
}

nettest::TestSuite build_suite(const CliOptions& opts,
                               const std::unordered_set<net::DeviceId>& excluded) {
  nettest::TestSuite suite(opts.suite);
  const bool original = opts.suite == "original" || opts.suite == "final";
  const bool fresh = opts.suite == "new" || opts.suite == "final";
  if (opts.suite == "fattree") {
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
  if (opts.with_acl) {
    suite.add(std::make_unique<nettest::AclBlockCheck>());
    suite.add(std::make_unique<nettest::BlockedPortCheck>());
  }
  if (opts.transforms > 0) {
    suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
    suite.add(std::make_unique<nettest::NatTranslationCheck>());
  }
  return suite;
}

/// Maps the error taxonomy onto the documented exit codes.
int exit_code_for(ys::Error code) {
  switch (code) {
    case ys::Error::InvalidInput: return 3;
    case ys::Error::CorruptTrace: return 4;
    case ys::Error::IoError: return 5;
    case ys::Error::BudgetExceeded: return 6;
    case ys::Error::Cancelled: return 7;
    default: return 10;
  }
}

/// Writes `content` to `path`, mapping failure onto the I/O exit code.
void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.flush();
  if (!out) throw ys::IoError("cannot write " + path);
}

int run_impl(const CliOptions& opts) {

  // Build topology + forwarding state.
  BuiltTopology built;
  build_topology(opts, built);
  net::Network* network = built.network;
  routing::RoutingConfig* routing = built.routing;
  if (!built.state_loaded) {
    routing::FibBuilder::compute_and_build(*network, *routing);
    install_post_fib_state(opts, built, *network, *routing);
  }
  if (!opts.json) std::printf("%s\n", network->summary().c_str());

  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::ResourceBudget budget;
  if (opts.deadline_s > 0.0) budget.with_deadline(opts.deadline_s);
  if (opts.max_bdd_nodes > 0) budget.with_max_bdd_nodes(opts.max_bdd_nodes);
  const bool budgeted = opts.deadline_s > 0.0 || opts.max_bdd_nodes > 0;
  ys::CoverageTracker tracker;
  size_t failures = 0;

  if (opts.load_trace) {
    obs::Span span("trace.load", "io");
    coverage::CoverageTrace loaded = ys::load_trace(*opts.load_trace, mgr);
    tracker.mark_packet(loaded.marked_packets());
    for (const net::RuleId rid : loaded.marked_rules()) tracker.mark_rule(rid);
    if (!opts.json) std::printf("loaded trace from %s\n", opts.load_trace->c_str());
  } else {
    const dataplane::MatchSetIndex match_sets(mgr, *network);
    const dataplane::Transfer transfer(match_sets);
    const std::unordered_set<net::DeviceId> excluded(routing->no_default_devices.begin(),
                                                     routing->no_default_devices.end());
    const nettest::TestSuite suite = build_suite(opts, excluded);
    const auto results = [&] {
      obs::Span span("suite.run", "online");
      span.arg("tests", suite.size());
      return suite.run_all(transfer, tracker);
    }();
    for (const auto& r : results) failures += r.failures;
    if (opts.json) {
      std::printf("{\"tests\":%s,", ys::results_to_json(results).c_str());
    } else {
      for (const auto& r : results) {
        std::printf("test %-24s %s (%zu checks, %zu failures)\n", r.name.c_str(),
                    r.passed() ? "PASS" : "FAIL", r.checks, r.failures);
      }
    }
    if (opts.analyze && !opts.json) {
      const ys::SuiteAnalyzer analyzer(mgr, *network, budgeted ? &budget : nullptr,
                                       opts.threads);
      const ys::SuiteAnalysis analysis = analyzer.analyze(transfer, suite);
      if (analysis.truncated) {
        std::fprintf(stderr, "warning: budget exhausted; suite analysis is partial\n");
      }
      std::printf("\nsuite analysis (fractional rule coverage, %.3fs):\n",
                  analysis.analyze_seconds);
      for (const auto& t : analysis.tests) {
        std::printf("  %-24s solo %6.1f%%  marginal %6.1f%%  %7.3fs  %s\n",
                    t.name.c_str(), t.solo * 100.0, t.marginal * 100.0, t.seconds,
                    t.redundant ? "REDUNDANT" : "keep");
      }
    }
  }

  const ys::CoverageEngine engine(
      mgr, *network, tracker.trace(),
      ys::EngineOptions{budgeted ? &budget : nullptr, opts.threads, opts.cache_dir,
                        opts.gc_threshold});
  // Cache telemetry goes to stderr so stdout (human or JSON report) stays
  // byte-identical to a from-scratch run — which is what CI diffs.
  if (const ys::CacheStats* cs = engine.cache_stats()) {
    if (!cs->loaded) {
      std::fprintf(stderr, "cache: full rebuild (%s)\n", cs->fallback_reason.c_str());
    } else {
      std::fprintf(stderr,
                   "cache: %zu/%zu match records reused, %zu/%zu covered records "
                   "reused, %zu device(s) invalidated\n",
                   cs->match_hits, cs->devices, cs->cover_hits, cs->devices,
                   cs->invalidated);
    }
    if (!cs->save_error.empty()) {
      std::fprintf(stderr, "warning: cache not saved: %s\n", cs->save_error.c_str());
    }
  }
  const ys::CoverageReport report = engine.report();
  if (report.truncated && !opts.json) {
    std::fprintf(stderr, "warning: budget exhausted; coverage results are partial\n");
  }
  if (opts.json) {
    if (opts.load_trace) std::printf("{");
    std::printf("\"coverage\":%s", ys::report_to_json(report).c_str());
  } else {
    std::printf("\n%s", report.to_text().c_str());
  }

  if (opts.paths) {
    const ys::PathCoverageResult paths = engine.path_coverage({}, opts.path_budget_s);
    if (opts.json) {
      // JSON has no NaN/Infinity literals; a degraded ratio prints as 0.
      const double fractional = std::isfinite(paths.fractional) ? paths.fractional : 0.0;
      std::printf(",\"paths\":{\"total\":%llu,\"covered\":%llu,\"fractional\":%f,"
                  "\"truncated\":%s}",
                  static_cast<unsigned long long>(paths.total_paths),
                  static_cast<unsigned long long>(paths.covered_paths), fractional,
                  paths.truncated ? "true" : "false");
    } else {
      std::printf("path coverage: %llu/%llu covered (%.1f%%) in %.3fs%s\n",
                  static_cast<unsigned long long>(paths.covered_paths),
                  static_cast<unsigned long long>(paths.total_paths),
                  paths.fractional * 100.0, paths.seconds,
                  paths.truncated ? " [truncated]" : "");
    }
  }
  if (opts.json) std::printf("}\n");

  if (opts.suggest > 0 && !opts.json) {
    std::printf("\nsuggested probes for untested rules:\n");
    for (const ys::TestSuggestion& s : ys::suggest_tests(engine, opts.suggest)) {
      std::printf("  %s\n", s.to_string(*network).c_str());
    }
  }

  if (opts.save_trace) {
    obs::Span span("trace.save", "io");
    ys::save_trace(*opts.save_trace, tracker.trace(), mgr);
    if (!opts.json) std::printf("trace saved to %s\n", opts.save_trace->c_str());
  }
  return failures == 0 ? 0 : 1;
}

/// Runs one CLI mode (`run_impl`, `scenarios_impl`, `optimize_impl`) under
/// the observability outputs its options ask for: tracing on, the mode
/// inside the root span, then --trace-out / --metrics-out written.
int observed(const CliOptions& opts, int (*mode)(const CliOptions&)) {
  // The observability switch flips on only when an output was requested;
  // default runs keep the near-zero disabled-mode cost.
  if (opts.trace_out || opts.metrics_out) obs::set_enabled(true);
  int code = 0;
  {
    // Scoped so the root span is recorded before the trace is serialized.
    obs::Span root("cli.run", "cli");
    code = mode(opts);
  }
  if (opts.trace_out) {
    write_file(*opts.trace_out, obs::Tracer::global().to_chrome_json());
    if (!opts.json) std::printf("trace timeline written to %s\n", opts.trace_out->c_str());
  }
  if (opts.metrics_out) {
    write_file(*opts.metrics_out, obs::metrics().to_json());
    write_file(*opts.metrics_out + ".prom", obs::metrics().to_prometheus());
    if (!opts.json) {
      std::printf("metrics written to %s (+ %s.prom)\n", opts.metrics_out->c_str(),
                  opts.metrics_out->c_str());
    }
  }
  return code;
}

// --- scenario mode -------------------------------------------------------

/// `yardstick scenarios <topology> [...] --scenario-spec FILE | --random-links N`
///
/// Reuses the main option grammar (argv[0] is skipped by parse()); the
/// forwarding state is always recomputed per scenario, so hand-authored
/// state in `file` topologies is replaced by the BGP substrate's output.
int scenarios_impl(const CliOptions& opts) {
  BuiltTopology built;
  build_topology(opts, built);
  if (!opts.json) std::printf("%s\n", built.network->summary().c_str());

  const scenario::ScenarioSpec spec =
      opts.scenario_spec.empty()
          ? scenario::random_link_scenarios(*built.network, opts.random_links,
                                            opts.scenario_seed, opts.links_per_scenario)
          : scenario::ScenarioSpec::load(opts.scenario_spec);

  ys::ResourceBudget budget;
  if (opts.deadline_s > 0.0) budget.with_deadline(opts.deadline_s);
  if (opts.max_bdd_nodes > 0) budget.with_max_bdd_nodes(opts.max_bdd_nodes);
  const bool budgeted = opts.deadline_s > 0.0 || opts.max_bdd_nodes > 0;

  scenario::ScenarioRunnerOptions ropts;
  ropts.engine = ys::EngineOptions{budgeted ? &budget : nullptr, opts.threads,
                                   opts.cache_dir, opts.gc_threshold};

  const std::unordered_set<net::DeviceId> excluded(
      built.routing->no_default_devices.begin(), built.routing->no_default_devices.end());
  const nettest::TestSuite suite = build_suite(opts, excluded);

  scenario::ScenarioRunner runner(*built.network, *built.routing, suite, ropts);
  runner.set_post_fib_hook(
      [&opts, &built](net::Network& network, const routing::RoutingConfig& routing) {
        install_post_fib_state(opts, built, network, routing);
      });
  const scenario::ScenarioReport report = runner.run(spec);

  if (report.truncated) {
    std::fprintf(stderr, "warning: budget exhausted; scenario results are partial\n");
  }
  if (opts.json) {
    std::printf("%s\n", scenario::report_to_json(report).c_str());
  } else {
    std::printf("%s", report.to_text().c_str());
  }
  return 0;
}

int run_scenarios(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parse(argc - 1, argv + 1);
  if (!parsed) return usage(argv[0]);
  const bool have_spec = !parsed->scenario_spec.empty();
  if (have_spec == (parsed->random_links > 0)) {
    std::fprintf(stderr,
                 "error: scenarios needs exactly one of --scenario-spec / --random-links\n");
    return usage(argv[0]);
  }
  return observed(*parsed, scenarios_impl);
}

// --- optimize mode -------------------------------------------------------

/// `yardstick optimize <topology> [...] --minimize|--prioritize|--gap-report`
///
/// Reuses the main option grammar (argv[0] is skipped by parse()). Runs the
/// suite twice over the same match-set index: once per-test in isolation
/// (the coverage matrix the optimizers fold over) and once merged (the
/// engine the gap report and the recomputation cross-check read).
int optimize_impl(const CliOptions& opts) {
  BuiltTopology built;
  build_topology(opts, built);
  net::Network* network = built.network;
  if (!built.state_loaded) {
    routing::FibBuilder::compute_and_build(*network, *built.routing);
    install_post_fib_state(opts, built, *network, *built.routing);
  }
  if (!opts.json) std::printf("%s\n", network->summary().c_str());

  ys::ResourceBudget budget;
  if (opts.deadline_s > 0.0) budget.with_deadline(opts.deadline_s);
  if (opts.max_bdd_nodes > 0) budget.with_max_bdd_nodes(opts.max_bdd_nodes);
  const bool budgeted = opts.deadline_s > 0.0 || opts.max_bdd_nodes > 0;

  bdd::BddManager mgr(packet::kNumHeaderBits);
  if (budgeted) mgr.set_budget(&budget);
  const dataplane::MatchSetIndex match_sets(mgr, *network,
                                            budgeted ? &budget : nullptr);
  const dataplane::Transfer transfer(match_sets);
  const std::unordered_set<net::DeviceId> excluded(
      built.routing->no_default_devices.begin(),
      built.routing->no_default_devices.end());
  const nettest::TestSuite suite = build_suite(opts, excluded);

  // Per-test coverage matrix: the substrate minimization/prioritization
  // fold over (bit-identical at any --threads value).
  const ys::SuiteCoverageMatrix matrix =
      ys::build_suite_matrix(transfer, suite, budgeted ? &budget : nullptr,
                             opts.threads);

  // Merged full-suite run for the engine-side artifacts.
  ys::CoverageTracker tracker;
  (void)suite.run_all(transfer, tracker);
  const ys::CoverageEngine engine(
      mgr, *network, tracker.trace(),
      ys::EngineOptions{budgeted ? &budget : nullptr, opts.threads, opts.cache_dir,
                        opts.gc_threshold});

  std::optional<ys::MinimizeResult> minimized;
  std::optional<ys::PrioritizeResult> prioritized;
  std::optional<ys::GapReport> gaps;
  if (opts.minimize) {
    minimized = ys::minimize_suite(matrix, opts.min_coverage);
    // End-to-end cross-check: re-run only the retained tests and push the
    // merged trace through a fresh engine — the recomputed fractional rule
    // coverage must equal the full suite's bit-for-bit at min-coverage 1.
    ys::CoverageTracker subset_tracker;
    for (const ys::SelectedTest& s : minimized->selected) {
      (void)suite.test(s.index).run(transfer, subset_tracker);
    }
    const ys::CoverageEngine subset_engine(
        mgr, *network, subset_tracker.trace(),
        ys::EngineOptions{budgeted ? &budget : nullptr, opts.threads, "",
                          opts.gc_threshold});
    minimized->recomputed_full = engine.metrics().rule_fractional;
    minimized->recomputed_subset = subset_engine.metrics().rule_fractional;
  }
  if (opts.prioritize) prioritized = ys::prioritize_suite(matrix);
  if (opts.gap_report) gaps = ys::build_gap_report(engine);

  const bool truncated = matrix.truncated || engine.truncated();
  if (truncated) {
    std::fprintf(stderr, "warning: budget exhausted; optimization results are partial\n");
  }
  if (opts.json) {
    std::printf("%s\n",
                ys::optimize_to_json(matrix, minimized ? &*minimized : nullptr,
                                     prioritized ? &*prioritized : nullptr,
                                     gaps ? &*gaps : nullptr)
                    .c_str());
  } else {
    if (minimized) std::printf("%s", minimized->to_text(matrix).c_str());
    if (prioritized) std::printf("%s", prioritized->to_text().c_str());
    if (gaps) std::printf("%s", gaps->to_text().c_str());
  }
  return 0;
}

int run_optimize(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parse(argc - 1, argv + 1);
  if (!parsed) return usage(argv[0]);
  if (!parsed->minimize && !parsed->prioritize && !parsed->gap_report) {
    std::fprintf(stderr,
                 "error: optimize needs at least one of --minimize / --prioritize / "
                 "--gap-report\n");
    return usage(argv[0]);
  }
  return observed(*parsed, optimize_impl);
}

// --- daemon-mode subcommands --------------------------------------------

int serve_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s serve [options]\n"
               "  --socket PATH        unix-domain listener (default: none)\n"
               "  --tcp PORT           TCP listener on 127.0.0.1\n"
               "  --wal FILE           write-ahead journal (durable-before-ack)\n"
               "  --snapshot FILE      snapshot for compaction + graceful shutdown\n"
               "  --queue N            ingress queue bound (default 1024)\n"
               "  --compact-bytes N    compact once the WAL exceeds N bytes\n"
               "  --no-fsync           skip per-append fsync (throughput over durability)\n"
               "  --metrics-out FILE   write ingest metrics JSON (+ FILE.prom) at exit\n"
               "  --json               machine-readable stats on shutdown\n"
               "At least one of --socket/--tcp is required. SIGTERM/SIGINT drain\n"
               "accepted batches, snapshot, truncate the WAL and exit 0; a second\n"
               "signal aborts immediately.\n",
               argv0);
  return 2;
}

int run_serve(int argc, char** argv) {
  service::DaemonOptions dopts;
  bool json = false;
  std::optional<std::string> metrics_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return serve_usage(argv[0]);
      dopts.socket_path = v;
    } else if (arg == "--tcp") {
      const char* v = next();
      if (v == nullptr || !parse_port(v, dopts.tcp_port)) return serve_usage(argv[0]);
    } else if (arg == "--wal") {
      const char* v = next();
      if (v == nullptr) return serve_usage(argv[0]);
      dopts.wal_path = v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return serve_usage(argv[0]);
      dopts.snapshot_path = v;
    } else if (arg == "--queue") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, LLONG_MAX, n)) return serve_usage(argv[0]);
      dopts.queue_capacity = static_cast<size_t>(n);
    } else if (arg == "--compact-bytes") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, LLONG_MAX, n)) return serve_usage(argv[0]);
      dopts.compact_wal_bytes = static_cast<uint64_t>(n);
    } else if (arg == "--no-fsync") {
      dopts.wal_fsync = false;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return serve_usage(argv[0]);
      metrics_out = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      return serve_usage(argv[0]);
    }
  }
  if (dopts.socket_path.empty() && dopts.tcp_port == 0) return serve_usage(argv[0]);
  if (metrics_out) obs::set_enabled(true);

  service::ShutdownSignal& sig = service::ShutdownSignal::install();
  service::Daemon daemon(std::move(dopts));
  daemon.start();
  const service::DaemonStats at_start = daemon.stats();
  // The readiness line is the CI handshake: once it appears (flushed),
  // clients may connect.
  std::printf("yardstickd ready");
  if (daemon.tcp_port() != 0) std::printf(" tcp=%u", daemon.tcp_port());
  std::printf(" recovered_records=%llu recovered_snapshot=%d\n",
              static_cast<unsigned long long>(at_start.recovered_records),
              at_start.recovered_snapshot ? 1 : 0);
  std::fflush(stdout);

  daemon.run(sig.fd());
  daemon.shutdown();

  const service::DaemonStats s = daemon.stats();
  if (json) {
    std::printf("{\"connections\":%llu,\"frames\":%llu,\"batches\":%llu,"
                "\"events\":%llu,\"busy_rejections\":%llu,\"rejected_batches\":%llu,"
                "\"corrupt_frames\":%llu,\"accept_failures\":%llu,"
                "\"compactions\":%llu,\"sessions\":%llu,"
                "\"recovered_records\":%llu,\"recovered_torn_tail\":%s}\n",
                static_cast<unsigned long long>(s.connections),
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.busy_rejections),
                static_cast<unsigned long long>(s.rejected_batches),
                static_cast<unsigned long long>(s.corrupt_frames),
                static_cast<unsigned long long>(s.accept_failures),
                static_cast<unsigned long long>(s.compactions),
                static_cast<unsigned long long>(s.sessions),
                static_cast<unsigned long long>(s.recovered_records),
                s.recovered_torn_tail ? "true" : "false");
  } else {
    std::printf("yardstickd drained: %llu batches (%llu events) from %llu "
                "connections, %llu sessions, %llu busy rejections\n",
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.connections),
                static_cast<unsigned long long>(s.sessions),
                static_cast<unsigned long long>(s.busy_rejections));
  }
  if (metrics_out) {
    write_file(*metrics_out, obs::metrics().to_json());
    write_file(*metrics_out + ".prom", obs::metrics().to_prometheus());
  }
  return 0;
}

int ingest_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s ingest <fattree|regional> [options]\n"
               "  --k N                fat-tree arity (default 4)\n"
               "  --suite NAME         original|new|final|fattree (default final)\n"
               "  --acl                install ToR ingress ACLs and ACL tests\n"
               "  --socket PATH        daemon unix socket\n"
               "  --tcp-port N         daemon TCP port (127.0.0.1)\n"
               "  --session ID         session identity (default 1)\n"
               "  --shard I M          send only shard I of M (deterministic split)\n"
               "  --batch-events N     auto-flush threshold (default 64)\n"
               "  --max-attempts N     per-batch retry cap (default 8)\n"
               "  --backoff-base-ms N  first retry delay (default 10)\n"
               "  --ack-timeout-ms N   per-reply wait (default 5000)\n"
               "  --json               machine-readable stats\n",
               argv0);
  return 2;
}

int run_ingest(int argc, char** argv) {
  if (argc < 3) return ingest_usage(argv[0]);
  const std::string topology = argv[2];
  if (topology != "fattree" && topology != "regional") return ingest_usage(argv[0]);
  int k = 4;
  std::string suite_name = "final";
  bool with_acl = false;
  bool json = false;
  size_t shard = 0, shards = 1;
  service::ClientOptions copts;
  copts.batch_events = 64;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--k") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, INT_MAX, n)) return ingest_usage(argv[0]);
      k = static_cast<int>(n);
    } else if (arg == "--suite") {
      const char* v = next();
      if (v == nullptr) return ingest_usage(argv[0]);
      suite_name = v;
    } else if (arg == "--acl") {
      with_acl = true;
    } else if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return ingest_usage(argv[0]);
      copts.socket_path = v;
    } else if (arg == "--tcp-port") {
      const char* v = next();
      if (v == nullptr || !parse_port(v, copts.tcp_port)) return ingest_usage(argv[0]);
    } else if (arg == "--session") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, LLONG_MAX, n)) return ingest_usage(argv[0]);
      copts.session_id = static_cast<uint64_t>(n);
      copts.jitter_seed = copts.session_id * 0x9e3779b97f4a7c15ull + 1;
    } else if (arg == "--shard") {
      const char* a = next();
      const char* b = next();
      long long index = 0, total = 0;
      if (a == nullptr || b == nullptr || !parse_range(a, 0, LLONG_MAX, index) ||
          !parse_range(b, 1, LLONG_MAX, total) || index >= total) {
        return ingest_usage(argv[0]);
      }
      shard = static_cast<size_t>(index);
      shards = static_cast<size_t>(total);
    } else if (arg == "--batch-events") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, LLONG_MAX, n)) return ingest_usage(argv[0]);
      copts.batch_events = static_cast<size_t>(n);
    } else if (arg == "--max-attempts") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, UINT32_MAX, n)) return ingest_usage(argv[0]);
      copts.max_attempts = static_cast<uint32_t>(n);
    } else if (arg == "--backoff-base-ms") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, UINT32_MAX, n)) return ingest_usage(argv[0]);
      copts.backoff_base_ms = static_cast<uint32_t>(n);
    } else if (arg == "--ack-timeout-ms") {
      const char* v = next();
      long long n = 0;
      if (v == nullptr || !parse_range(v, 1, UINT32_MAX, n)) return ingest_usage(argv[0]);
      copts.ack_timeout_ms = static_cast<uint32_t>(n);
    } else if (arg == "--json") {
      json = true;
    } else {
      return ingest_usage(argv[0]);
    }
  }
  if (copts.socket_path.empty() && copts.tcp_port == 0) return ingest_usage(argv[0]);

  // Run the suite locally into a trace, exactly like the in-process path.
  CliOptions sopts;
  sopts.topology = topology;
  sopts.k = k;
  sopts.suite = suite_name;
  sopts.with_acl = with_acl;
  net::Network* network = nullptr;
  routing::RoutingConfig* routing = nullptr;
  std::vector<net::DeviceId> tors;
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  if (topology == "fattree") {
    fattree = topo::make_fat_tree({.k = k});
    network = &fattree.network;
    routing = &fattree.routing;
    tors = fattree.tors;
  } else {
    regional = topo::make_regional(sopts.regional);
    network = &regional.network;
    routing = &regional.routing;
    tors = regional.tors;
  }
  routing::FibBuilder::compute_and_build(*network, *routing);
  if (with_acl) topo::install_ingress_acls(*network, tors);

  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::CoverageTracker tracker;
  const dataplane::MatchSetIndex match_sets(mgr, *network);
  const dataplane::Transfer transfer(match_sets);
  const std::unordered_set<net::DeviceId> excluded(routing->no_default_devices.begin(),
                                                   routing->no_default_devices.end());
  const nettest::TestSuite suite = build_suite(sopts, excluded);
  size_t failures = 0;
  for (const auto& r : suite.run_all(transfer, tracker)) failures += r.failures;
  const coverage::CoverageTrace& trace = tracker.trace();

  // Stream the trace to the daemon, optionally as one deterministic
  // shard: locations in map order, then rules sorted — so shard i of m
  // from concurrent processes unions back to exactly the full trace.
  service::IngestClient client(copts);
  size_t index = 0;
  for (const auto& [loc, ps] : trace.marked_packets().entries()) {
    if (index++ % shards == shard) client.mark_packet(loc, ps);
  }
  std::vector<uint32_t> rules;
  rules.reserve(trace.marked_rules().size());
  for (const net::RuleId rid : trace.marked_rules()) rules.push_back(rid.value);
  std::sort(rules.begin(), rules.end());
  for (const uint32_t rid : rules) {
    if (index++ % shards == shard) client.mark_rule(net::RuleId{rid});
  }
  client.close();

  const service::ClientStats& cs = client.stats();
  if (json) {
    std::printf("{\"flushes\":%llu,\"events_sent\":%llu,\"retries\":%llu,"
                "\"busy_backoffs\":%llu,\"reconnects\":%llu,\"test_failures\":%zu}\n",
                static_cast<unsigned long long>(cs.flushes),
                static_cast<unsigned long long>(cs.events_sent),
                static_cast<unsigned long long>(cs.retries),
                static_cast<unsigned long long>(cs.busy_backoffs),
                static_cast<unsigned long long>(cs.reconnects), failures);
  } else {
    std::printf("ingested %llu events in %llu batches (%llu retries, %llu busy, "
                "%llu connections)\n",
                static_cast<unsigned long long>(cs.events_sent),
                static_cast<unsigned long long>(cs.flushes),
                static_cast<unsigned long long>(cs.retries),
                static_cast<unsigned long long>(cs.busy_backoffs),
                static_cast<unsigned long long>(cs.reconnects));
  }
  return failures == 0 ? 0 : 1;
}

int ingest_replay_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s ingest-replay --wal FILE [--snapshot FILE] "
               "--save-trace OUT [--json]\n"
               "Offline recovery: rebuild the merged trace a daemon would\n"
               "recover from the snapshot plus journal, and persist it.\n",
               argv0);
  return 2;
}

int run_ingest_replay(int argc, char** argv) {
  std::string wal_path, snapshot_path, out_path;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--wal") {
      const char* v = next();
      if (v == nullptr) return ingest_replay_usage(argv[0]);
      wal_path = v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return ingest_replay_usage(argv[0]);
      snapshot_path = v;
    } else if (arg == "--save-trace") {
      const char* v = next();
      if (v == nullptr) return ingest_replay_usage(argv[0]);
      out_path = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      return ingest_replay_usage(argv[0]);
    }
  }
  if (wal_path.empty() && snapshot_path.empty()) return ingest_replay_usage(argv[0]);

  bdd::BddManager mgr(packet::kNumHeaderBits);
  service::DaemonStats stats;
  const coverage::CoverageTrace trace =
      service::recover_trace(snapshot_path, wal_path, mgr, &stats);
  if (!out_path.empty()) ys::save_trace(out_path, trace, mgr);
  if (json) {
    std::printf("{\"recovered_records\":%llu,\"sessions\":%llu,"
                "\"recovered_snapshot\":%s,\"torn_tail\":%s,"
                "\"rejected_records\":%llu}\n",
                static_cast<unsigned long long>(stats.recovered_records),
                static_cast<unsigned long long>(stats.sessions),
                stats.recovered_snapshot ? "true" : "false",
                stats.recovered_torn_tail ? "true" : "false",
                static_cast<unsigned long long>(stats.rejected_batches));
  } else {
    std::printf("replayed %llu journal records (%llu sessions%s%s)%s%s\n",
                static_cast<unsigned long long>(stats.recovered_records),
                static_cast<unsigned long long>(stats.sessions),
                stats.recovered_snapshot ? ", snapshot loaded" : "",
                stats.recovered_torn_tail ? ", torn tail discarded" : "",
                out_path.empty() ? "" : ", saved to ", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Daemon-mode subcommands dispatch before the topology grammar.
  if (argc >= 2) {
    const std::string cmd = argv[1];
    try {
      if (cmd == "serve") return run_serve(argc, argv);
      if (cmd == "ingest") return run_ingest(argc, argv);
      if (cmd == "ingest-replay") return run_ingest_replay(argc, argv);
      if (cmd == "scenarios") return run_scenarios(argc, argv);
      if (cmd == "optimize") return run_optimize(argc, argv);
    } catch (const ys::StatusError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return exit_code_for(e.code());
    } catch (const ys::InvalidInputError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return exit_code_for(e.code());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "internal error: %s\n", e.what());
      return 10;
    }
  }
  const std::optional<CliOptions> parsed = parse(argc, argv);
  if (!parsed) return usage(argv[0]);
  try {
    return observed(*parsed, run_impl);
  } catch (const ys::StatusError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const ys::InvalidInputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 10;
  }
}
