// yardstick — command-line front end.
//
// Builds a synthetic topology (fat-tree or multi-DC regional network) or
// loads one from a file, computes its forwarding state with the eBGP
// substrate, runs a test suite with coverage tracking, and prints the
// coverage report.
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
// The grammar is data: one flag table whose rows are tagged by group
// (topology, suite, resources, observability, one group per mode), and one
// mode table listing the groups each mode reads; a topology mode also
// reads the group named after its topology, so `--k` goes only with
// `fattree`, the shape flags and `--transforms` only with `regional`. One
// parser walks the tables and usage is printed from them, so a flag is
// accepted exactly by the modes that read it; anything else is a usage
// error.
//
// Exit codes map the error taxonomy so scripts can dispatch on failures:
//   0 all tests passed          4 corrupt trace file
//   1 test failures             5 I/O error
//   2 usage error               6 resource budget exceeded
//   3 invalid input             7 cancelled
//                              10 internal error
#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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

// --- strict flag values ---------------------------------------------------
//
// atoi/atof silently turn garbage into 0 and saturate nothing: "--port
// 70000" used to pass a `> 0` check and wrap through a uint16_t cast to
// port 4464. Every numeric flag goes through these instead: the whole
// token must parse, and the value must sit inside the flag's range —
// anything else is a usage error (exit 2), never a silent reinterpretation.

/// A complete base-10 integer token in [lo, hi], stored into `out`.
/// Rejects empty strings, trailing garbage ("5x"), and values outside
/// long long.
template <typename T>
bool parse_range(const char* s, long long lo, long long hi, T& out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) return false;
  out = static_cast<T>(v);
  return true;
}

/// A complete finite floating-point token in (0, hi], stored into `out`.
bool parse_f64(const char* s, double hi, double& out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v > 0.0 && v <= hi)) return false;
  out = v;
  return true;
}

/// A string or path value: any token.
template <typename T>
bool set_text(const char* s, T& out) {
  out = s;
  return true;
}

/// Everything a command line can set; each mode reads its own part.
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
  unsigned threads = 0;          // path-sweep and suite-matrix workers; 0 = all hardware threads
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
  // Daemon modes: `serve` (and the journal `ingest-replay` reads), `ingest`.
  service::DaemonOptions daemon;
  service::ClientOptions client = [] {
    service::ClientOptions c;
    c.batch_events = 64;  // ingest's default; the library's is 1024
    return c;
  }();
  size_t shard = 0, shards = 1;  // ingest: send only shard `shard` of `shards`
};

// --- the grammar ------------------------------------------------------------

/// One flag: the group it belongs to, its name, its value as usage spells
/// it, its help line, and what it sets. The spelling is also the arity: ""
/// takes no value, "[SECONDS]" an optional one (consumed unless the next
/// token is absent or starts with '-'), "I M" two, anything else one. `set`
/// gets the values (null when absent) and returns false on a bad one.
struct Flag {
  std::string_view group;
  std::string_view name;
  std::string_view value;
  const char* help;
  bool (*set)(CliOptions& o, const char* v, const char* w);
};

/// Every flag, by group. A mode reads the groups it lists; a topology mode
/// also reads the group named after its topology.
constexpr Flag kFlags[] = {
    {"fattree", "--k", "N", "fat-tree arity (default 4)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.k); }},
    {"regional", "--datacenters", "N", "datacenter count (default 2)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.regional.datacenters); }},
    {"regional", "--pods", "N", "pods per datacenter (default 2)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.regional.pods_per_dc); }},
    {"regional", "--tors", "N", "ToRs per pod (default 4)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.regional.tors_per_pod); }},
    {"regional", "--transforms", "N",
     "N tunnels (VIP encap/decap across ToRs) and N NAT rules per WAN, plus their checks",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.transforms); }},
    {"suite", "--suite", "NAME", "original|new|final|fattree (default final)",
     [](auto& o, auto v, auto) {
       o.suite = v;
       return o.suite == "original" || o.suite == "new" || o.suite == "final" ||
              o.suite == "fattree";
     }},
    {"suite", "--acl", "", "install ToR ingress ACLs and ACL tests",
     [](auto& o, auto, auto) { return o.with_acl = true; }},
    {"report", "--paths", "[SECONDS]", "also compute path coverage (budget, default 60)",
     [](auto& o, auto v, auto) {
       o.paths = true;
       return v == nullptr || parse_f64(v, DBL_MAX, o.path_budget_s);
     }},
    {"report", "--analyze", "", "per-test contributions + redundancy",
     [](auto& o, auto, auto) { return o.analyze = true; }},
    {"report", "--suggest", "N", "synthesize probes for N untested rules",
     [](auto& o, auto v, auto) { return parse_range(v, 1, LLONG_MAX, o.suggest); }},
    {"report", "--load-trace", "FILE", "skip testing; compute metrics from FILE",
     [](auto& o, auto v, auto) { return set_text(v, o.load_trace); }},
    {"trace", "--save-trace", "FILE", "persist the coverage trace",
     [](auto& o, auto v, auto) { return set_text(v, o.save_trace); }},
    {"scenario", "--scenario-spec", "FILE", "named device/link failure sets (DESIGN.md §13)",
     [](auto& o, auto v, auto) { return set_text(v, o.scenario_spec); }},
    {"scenario", "--random-links", "N", "N seeded random link-down scenarios instead",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.random_links); }},
    {"scenario", "--seed", "S", "PRNG seed for --random-links (default 1)",
     [](auto& o, auto v, auto) { return parse_range(v, 0, LLONG_MAX, o.scenario_seed); }},
    {"scenario", "--links-per-scenario", "L", "failed links per random scenario (default 1)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.links_per_scenario); }},
    {"optimize", "--minimize", "", "smallest subset preserving full-suite coverage",
     [](auto& o, auto, auto) { return o.minimize = true; }},
    {"optimize", "--min-coverage", "F",
     "keep >= F of the full suite's fractional rule coverage, F in (0,1] (default 1.0)",
     [](auto& o, auto v, auto) { return parse_f64(v, 1.0, o.min_coverage); }},
    {"optimize", "--prioritize", "", "marginal-coverage-per-second order + cost curve",
     [](auto& o, auto, auto) { return o.prioritize = true; }},
    {"optimize", "--gap-report", "", "witness packet (or state-only marker) per uncovered rule",
     [](auto& o, auto, auto) { return o.gap_report = true; }},
    {"resources", "--deadline", "SECONDS", "overall wall-clock budget (partial results)",
     [](auto& o, auto v, auto) { return parse_f64(v, DBL_MAX, o.deadline_s); }},
    {"resources", "--max-bdd-nodes", "N", "cap BDD arena size (partial results)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, LLONG_MAX, o.max_bdd_nodes); }},
    {"resources", "--threads", "N",
     "path-sweep and suite-matrix worker threads, N >= 1 (default: all hardware threads; "
     "same results)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, INT_MAX, o.threads); }},
    {"resources", "--incremental", "",
     "cache offline-phase results in .yardstick-cache; recompute only what changed",
     [](auto& o, auto, auto) {
       if (o.cache_dir.empty()) o.cache_dir = ".yardstick-cache";
       return true;
     }},
    {"resources", "--cache-dir", "DIR", "like --incremental, with an explicit cache directory",
     [](auto& o, auto v, auto) { return set_text(v, o.cache_dir); }},
    {"timeline", "--trace-out", "FILE", "write a Chrome trace-event JSON span timeline",
     [](auto& o, auto v, auto) { return set_text(v, o.trace_out); }},
    {"metrics", "--metrics-out", "FILE",
     "write metrics as JSON to FILE and Prometheus text to FILE.prom",
     [](auto& o, auto v, auto) { return set_text(v, o.metrics_out); }},
    {"output", "--json", "", "JSON output",
     [](auto& o, auto, auto) { return o.json = true; }},
    {"daemon", "--socket", "PATH", "unix-domain listener",
     [](auto& o, auto v, auto) { return set_text(v, o.daemon.socket_path); }},
    {"daemon", "--tcp", "PORT", "TCP listener on 127.0.0.1",
     [](auto& o, auto v, auto) { return parse_range(v, 1, 65535, o.daemon.tcp_port); }},
    {"daemon", "--queue", "N", "ingress queue bound (default 1024)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, LLONG_MAX, o.daemon.queue_capacity); }},
    {"daemon", "--compact-bytes", "N", "compact once the WAL exceeds N bytes",
     [](auto& o, auto v, auto) {
       return parse_range(v, 1, LLONG_MAX, o.daemon.compact_wal_bytes);
     }},
    {"daemon", "--no-fsync", "", "skip per-append fsync (throughput over durability)",
     [](auto& o, auto, auto) {
       o.daemon.wal_fsync = false;
       return true;
     }},
    {"journal", "--wal", "FILE", "write-ahead journal (appended before every ack)",
     [](auto& o, auto v, auto) { return set_text(v, o.daemon.wal_path); }},
    {"journal", "--snapshot", "FILE", "snapshot the journal compacts into",
     [](auto& o, auto v, auto) { return set_text(v, o.daemon.snapshot_path); }},
    {"client", "--socket", "PATH", "daemon unix socket",
     [](auto& o, auto v, auto) { return set_text(v, o.client.socket_path); }},
    {"client", "--tcp-port", "N", "daemon TCP port (127.0.0.1)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, 65535, o.client.tcp_port); }},
    {"client", "--session", "ID", "session identity (default 1)",
     [](auto& o, auto v, auto) {
       if (!parse_range(v, 1, LLONG_MAX, o.client.session_id)) return false;
       o.client.jitter_seed = o.client.session_id * 0x9e3779b97f4a7c15ull + 1;
       return true;
     }},
    {"client", "--shard", "I M", "send only shard I of M (deterministic split)",
     [](auto& o, auto v, auto w) {
       return parse_range(v, 0, LLONG_MAX, o.shard) && parse_range(w, 1, LLONG_MAX, o.shards) &&
              o.shard < o.shards;
     }},
    {"client", "--batch-events", "N", "auto-flush threshold (default 64)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, LLONG_MAX, o.client.batch_events); }},
    {"client", "--max-attempts", "N", "per-batch retry cap (default 8)",
     [](auto& o, auto v, auto) { return parse_range(v, 1, UINT32_MAX, o.client.max_attempts); }},
    {"client", "--backoff-base-ms", "N", "first retry delay (default 10)",
     [](auto& o, auto v, auto) {
       return parse_range(v, 1, UINT32_MAX, o.client.backoff_base_ms);
     }},
    {"client", "--ack-timeout-ms", "N", "per-reply wait (default 5000)",
     [](auto& o, auto v, auto) {
       return parse_range(v, 1, UINT32_MAX, o.client.ack_timeout_ms);
     }},
};

/// The topology modes' first argument; `file` takes a PATH after it.
constexpr std::string_view kTopologies[] = {"fattree", "regional", "file"};

/// One subcommand: its name (empty for the run mode, whose first argument
/// is the topology), what it does, the flag groups it reads, the
/// requirement it puts on their combination, and what runs it.
struct Mode {
  const char* name;
  const char* what;
  bool topology;
  std::vector<std::string_view> groups;
  const char* needs;                       // the requirement, for usage
  bool (*satisfied)(const CliOptions& o);  // null: no requirement
  int (*run)(const CliOptions& o);
};

// --- set-up shared by the topology modes ----------------------------------

/// What every in-process mode sets up before its first BDD: the topology
/// (routing config, optional transform plan), its forwarding state, the
/// budget the flags ask for, and the suite. Filled in place by set_up(): the
/// struct holds both the storage and the interior pointers, so it must not
/// be moved.
struct Setup {
  net::Network* network = nullptr;
  routing::RoutingConfig* routing = nullptr;
  std::vector<net::DeviceId> tors;
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  netio::LoadedNetwork from_file;
  bool state_loaded = false;
  topo::TransformState transforms;
  ys::ResourceBudget budget;
  bool budgeted = false;
  nettest::TestSuite suite{""};

  [[nodiscard]] ys::EngineOptions engine_options(const CliOptions& opts) const {
    return {budgeted ? &budget : nullptr, opts.threads, opts.cache_dir};
  }
};

/// Post-FIB state (ingress ACLs, transform rules) — everything that
/// FibBuilder::build wipes and that must be reinstalled per FIB rebuild.
void install_post_fib_state(const CliOptions& opts, const Setup& s, net::Network& network,
                            const routing::RoutingConfig& routing) {
  if (opts.with_acl) {
    std::vector<net::DeviceId> alive;
    alive.reserve(s.tors.size());
    for (const net::DeviceId tor : s.tors) {
      if (!routing.failed_devices.contains(tor)) alive.push_back(tor);
    }
    topo::install_ingress_acls(network, alive);
  }
  if (!s.transforms.empty()) {
    topo::install_transform_rules(network, s.transforms, routing);
  }
}

nettest::TestSuite build_suite(const CliOptions& opts, const routing::RoutingConfig& routing) {
  const std::unordered_set<net::DeviceId> excluded(routing.no_default_devices.begin(),
                                                   routing.no_default_devices.end());
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

/// `route` computes the forwarding state (unless the network file carried
/// it) and installs the post-FIB state; scenario mode leaves both to the
/// runner, which recomputes them per scenario.
void set_up(const CliOptions& opts, Setup& s, bool route = true) {
  obs::Span span("cli.setup", "cli");
  {
    obs::Span topology_span("cli.topology", "cli");
    if (opts.topology == "fattree") {
      s.fattree = topo::make_fat_tree({.k = opts.k});
      s.network = &s.fattree.network;
      s.routing = &s.fattree.routing;
      s.tors = s.fattree.tors;
    } else if (opts.topology == "regional") {
      s.regional = topo::make_regional(opts.regional);
      s.network = &s.regional.network;
      s.routing = &s.regional.routing;
      s.tors = s.regional.tors;
    } else {
      s.from_file = netio::load_network_file(opts.network_file);
      s.network = &s.from_file.network;
      s.routing = &s.from_file.routing;
      s.tors = s.network->devices_with_role(net::Role::ToR);
      s.state_loaded = s.from_file.has_forwarding_state;
    }
    if (opts.transforms > 0) {
      // Must run before FIB computation: tunnel endpoints are BGP-originated.
      s.transforms = topo::plan_transforms(
          s.regional, {.tunnels = opts.transforms, .nat_rules_per_wan = opts.transforms});
    }
  }
  if (route && !s.state_loaded) {
    routing::FibBuilder::compute_and_build(*s.network, *s.routing);
    install_post_fib_state(opts, s, *s.network, *s.routing);
  }
  if (opts.deadline_s > 0.0) s.budget.with_deadline(opts.deadline_s);
  if (opts.max_bdd_nodes > 0) s.budget.with_max_bdd_nodes(opts.max_bdd_nodes);
  s.budgeted = opts.deadline_s > 0.0 || opts.max_bdd_nodes > 0;
  s.suite = build_suite(opts, *s.routing);
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

/// --metrics-out: the registry as JSON to `path`, Prometheus text to `path`.prom.
void write_metrics(const std::string& path) {
  write_file(path, obs::metrics().to_json());
  write_file(path + ".prom", obs::metrics().to_prometheus());
}

// --- run mode ---------------------------------------------------------------

int run_impl(const CliOptions& opts) {
  Setup s;
  set_up(opts, s);
  net::Network& network = *s.network;
  if (!opts.json) std::printf("%s\n", network.summary().c_str());

  // The tests run on the engine's own index, between its steps 1 and 2; a
  // loaded trace goes in instead.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  std::optional<coverage::CoverageTrace> loaded;
  if (opts.load_trace) {
    obs::Span span("trace.load", "io");
    loaded = ys::load_trace(*opts.load_trace, mgr);
    if (!opts.json) std::printf("loaded trace from %s\n", opts.load_trace->c_str());
  }
  const ys::CoverageEngine engine =
      loaded ? ys::CoverageEngine(mgr, network, std::move(*loaded), s.engine_options(opts))
             : ys::CoverageEngine(mgr, network, s.suite, s.engine_options(opts));
  size_t failures = 0;
  for (const auto& r : engine.results()) failures += r.failures;
  if (!opts.load_trace) {
    if (opts.json) {
      std::printf("{\"tests\":%s,", ys::results_to_json(engine.results()).c_str());
    } else {
      for (const auto& r : engine.results()) {
        std::printf("test %-24s %s (%zu checks, %zu failures)\n", r.name.c_str(),
                    r.passed() ? "PASS" : "FAIL", r.checks, r.failures);
      }
    }
    if (opts.analyze) {
      const ys::SuiteCoverageMatrix matrix =
          ys::build_suite_matrix(engine.transfer(), s.suite, opts.threads);
      if (matrix.truncated) {
        std::fprintf(stderr, "warning: budget exhausted; suite analysis is partial\n");
      }
      std::printf("\nsuite analysis (fractional rule coverage):\n");
      for (const ys::TestContribution& t : ys::test_contributions(matrix)) {
        std::printf("  %-24s solo %6.1f%%  marginal %6.1f%%  %7.3fs  %s\n",
                    t.name.c_str(), t.solo * 100.0, t.marginal * 100.0, t.seconds,
                    t.redundant ? "REDUNDANT" : "keep");
      }
    }
  }

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
    const ys::PathCoverageResult paths = engine.path_coverage(opts.path_budget_s);
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

  if (opts.suggest > 0) {
    // The gap report's first packet witnesses, as ready-to-inject probes.
    std::printf("\nsuggested probes for untested rules:\n");
    size_t shown = 0;
    for (const ys::DeviceGaps& d : ys::build_gap_report(engine).devices) {
      for (const ys::GapWitness& g : d.gaps) {
        if (g.state_only || shown == opts.suggest) continue;
        ++shown;
        std::printf("  inject at %s: %s (exercises %s)\n", d.name.c_str(),
                    g.witness.to_string().c_str(), network.rule_to_string(g.rule).c_str());
      }
    }
  }

  if (opts.save_trace) {
    obs::Span span("trace.save", "io");
    ys::save_trace(*opts.save_trace, engine.trace(), mgr);
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
    write_metrics(*opts.metrics_out);
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
/// The forwarding state is always recomputed per scenario, so hand-authored
/// state in `file` topologies is replaced by the BGP substrate's output.
int scenarios_impl(const CliOptions& opts) {
  Setup s;
  set_up(opts, s, /*route=*/false);
  if (!opts.json) std::printf("%s\n", s.network->summary().c_str());

  const scenario::ScenarioSpec spec =
      opts.scenario_spec.empty()
          ? scenario::random_link_scenarios(*s.network, opts.random_links,
                                            opts.scenario_seed, opts.links_per_scenario)
          : scenario::ScenarioSpec::load(opts.scenario_spec);

  scenario::ScenarioRunner runner(*s.network, *s.routing, s.suite, {s.engine_options(opts)});
  runner.set_post_fib_hook(
      [&opts, &s](net::Network& network, const routing::RoutingConfig& routing) {
        install_post_fib_state(opts, s, network, routing);
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

// --- optimize mode -------------------------------------------------------

/// `yardstick optimize <topology> [...] --minimize|--prioritize|--gap-report`
///
/// Runs the suite twice over the engine's match-set index: once merged,
/// inside the engine (the gap report and the recomputation cross-check read
/// it), and once per-test in isolation (the coverage matrix the optimizers
/// fold over).
int optimize_impl(const CliOptions& opts) {
  Setup s;
  set_up(opts, s);
  net::Network& network = *s.network;
  if (!opts.json) std::printf("%s\n", network.summary().c_str());

  bdd::BddManager mgr(packet::kNumHeaderBits);
  const ys::CoverageEngine engine(mgr, network, s.suite, s.engine_options(opts));
  // Per-test coverage matrix: the substrate minimization/prioritization
  // fold over (bit-identical at any --threads value).
  const ys::SuiteCoverageMatrix matrix =
      ys::build_suite_matrix(engine.transfer(), s.suite, opts.threads);

  std::optional<ys::MinimizeResult> minimized;
  std::optional<ys::PrioritizeResult> prioritized;
  std::optional<ys::GapReport> gaps;
  if (opts.minimize) {
    minimized = ys::minimize_suite(matrix, opts.min_coverage);
    ys::recompute_minimized(*minimized, engine, s.suite, s.engine_options(opts));
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

// --- daemon-mode subcommands --------------------------------------------

int run_serve(const CliOptions& opts) {
  if (opts.metrics_out) obs::set_enabled(true);

  service::ShutdownSignal& sig = service::ShutdownSignal::install();
  service::Daemon daemon(opts.daemon);
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
  if (opts.json) {
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
  if (opts.metrics_out) write_metrics(*opts.metrics_out);
  return 0;
}

int run_ingest(const CliOptions& opts) {
  // Run the suite locally into a trace, on one plain index: no engine
  // runs here, the daemon's consumer computes the metrics.
  Setup s;
  set_up(opts, s);

  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::CoverageTracker tracker;
  const dataplane::MatchSetIndex match_sets(mgr, *s.network);
  const dataplane::Transfer transfer(match_sets);
  size_t failures = 0;
  for (const auto& r : s.suite.run_all(transfer, tracker)) failures += r.failures;
  const coverage::CoverageTrace& trace = tracker.trace();

  // Stream the trace to the daemon, optionally as one deterministic
  // shard: locations in map order, then rules sorted — so shard i of m
  // from concurrent processes unions back to exactly the full trace.
  service::IngestClient client(opts.client);
  size_t index = 0;
  for (const auto& [loc, ps] : trace.marked_packets().entries()) {
    if (index++ % opts.shards == opts.shard) client.mark_packet(loc, ps);
  }
  std::vector<uint32_t> rules;
  rules.reserve(trace.marked_rules().size());
  for (const net::RuleId rid : trace.marked_rules()) rules.push_back(rid.value);
  std::sort(rules.begin(), rules.end());
  for (const uint32_t rid : rules) {
    if (index++ % opts.shards == opts.shard) client.mark_rule(net::RuleId{rid});
  }
  client.close();

  const service::ClientStats& cs = client.stats();
  if (opts.json) {
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

int run_ingest_replay(const CliOptions& opts) {
  const std::string out_path = opts.save_trace.value_or("");
  bdd::BddManager mgr(packet::kNumHeaderBits);
  service::DaemonStats stats;
  const coverage::CoverageTrace trace = service::recover_trace(
      opts.daemon.snapshot_path, opts.daemon.wal_path, mgr, &stats);
  if (!out_path.empty()) ys::save_trace(out_path, trace, mgr);
  if (opts.json) {
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

// --- modes, parser, usage ---------------------------------------------------

const std::vector<Mode>& modes() {
  static const std::vector<Mode> kModes = {
      {"", "run a suite on one network and report its coverage", true,
       {"suite", "report", "trace", "resources", "timeline", "metrics", "output"},
       "--analyze and --suggest without --json, --analyze without --load-trace",
       [](const CliOptions& o) {
         return !(o.json && (o.analyze || o.suggest > 0)) && !(o.analyze && o.load_trace);
       },
       [](const CliOptions& o) { return observed(o, run_impl); }},
      {"scenarios", "coverage under failure: recompute FIBs per scenario (DESIGN.md §13)", true,
       {"suite", "scenario", "resources", "timeline", "metrics", "output"},
       "exactly one of --scenario-spec / --random-links",
       [](const CliOptions& o) { return o.scenario_spec.empty() == (o.random_links > 0); },
       [](const CliOptions& o) { return observed(o, scenarios_impl); }},
      {"optimize", "minimize / prioritize the suite, witness its gaps (DESIGN.md §14)", true,
       {"suite", "optimize", "resources", "timeline", "metrics", "output"},
       "at least one of --minimize / --prioritize / --gap-report",
       [](const CliOptions& o) { return o.minimize || o.prioritize || o.gap_report; },
       [](const CliOptions& o) { return observed(o, optimize_impl); }},
      {"serve", "run yardstickd; SIGTERM/SIGINT drain, snapshot, truncate the WAL, exit 0",
       false, {"daemon", "journal", "metrics", "output"}, "at least one of --socket / --tcp",
       [](const CliOptions& o) { return !o.daemon.socket_path.empty() || o.daemon.tcp_port; },
       run_serve},
      {"ingest", "run a suite locally and stream its trace to a daemon", true,
       {"suite", "client", "output"}, "one of --socket / --tcp-port",
       [](const CliOptions& o) { return !o.client.socket_path.empty() || o.client.tcp_port; },
       run_ingest},
      {"ingest-replay", "rebuild the trace a daemon would recover from snapshot + journal",
       false, {"journal", "trace", "output"}, "at least one of --wal / --snapshot",
       [](const CliOptions& o) {
         return !o.daemon.wal_path.empty() || !o.daemon.snapshot_path.empty();
       },
       run_ingest_replay},
  };
  return kModes;
}

bool is_topology(std::string_view name) {
  return std::find(std::begin(kTopologies), std::end(kTopologies), name) !=
         std::end(kTopologies);
}

/// Usage for `only`, or for every mode: each mode's synopsis and the groups
/// it reads, then those groups' flags from the table.
int usage(const Mode* only) {
  std::vector<std::string_view> shown;
  for (const Mode& m : modes()) {
    if (only != nullptr && only != &m) continue;
    std::fprintf(stderr, "usage: yardstick%s%s%s [flags]\n  %s\n", *m.name ? " " : "", m.name,
                 m.topology ? " <fattree|regional|file PATH>" : "", m.what);
    if (m.needs != nullptr) std::fprintf(stderr, "  requires %s\n", m.needs);
    std::string line = m.topology ? "<topology>" : "";
    if (m.topology) shown.insert(shown.end(), std::begin(kTopologies), std::end(kTopologies));
    for (const std::string_view g : m.groups) {
      line += (line.empty() ? "" : ", ") + std::string(g);
      shown.push_back(g);
    }
    std::fprintf(stderr, "  flags: %s\n", line.c_str());
  }
  std::string_view group;
  for (const Flag& f : kFlags) {
    if (std::find(shown.begin(), shown.end(), f.group) == shown.end()) continue;
    if (f.group != group) std::fprintf(stderr, "%s flags:\n", std::string(f.group).c_str());
    group = f.group;
    const std::string spelled =
        std::string(f.name) + (f.value.empty() ? "" : " ") + std::string(f.value);
    std::fprintf(stderr, "  %-22s %s\n", spelled.c_str(), f.help);
  }
  return 2;
}

/// Parses argv (argv[1] names the mode or, for the run mode, the topology)
/// against the flag groups `mode` reads, plus the group named after the
/// topology. Returns what is wrong with the command line, or "".
std::string parse(const Mode& mode, int argc, char** argv, CliOptions& opts) {
  int i = *mode.name ? 2 : 1;
  std::vector<std::string_view> groups = mode.groups;
  std::string label = mode.name;
  if (mode.topology) {
    if (i >= argc || !is_topology(argv[i])) return "expected fattree, regional or file PATH";
    opts.topology = argv[i++];
    if (opts.topology == "file") {
      if (i >= argc) return "file needs a PATH";
      opts.network_file = argv[i++];
    }
    groups.push_back(opts.topology);
    label += (label.empty() ? "" : " ") + opts.topology;
  }
  for (; i < argc; ++i) {
    const auto read = [&](const Flag& f) {
      return f.name == argv[i] && std::find(groups.begin(), groups.end(), f.group) != groups.end();
    };
    const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags), read);
    if (flag == std::end(kFlags)) return "'" + std::string(argv[i]) + "' is not a flag of " + label;
    const std::string spelled = std::string(flag->name) + " " + std::string(flag->value);
    const char* v = nullptr;
    const char* w = nullptr;
    if (flag->value.starts_with('[')) {
      if (i + 1 < argc && argv[i + 1][0] != '-') v = argv[++i];
    } else if (!flag->value.empty()) {
      const int count = flag->value.find(' ') == std::string_view::npos ? 1 : 2;
      if (i + count >= argc) return spelled + ": missing value";
      v = argv[++i];
      if (count == 2) w = argv[++i];
    }
    if (!flag->set(opts, v, w)) return spelled + ": bad value";
  }
  if (mode.satisfied != nullptr && !mode.satisfied(opts)) return label + " needs " + mode.needs;
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  // argv[1] names a subcommand, or a topology for the run mode.
  const std::string_view first = argc >= 2 ? argv[1] : "";
  const Mode* mode = &modes().front();
  for (const Mode& m : modes()) {
    if (*m.name && first == m.name) mode = &m;
  }
  if (!*mode->name && !is_topology(first)) {
    if (argc >= 2) std::fprintf(stderr, "error: unknown mode '%s'\n", argv[1]);
    return usage(nullptr);
  }
  CliOptions opts;
  if (const std::string error = parse(*mode, argc, argv, opts); !error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(mode);
  }
  try {
    return mode->run(opts);
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
