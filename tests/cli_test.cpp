// End-to-end tests of the yardstick CLI binary (spawned as a subprocess).
// Skipped gracefully when the binary is not where the build puts it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <vector>

namespace {

const char* cli_path() {
  // ctest runs test binaries from build/tests; the CLI lives next door.
  static const std::array<const char*, 3> candidates{
      "../tools/yardstick", "build/tools/yardstick", "./tools/yardstick"};
  for (const char* path : candidates) {
    if (std::ifstream(path).good()) return path;
  }
  return nullptr;
}

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_cli(const std::string& args) {
  CommandResult result;
  const std::string command = std::string(cli_path()) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// One span of a --trace-out timeline: its name and [ts, ts + dur].
struct TimelineSpan {
  std::string name;
  uint64_t ts = 0;
  uint64_t dur = 0;

  [[nodiscard]] bool contains(const TimelineSpan& inner) const {
    return ts <= inner.ts && inner.ts + inner.dur <= ts + dur;
  }
};

/// The spans named `name` in the timeline file at `path`, in start order.
std::vector<TimelineSpan> spans_named(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  const std::string json{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  static const std::regex event(R"re("name":"([^"]+)"[^}]*?"ts":(\d+),"dur":(\d+))re");
  std::vector<TimelineSpan> out;
  for (std::sregex_iterator it(json.begin(), json.end(), event), end; it != end; ++it) {
    if ((*it)[1] == name) out.push_back({name, std::stoull((*it)[2]), std::stoull((*it)[3])});
  }
  return out;
}

/// The `key` arg of every span named `name` in the timeline file at `path`.
std::vector<uint64_t> span_args(const std::string& path, const std::string& name,
                                const std::string& key) {
  std::ifstream in(path);
  const std::string json{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  const std::regex event("\"name\":\"" + name + "\"[^}]*?\"args\":\\{[^}]*?\"" + key +
                         "\":(\\d+)");
  std::vector<uint64_t> out;
  for (std::sregex_iterator it(json.begin(), json.end(), event), end; it != end; ++it) {
    out.push_back(std::stoull((*it)[1]));
  }
  return out;
}

#define REQUIRE_CLI()                                             \
  if (cli_path() == nullptr) {                                    \
    GTEST_SKIP() << "yardstick CLI binary not found; run from the \
build tree";                                                      \
  }

TEST(CliTest, UsageOnBadArguments) {
  REQUIRE_CLI();
  EXPECT_EQ(run_cli("bogus").exit_code, 2);
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_NE(run_cli("fattree --k").exit_code, 0);
  EXPECT_NE(run_cli("regional --suite").exit_code, 0);
  // --suite names only the suites the CLI builds, a flag is accepted only
  // by the modes that read it, and a shape flag only with its topology.
  const std::string file = ::testing::TempDir() + "/cli_never_written";
  for (const std::string& args : std::vector<std::string>{
           "fattree --suite finale", "scenarios fattree --suite finale --random-links 1",
           "optimize fattree --suite finale --minimize",
           "ingest fattree --suite finale --socket " + file,
           "scenarios fattree --k 4 --random-links 1 --save-trace " + file,
           "optimize fattree --k 4 --minimize --load-trace " + file, "fattree --k 4 --minimize",
           "regional --k 8", "fattree --datacenters 3", "fattree --transforms 1"}) {
    EXPECT_EQ(run_cli(args).exit_code, 2) << args;
  }
  EXPECT_FALSE(std::ifstream(file).good());
}

TEST(CliTest, IngestReadsTheSharedTopologyGrammar) {
  REQUIRE_CLI();
  // ingest takes the regional shape flags and --transforms like the other
  // topology modes: with no daemon listening, the run gets as far as the
  // client and fails with the I/O exit code, not a usage error.
  const std::string socket = ::testing::TempDir() + "/cli_nobody_listens.sock";
  std::remove(socket.c_str());
  const CommandResult r = run_cli(
      "ingest regional --datacenters 1 --pods 1 --tors 2 --transforms 1 --max-attempts 1 "
      "--backoff-base-ms 1 --socket " + socket);
  EXPECT_EQ(r.exit_code, 5) << r.output;
}

TEST(CliTest, FatTreeSuitePasses) {
  REQUIRE_CLI();
  const CommandResult r = run_cli("fattree --k 4 --suite fattree");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ToRReachability"), std::string::npos);
  EXPECT_NE(r.output.find("coverage report"), std::string::npos);
  EXPECT_EQ(r.output.find("FAIL"), std::string::npos);
}

TEST(CliTest, BenchmarkWorkloadShapesRun) {
  REQUIRE_CLI();
  // The three perfbench/run.py workloads, flag for flag, on smaller
  // networks; --random-links stands in for the generated scenario spec.
  for (const std::string args :
       {"fattree --k 4 --suite final --json --threads 2",
        "scenarios regional --datacenters 1 --pods 2 --tors 2 --acl --transforms 2 --suite final "
        "--random-links 2 --json --threads 2",
        "optimize fattree --k 4 --suite fattree --minimize --gap-report --json --threads 2"}) {
    const CommandResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
  }
}

TEST(CliTest, JsonOutputIsWellFormedish) {
  REQUIRE_CLI();
  const CommandResult r = run_cli("fattree --k 4 --suite original --json");
  EXPECT_EQ(r.exit_code, 0);
  const size_t json_start = r.output.find('{');
  ASSERT_NE(json_start, std::string::npos);
  const std::string json = r.output.substr(json_start);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"tests\""), std::string::npos);
}

TEST(CliTest, TraceSaveAndLoadRoundTrip) {
  REQUIRE_CLI();
  const std::string trace = ::testing::TempDir() + "/cli_trace.txt";
  const CommandResult save =
      run_cli("fattree --k 4 --suite original --save-trace " + trace);
  EXPECT_EQ(save.exit_code, 0) << save.output;
  const CommandResult load = run_cli("fattree --k 4 --load-trace " + trace);
  EXPECT_EQ(load.exit_code, 0) << load.output;
  EXPECT_NE(load.output.find("coverage report"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(CliTest, EveryModeWritesObservabilityOutputs) {
  REQUIRE_CLI();
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  for (const std::string mode : {"fattree --k 4 --suite fattree",
                                 "scenarios fattree --k 4 --random-links 2",
                                 "optimize fattree --k 4 --minimize"}) {
    const std::string trace = ::testing::TempDir() + "/cli_obs_trace.json";
    const std::string metrics = ::testing::TempDir() + "/cli_obs_metrics.json";
    for (const std::string& path : {trace, metrics, metrics + ".prom"}) {
      std::remove(path.c_str());
    }
    const CommandResult r =
        run_cli(mode + " --trace-out " + trace + " --metrics-out " + metrics);
    EXPECT_EQ(r.exit_code, 0) << mode << "\n" << r.output;
    const std::string timeline = slurp(trace);
    EXPECT_NE(timeline.find("\"cli.run\""), std::string::npos) << mode;
    EXPECT_NE(timeline.find("\"measure_table.build\""), std::string::npos) << mode;
    EXPECT_NE(slurp(metrics).find("\"metrics\""), std::string::npos) << mode;
    EXPECT_NE(slurp(metrics + ".prom").find("# TYPE ys_"), std::string::npos) << mode;
    for (const std::string& path : {trace, metrics, metrics + ".prom"}) {
      std::remove(path.c_str());
    }
  }
}

TEST(CliTest, TimelineCoversTopologyAndRuleKeys) {
  REQUIRE_CLI();
  const std::string trace = ::testing::TempDir() + "/cli_span_trace.json";
  std::remove(trace.c_str());
  CommandResult r = run_cli("fattree --k 4 --suite fattree --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::vector<TimelineSpan> setup = spans_named(trace, "cli.setup");
  const std::vector<TimelineSpan> topology = spans_named(trace, "cli.topology");
  ASSERT_EQ(setup.size(), 1u);
  ASSERT_EQ(topology.size(), 1u);
  EXPECT_TRUE(setup[0].contains(topology[0]));
  // One exact-prefix index per snapshot, built with its match sets.
  EXPECT_EQ(spans_named(trace, "match_sets.prefix_index").size(), 1u);
  EXPECT_EQ(spans_named(trace, "match_sets.build").size(), 1u);

  std::remove(trace.c_str());
  r = run_cli("scenarios fattree --k 4 --random-links 2 --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::vector<TimelineSpan> evaluations = spans_named(trace, "scenario.evaluate");
  const std::vector<TimelineSpan> keys = spans_named(trace, "scenario.rule_keys");
  ASSERT_EQ(evaluations.size(), 3u);  // the baseline and two scenarios
  ASSERT_EQ(keys.size(), 3u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(evaluations[i].contains(keys[i])) << "scenario.rule_keys " << i;
  }
  EXPECT_EQ(spans_named(trace, "match_sets.prefix_index").size(), 3u);
  std::remove(trace.c_str());

  // The matrix workers' clones share the engine's prefix index, and the
  // matrix span records the workers it ran.
  r = run_cli("optimize fattree --k 4 --minimize --threads 2 --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(span_args(trace, "analysis.suite_matrix", "workers"), std::vector<uint64_t>{2});
  const std::vector<TimelineSpan> prefix_indexes = spans_named(trace, "match_sets.prefix_index");
  EXPECT_EQ(prefix_indexes.size(), spans_named(trace, "match_sets.build").size());
  for (const TimelineSpan& clone : spans_named(trace, "match_sets.clone")) {
    for (const TimelineSpan& built : prefix_indexes) EXPECT_FALSE(clone.contains(built));
  }
  std::remove(trace.c_str());
}

TEST(CliTest, NetworkFileMode) {
  REQUIRE_CLI();
  const std::string net_file = ::testing::TempDir() + "/cli_net.txt";
  {
    std::ofstream out(net_file);
    out << "network v1\n"
        << "device wan role wan\n"
        << "device tor role tor\n"
        << "interface wan internet0 kind external\n"
        << "interface wan eth0\n"
        << "interface tor host0 kind host\n"
        << "interface tor eth0\n"
        << "link tor:eth0 wan:eth0 subnet 172.16.0.0/31\n"
        << "host-prefix tor 10.0.1.0/24\n";
  }
  const CommandResult r = run_cli("file " + net_file + " --suite original");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("devices=2"), std::string::npos);
  // A malformed network file maps to the invalid-input exit code.
  {
    std::ofstream out(net_file);
    out << "network v1\ndevice tor role sprocket\n";
  }
  const CommandResult malformed = run_cli("file " + net_file);
  EXPECT_EQ(malformed.exit_code, 3);
  EXPECT_NE(malformed.output.find("unknown role"), std::string::npos);
  std::remove(net_file.c_str());
  // Missing file is a clean I/O error exit, not a crash.
  const CommandResult missing = run_cli("file /nonexistent.net");
  EXPECT_EQ(missing.exit_code, 5);
  EXPECT_NE(missing.output.find("error"), std::string::npos);
}

TEST(CliTest, NetworkFileFibMayRepeatAnInterface) {
  // Generated FIBs list next hops ascending and once each; a network file
  // may list them in any order, and may repeat one. The contract compares
  // them as a sorted multiset: tor0's reversed pair passes, tor1's repeated
  // interface (the right count, one next hop missing) and agg0's (one next
  // hop twice) fail.
  REQUIRE_CLI();
  const std::string net_file = ::testing::TempDir() + "/cli_repeat.net";
  {
    std::ofstream out(net_file);
    out << "network v1\n";
    for (const char* dev : {"tor0", "tor1"}) {
      out << "device " << dev << " role tor\n"
          << "interface " << dev << " host0 kind host\n"
          << "interface " << dev << " eth0\ninterface " << dev << " eth1\n";
    }
    for (const char* dev : {"agg0", "agg1"}) {
      out << "device " << dev << " role aggregation\n"
          << "interface " << dev << " eth0\ninterface " << dev << " eth1\n";
    }
    out << "link tor0:eth0 agg0:eth0\nlink tor0:eth1 agg1:eth0\n"
        << "link tor1:eth0 agg0:eth1\nlink tor1:eth1 agg1:eth1\n"
        << "host-prefix tor0 10.0.0.0/24\nhost-prefix tor1 10.0.1.0/24\n"
        << "fib tor0 dst 10.0.0.0/24 fwd host0\n"
        << "fib tor0 dst 10.0.1.0/24 fwd eth1 eth0\n"
        << "fib tor1 dst 10.0.1.0/24 fwd host0\n"
        << "fib tor1 dst 10.0.0.0/24 fwd eth0 eth0\n"
        << "fib agg0 dst 10.0.0.0/24 fwd eth0\n"
        << "fib agg0 dst 10.0.1.0/24 fwd eth1 eth1\n"
        << "fib agg1 dst 10.0.0.0/24 fwd eth0\n"
        << "fib agg1 dst 10.0.1.0/24 fwd eth1\n";
  }
  const CommandResult text = run_cli("file " + net_file + " --suite new");
  EXPECT_EQ(text.exit_code, 1) << text.output;
  EXPECT_NE(text.output.find("test InternalRouteCheck       FAIL (6 checks, 2 failures)"),
            std::string::npos)
      << text.output;
  const CommandResult json = run_cli("file " + net_file + " --suite new --json");
  EXPECT_EQ(json.exit_code, 1) << json.output;
  EXPECT_NE(json.output.find(
                R"("checks":6,"failures":2,"passed":false,"messages":)"
                R"(["tor1: prefix 10.0.0.0/24 not forwarded along all shortest paths",)"
                R"("agg0: prefix 10.0.1.0/24 not forwarded along all shortest paths"]})"),
            std::string::npos)
      << json.output;
  std::remove(net_file.c_str());
}

TEST(CliTest, CorruptTraceMapsToItsExitCode) {
  REQUIRE_CLI();
  const std::string trace = ::testing::TempDir() + "/cli_corrupt.trace";
  {
    std::ofstream out(trace);
    out << "yardstick-trace v2\nnodes 0\nrules 0\nlocations 0\nchecksum feedfacefeedface\n";
  }
  const CommandResult r = run_cli("fattree --k 4 --load-trace " + trace);
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("corrupt-trace"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(CliTest, BudgetFlagsProduceTruncatedPartialResults) {
  REQUIRE_CLI();
  // Offline phase (--load-trace) under a tiny node cap: metric computation
  // cannot stop the run — it degrades to a truncated report, exit 0.
  const std::string trace = ::testing::TempDir() + "/cli_budget.trace";
  ASSERT_EQ(run_cli("fattree --k 4 --suite original --save-trace " + trace).exit_code, 0);
  const CommandResult r =
      run_cli("fattree --k 4 --load-trace " + trace + " --max-bdd-nodes 64");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("TRUNCATED"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("budget exhausted"), std::string::npos);
  // JSON output carries the machine-readable flag.
  const CommandResult js = run_cli("fattree --k 4 --load-trace " + trace +
                                   " --max-bdd-nodes 64 --json");
  EXPECT_EQ(js.exit_code, 0) << js.output;
  EXPECT_NE(js.output.find("\"truncated\":true"), std::string::npos) << js.output;
  std::remove(trace.c_str());
  // Bad budget values are usage errors.
  EXPECT_EQ(run_cli("fattree --deadline 0").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --max-bdd-nodes -3").exit_code, 2);
}

TEST(CliTest, NodeCapBelowTheIndexTruncatesAndKeepsTestVerdicts) {
  REQUIRE_CLI();
  // The cap trips step 1; the tests then run, unbudgeted, on the partial
  // data plane. The report says truncated, and the exit code is the tests'
  // verdict (0 or 1), never the budget's 6 or an internal error.
  const CommandResult r = run_cli("fattree --k 4 --suite fattree --json --max-bdd-nodes 300");
  EXPECT_NE(r.output.find("\"truncated\":true"), std::string::npos) << r.output;
  const bool failed = r.output.find("\"passed\":false") != std::string::npos;
  EXPECT_EQ(r.exit_code, failed ? 1 : 0) << r.output;
}

TEST(CliTest, NumericFlagsRejectGarbageAndOutOfRangeValues) {
  REQUIRE_CLI();
  // Every numeric flag goes through a checked parser: non-numeric tokens,
  // trailing junk, and out-of-range values are usage errors (exit 2), not
  // silently-wrapped integers.
  EXPECT_EQ(run_cli("fattree --k banana").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k 4x").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k 0").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k -4").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --k 99999999999999999999").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --threads -1").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --paths 5x").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --paths nan").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --suggest 1.5").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --deadline abc").exit_code, 2);
  EXPECT_EQ(run_cli("fattree --max-bdd-nodes 1e9").exit_code, 2);
  EXPECT_EQ(run_cli("serve --tcp 0").exit_code, 2);
  EXPECT_EQ(run_cli("serve --queue -1").exit_code, 2);
  // The original wrap bug: 70000 % 65536 = 4464 used to bind a wrong port.
  EXPECT_EQ(run_cli("serve --tcp 70000").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --tcp-port 70000").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --tcp-port 0").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --shard 3 2").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --batch-events 0").exit_code, 2);
  EXPECT_EQ(run_cli("ingest fattree --max-attempts 0").exit_code, 2);
}

TEST(CliTest, IncrementalCacheRoundTrip) {
  REQUIRE_CLI();
  const std::string dir = ::testing::TempDir() + "/cli_cache";
  const std::string cache = dir + "/coverage.cache";
  std::remove(cache.c_str());
  const std::string base = "fattree --k 4 --suite original --json --cache-dir " + dir;

  const CommandResult cold = run_cli(base);
  EXPECT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("cache: full rebuild"), std::string::npos) << cold.output;
  EXPECT_TRUE(std::ifstream(cache).good());

  const CommandResult warm = run_cli(base);
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("records reused"), std::string::npos) << warm.output;
  EXPECT_NE(warm.output.find("0 device(s) invalidated"), std::string::npos)
      << warm.output;

  // The cache stats line goes to stderr; the JSON report on stdout must be
  // byte-identical between warm and cache-free runs (timings aside — they
  // are wall-clock measurements, keyed out by the CI normalizer too).
  const CommandResult scratch = run_cli("fattree --k 4 --suite original --json");
  const auto strip = [](const std::string& output) {
    // Keep only the JSON object; the human-readable lines differ.
    const size_t start = output.find('{');
    std::string json = output.substr(start == std::string::npos ? 0 : start);
    const size_t timings = json.find("\"timings\"");
    return timings == std::string::npos ? json : json.substr(0, timings);
  };
  EXPECT_EQ(strip(warm.output), strip(scratch.output));
  std::remove(cache.c_str());
}

TEST(CliTest, AnalyzeAndSuggestFlags) {
  REQUIRE_CLI();
  const CommandResult r =
      run_cli("fattree --k 4 --suite original --analyze --suggest 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("suite analysis"), std::string::npos);
  EXPECT_NE(r.output.find("suggested probes"), std::string::npos);
  // The cap: exactly N probes.
  size_t probes = 0;
  for (size_t at = r.output.find("  inject at "); at != std::string::npos;
       at = r.output.find("  inject at ", at + 1)) {
    ++probes;
  }
  EXPECT_EQ(probes, 2u);
}

TEST(CliTest, RunModeRejectsTheFlagsItWouldIgnore) {
  REQUIRE_CLI();
  // --analyze and --suggest print text only, and --analyze reads the suite
  // run a loaded trace replaces: each combination is a usage error.
  const std::string trace = ::testing::TempDir() + "/cli_ignored_flags.trace";
  ASSERT_EQ(run_cli("fattree --k 4 --suite original --save-trace " + trace).exit_code, 0);
  for (const std::string& args : std::vector<std::string>{
           "fattree --k 4 --analyze --json", "fattree --k 4 --suggest 2 --json",
           "fattree --k 4 --analyze --load-trace " + trace}) {
    const CommandResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("--analyze and --suggest without --json"), std::string::npos)
        << args << "\n" << r.output;
  }
  std::remove(trace.c_str());
}

}  // namespace
