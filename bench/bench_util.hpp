// The harness every bench program shares (DESIGN.md §9). Stage times come
// from the program's own spans (obs/trace.hpp), read back after each
// measured call; every two-sided comparison follows one timing rule
// (`alternate`); every BENCH_*.json is one envelope (`Envelope`). This is
// the only file in bench/ that reads the environment, a clock or /proc, or
// writes a file.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "nettest/test.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/json.hpp"

namespace yardstick::bench {

// --- Knobs ------------------------------------------------------------------

/// The environment knob `name` as a number; `fallback` when unset.
inline double knob(const char* name, double fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : std::atof(env);
}

/// The environment knob `name` as a list of integers ("4 8 16");
/// `fallback` when unset or empty.
inline std::vector<int> knob_list(const char* name, std::vector<int> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  std::vector<int> out;
  std::istringstream in(env);
  for (int v = 0; in >> v;) out.push_back(v);
  return out.empty() ? fallback : out;
}

// --- Workloads --------------------------------------------------------------

/// A suite of default-constructed tests, in order.
template <class... Tests>
nettest::TestSuite suite() {
  nettest::TestSuite s("bench");
  (s.add(std::make_unique<Tests>()), ...);
  return s;
}

/// A k-ary fat tree with its FIBs computed.
inline topo::FatTree routed_fat_tree(int k) {
  topo::FatTree tree = topo::make_fat_tree({.k = k});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  return tree;
}

/// A routed network and the trace a suite leaves on it. The suite runs on
/// a plain index that is gone before any measurement; the trace's sets
/// live in `mgr`, so runs import them into managers of their own.
struct TracedFatTree {
  TracedFatTree(topo::FatTree routed, const nettest::TestSuite& suite)
      : tree(std::move(routed)) {
    const dataplane::MatchSetIndex index(mgr, tree.network);
    const dataplane::Transfer transfer(index);
    ys::CoverageTracker tracker;
    (void)suite.run_all(transfer, tracker);
    trace = tracker.trace();
  }

  topo::FatTree tree;
  bdd::BddManager mgr{packet::kNumHeaderBits};
  coverage::CoverageTrace trace;
};

// --- Measured calls ---------------------------------------------------------

/// What one measured call recorded.
struct Run {
  /// Start-ordered spans; a `bench.run` span covers the whole call.
  std::vector<obs::TraceEvent> spans;
  /// VmHWM after the call, reset just before it.
  size_t peak_rss_kb = 0;
  /// VmRSS when the call began: what earlier calls left resident.
  size_t start_rss_kb = 0;

  /// Summed duration of the spans named any of `names`, in seconds.
  [[nodiscard]] double seconds(std::initializer_list<std::string_view> names) const {
    uint64_t us = 0;
    for (const obs::TraceEvent& e : spans) {
      if (std::find(names.begin(), names.end(), e.name) != names.end()) us += e.dur_us;
    }
    return static_cast<double>(us) / 1e6;
  }
  /// The offline phase the paper times: steps 1-3.
  [[nodiscard]] double offline_seconds() const {
    return seconds({"match_sets.build", "covered_sets.build", "measure_table.build"});
  }
  /// The `suite.test` span of the suite's `index`-th test, or nullptr.
  [[nodiscard]] const obs::TraceEvent* test_span(uint64_t index) const {
    for (const obs::TraceEvent& e : spans) {
      if (std::string_view(e.name) != "suite.test") continue;
      for (int a = 0; a < e.num_args; ++a) {
        if (std::string_view(e.args[a].key) == "index" && e.args[a].value == index) return &e;
      }
    }
    return nullptr;
  }
  /// The `suite.test` span of the suite's `index`-th test, in seconds.
  [[nodiscard]] double test_seconds(uint64_t index) const {
    const obs::TraceEvent* test = test_span(index);
    return test == nullptr ? 0.0 : static_cast<double>(test->dur_us) / 1e6;
  }
  /// Summed duration of the spans named `name` inside the `suite.test`
  /// span of the suite's `index`-th test, in seconds.
  [[nodiscard]] double seconds_within_test(uint64_t index, std::string_view name) const {
    const obs::TraceEvent* test = test_span(index);
    if (test == nullptr) return 0.0;
    uint64_t us = 0;
    for (const obs::TraceEvent& e : spans) {
      if (name == e.name && e.tid == test->tid && test->ts_us <= e.ts_us &&
          e.ts_us + e.dur_us <= test->ts_us + test->dur_us) {
        us += e.dur_us;
      }
    }
    return static_cast<double>(us) / 1e6;
  }
};

namespace detail {

/// Spans the tracer dropped across every measured call so far.
inline uint64_t& dropped_spans() {
  static uint64_t dropped = 0;
  return dropped;
}

/// Resets VmHWM to the current RSS (Linux; a no-op elsewhere).
inline void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// The `field` line of /proc/self/status ("VmHWM:", "VmRSS:") in kB; 0
/// where /proc is unavailable.
inline size_t status_kb(std::string_view field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field, 0) == 0) return std::stoul(line.substr(field.size()));
  }
  return 0;
}

}  // namespace detail

/// Calls `work` once with the tracer cleared and VmHWM reset, tracing on
/// unless `traced` is false, and returns what it recorded. Tracing is off
/// again on return. An untraced call records no spans, so its `bench.run`
/// comes from one clock-read pair around the same interval: the tracing-off
/// side of the observability gate.
template <class F>
Run measure(F&& work, bool traced = true) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  detail::reset_peak_rss();
  const size_t start_rss_kb = detail::status_kb("VmRSS:");
  obs::set_enabled(traced);
  const auto start = std::chrono::steady_clock::now();
  {
    const obs::Span span("bench.run", "bench");
    work();
  }
  const auto stop = std::chrono::steady_clock::now();
  obs::set_enabled(false);
  Run run{tracer.snapshot(), detail::status_kb("VmHWM:"), start_rss_kb};
  detail::dropped_spans() += tracer.dropped_count();
  if (!traced) {
    obs::TraceEvent wall;
    wall.name = "bench.run";
    wall.category = "bench";
    wall.dur_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start).count());
    run.spans.push_back(wall);
  }
  return run;
}

// --- The timing rule --------------------------------------------------------

/// Untimed warm-up before the timed pairs. On a 4-vCPU box left idle, the
/// first pairs of a 4-thread build ran 3-5x slower than after a few busy
/// seconds; 5 s of warm-up made the verdict independent of box state.
inline constexpr std::chrono::seconds kWarmup{5};
/// Timed pairs per comparison.
inline constexpr int kPairs = 21;

/// One side of an alternating comparison.
struct Side {
  Run cold;                ///< its first run, before the warm-up
  std::vector<Run> timed;  ///< its kPairs runs after the warm-up
};

/// The rule for every comparison of two timings: one cold pair, kWarmup
/// of untimed pairs, then kPairs timed pairs, alternating `a` and `b`
/// (each returns the Run of one measured call). Verdicts read
/// `median_ratio`; the cold pair shows what an idle box costs.
template <class A, class B>
std::pair<Side, Side> alternate(A&& a, B&& b) {
  Side sa;
  Side sb;
  sa.cold = a();
  sb.cold = b();
  for (const auto until = std::chrono::steady_clock::now() + kWarmup;
       std::chrono::steady_clock::now() < until;) {
    (void)a();
    (void)b();
  }
  for (int i = 0; i < kPairs; ++i) {
    sa.timed.push_back(a());
    sb.timed.push_back(b());
  }
  return {std::move(sa), std::move(sb)};
}

using Values = std::vector<std::pair<std::string, double>>;

/// One side's reading of a quantity: the cold run and the timed runs'
/// quartiles.
struct Timing {
  double cold_s = 0.0;
  double q1_s = 0.0;
  double median_s = 0.0;
  double q3_s = 0.0;

  [[nodiscard]] Values values() const {
    return {{"cold_s", cold_s}, {"q1_s", q1_s}, {"median_s", median_s}, {"q3_s", q3_s}};
  }
};

/// `seconds(run)` over a side: cold, and quartiles of the timed runs.
template <class F>
Timing timing(const Side& side, F&& seconds) {
  std::vector<double> s;
  for (const Run& run : side.timed) s.push_back(seconds(run));
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return {seconds(side.cold), s[n / 4], s[n / 2], s[3 * n / 4]};
}

/// The verdict of a comparison: the median over the timed pairs of
/// `seconds(num run) / seconds(den run)`. A pair runs back to back, so the
/// box's slow drift cancels in its ratio; the sides' own medians keep it
/// (on a shared 4-vCPU box, 15-pair windows of a 0% overhead read
/// -7%..+9% as a ratio of medians and -2%..+2% as a median of ratios).
/// Pairs whose denominator read 0 (work under the spans' 1 µs resolution)
/// have no ratio; with none left the verdict is NaN.
template <class F>
double median_ratio(const Side& num, const Side& den, F&& seconds) {
  std::vector<double> r;
  for (size_t i = 0; i < num.timed.size(); ++i) {
    const double d = seconds(den.timed[i]);
    if (d > 0.0) r.push_back(seconds(num.timed[i]) / d);
  }
  if (r.empty()) return std::nan("");
  std::sort(r.begin(), r.end());
  return r[r.size() / 2];
}

// --- The envelope -----------------------------------------------------------

/// One BENCH_*.json file:
///   {bench, machine:{cores, compiler, build_type, git_sha},
///    configs:[{name, stages:[{name, calls, wall_s}], peak_rss_kb, values:{…}}],
///    gates:[{name, value, bound, passed}]}
/// A config's stages are its runs' spans summed per name, in first-start
/// order.
class Envelope {
 public:
  explicit Envelope(std::string bench) : bench_(std::move(bench)) {}

  void config(const std::string& name, const std::vector<Run>& runs,
              const Values& values = {}) {
    std::vector<Stage> stages;
    size_t peak_kb = 0;
    for (const Run& run : runs) {
      peak_kb = std::max(peak_kb, run.peak_rss_kb);
      for (const obs::TraceEvent& e : run.spans) {
        auto it = std::find_if(stages.begin(), stages.end(), [&](const Stage& s) {
          return std::string_view(s.name) == e.name;
        });
        if (it == stages.end()) it = stages.insert(stages.end(), Stage{e.name});
        ++it->calls;
        it->wall_us += e.dur_us;
      }
    }
    std::string json = "    {\"name\": \"" + ys::json_escape(name) + "\", \"stages\": [";
    for (size_t i = 0; i < stages.size(); ++i) {
      json += (i ? ", " : "") + std::string("{\"name\": \"") + stages[i].name +
              "\", \"calls\": " + std::to_string(stages[i].calls) +
              ", \"wall_s\": " + number(static_cast<double>(stages[i].wall_us) / 1e6) + "}";
    }
    json += "], \"peak_rss_kb\": " + std::to_string(peak_kb) + ", \"values\": {";
    for (size_t i = 0; i < values.size(); ++i) {
      json += (i ? ", \"" : "\"") + ys::json_escape(values[i].first) +
              "\": " + number(values[i].second);
    }
    configs_.push_back(json + "}}");
  }
  void config(const std::string& name, const Run& run, const Values& values = {}) {
    config(name, std::vector<Run>{run}, values);
  }

  void gate(const std::string& name, double value, double bound, bool passed) {
    gates_.push_back({name, value, bound, passed});
  }

  /// Adds the gate that the tracer dropped no span, prints every gate's
  /// verdict, writes `path` and returns the exit code: 0 when the file was
  /// written and every gate passed.
  int write(const std::string& path) {
    const uint64_t dropped = detail::dropped_spans();
    gate("spans dropped by the tracer", static_cast<double>(dropped), 0, dropped == 0);
    bool passed = true;
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"machine\": " << machine()
        << ",\n  \"configs\": [\n";
    for (size_t i = 0; i < configs_.size(); ++i) out << (i ? ",\n" : "") << configs_[i];
    out << "\n  ],\n  \"gates\": [\n";
    for (size_t i = 0; i < gates_.size(); ++i) {
      const Gate& g = gates_[i];
      std::fprintf(g.passed ? stdout : stderr, "# gate %s: %s (bound %s) %s\n", g.name.c_str(),
                   number(g.value).c_str(), number(g.bound).c_str(), g.passed ? "pass" : "FAIL");
      out << (i ? ",\n" : "") << "    {\"name\": \"" << ys::json_escape(g.name)
          << "\", \"value\": " << number(g.value) << ", \"bound\": " << number(g.bound)
          << ", \"passed\": " << (g.passed ? "true" : "false") << "}";
      passed = passed && g.passed;
    }
    out << "\n  ]\n}\n";
    out.flush();
    if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return out && passed ? 0 : 1;
  }

 private:
  struct Stage {
    const char* name = nullptr;
    uint64_t calls = 0;
    uint64_t wall_us = 0;
  };
  struct Gate {
    std::string name;
    double value = 0.0;
    double bound = 0.0;
    bool passed = false;
  };

  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }

  static std::string machine() {
    std::string sha;
    if (std::FILE* git = popen("git rev-parse HEAD 2>/dev/null", "r")) {
      char line[64] = {};
      if (std::fgets(line, sizeof line, git) != nullptr) sha = line;
      pclose(git);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
#ifdef __clang__
    const std::string compiler = "clang " __clang_version__;
#else
    const std::string compiler = "g++ " __VERSION__;
#endif
    return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": \"" + ys::json_escape(compiler) + "\", \"build_type\": \"" +
           YS_BUILD_TYPE + "\", \"git_sha\": \"" + ys::json_escape(sha) + "\"}";
  }

  std::string bench_;
  std::vector<std::string> configs_;
  std::vector<Gate> gates_;
};

// --- Scratch files ----------------------------------------------------------

/// A fresh directory under the system temp directory, removed with
/// everything in it when this goes out of scope.
class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern = (std::filesystem::temp_directory_path() / "ys_bench_XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a directory like " + pattern);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Replaces the file `to` in this directory with a copy of `from`.
  void copy(const std::string& from, const std::string& to) const {
    std::filesystem::copy_file(path_ + "/" + from, path_ + "/" + to,
                               std::filesystem::copy_options::overwrite_existing);
  }

 private:
  std::string path_;
};

}  // namespace yardstick::bench
