// perfbench_setup — set-up timing and seeded scenario specs for run.py.
//
//   perfbench_setup setup REPS -- <yardstick arguments>
//     Builds the workload's snapshot (topology generator, BGP fixpoint, FIB
//     build, post-FIB ACL/transform install) REPS times, each on fresh
//     objects, between two runs of the calibration loop, and prints
//     {"setup_s": [...], "probe_s": [before, after], "rules": N}.
//
//   perfbench_setup spec SEED COUNT FILE -- <yardstick arguments>
//     Draws COUNT single-link failures on the workload's topology with
//     scenario::random_link_scenarios and writes them to FILE in the
//     ScenarioSpec text format; the CLI receives only that file.
//
// Only set-up calls are linked in here, so the end-to-end runs keep working
// while a refactor reshapes the engine's API under perfbench_layers.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Written after every calibration loop, so the compiler cannot drop it.
volatile uint64_t calibration_result = 0;

/// Fixed work that runs no yardstick code and allocates nothing while timed,
/// so its time tracks only how fast the machine is at the moment: inserts
/// and lookups in a 4 MB open-addressing table, then a sort. run.py scales
/// each CLI invocation's wall time by the loops run just before and after it.
class Calibration {
 public:
  /// The mean of four loops. A mean tracks the slow moments an invocation
  /// also meets; the fastest of them would hide them.
  double probe_seconds() {
    const auto start = Clock::now();
    for (int r = 0; r < 4; ++r) calibration_result = loop();
    return seconds_since(start) / 4;
  }

 private:
  static constexpr int kBits = 18;
  static constexpr int kOps = 60000;

  uint64_t loop() {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const auto slot = [this](uint64_t key) {
      size_t i = (key * 0xff51afd7ed558ccdull) >> (64 - kBits);
      while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & (keys_.size() - 1);
      return i;
    };
    std::fill(keys_.begin(), keys_.end(), 0);
    for (int i = 0; i < kOps; ++i) {
      const uint64_t key = (next() & 0x3ffff) | 1;
      const size_t s = slot(key);
      keys_[s] = key;
      values_[s] += static_cast<uint64_t>(i);
    }
    uint64_t sum = 0;
    for (int i = 0; i < kOps; ++i) sum += values_[slot((next() & 0x3ffff) | 1)];
    for (uint32_t& v : sorted_) v = static_cast<uint32_t>(next());
    std::sort(sorted_.begin(), sorted_.end());
    return sum + sorted_[sorted_.size() / 2];
  }

  std::vector<uint64_t> keys_ = std::vector<uint64_t>(size_t{1} << kBits);
  std::vector<uint64_t> values_ = std::vector<uint64_t>(size_t{1} << kBits);
  std::vector<uint32_t> sorted_ = std::vector<uint32_t>(100000);
};

int time_setup(int reps, const Workload& w) {
  Calibration calibration;
  const double before = calibration.probe_seconds();
  std::vector<double> times;
  size_t rules = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const std::unique_ptr<Snapshot> s = build_topology(w);
    routing::FibBuilder::compute_and_build(*s->network, *s->routing);
    install_post_fib_state(w, *s, *s->network, *s->routing);
    // Tearing the snapshot down is not set-up: stop the clock first.
    times.push_back(seconds_since(start));
    rules = s->network->rule_count();
  }
  const double after = calibration.probe_seconds();
  std::printf("{\"setup_s\":[");
  for (size_t r = 0; r < times.size(); ++r) std::printf("%s%.9f", r ? "," : "", times[r]);
  std::printf("],\"probe_s\":[%.9f,%.9f],\"rules\":%zu}\n", before, after, rules);
  return 0;
}

int write_spec(uint64_t seed, int count, const std::string& path, const Workload& w) {
  const std::unique_ptr<Snapshot> s = build_topology(w);
  const std::string text =
      scenario::random_link_scenarios(*s->network, count, seed, 1).to_text();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    int dash = 0;
    const Workload w = parse_workload(workload_args(argc, argv, dash));
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "setup" && dash == 3) return time_setup(std::stoi(argv[2]), w);
    if (cmd == "spec" && dash == 5) {
      return write_spec(std::stoull(argv[2]), std::stoi(argv[3]), argv[4], w);
    }
    std::fprintf(stderr, "usage: %s setup REPS -- ARGS | %s spec SEED COUNT FILE -- ARGS\n",
                 argv[0], argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
