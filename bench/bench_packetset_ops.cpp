// Microbenchmarks for the Figure 5 packet-set operations, plus the BDD
// operation-cache ablation called out in DESIGN.md.
//
// The paper implements these operations on BDDs because they are the
// inner loop of both coverage tracking (markPacket unions) and metric
// computation (match-set intersections, counting). The benchmarks measure
// them on realistic operands: unions of hundreds of /24 routes, the
// shapes that appear in data-center FIBs.
//
// Each operation runs a fixed number of times inside one bench::measure
// call; the table prints ns/op from that call's `bench.run` span.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "packet/packet_set.hpp"

using namespace yardstick;
using packet::Ipv4Prefix;
using packet::PacketSet;

namespace {

/// The `i`-th /24 destination prefix above `base`.
PacketSet route(bdd::BddManager& mgr, uint64_t i, uint32_t base = 0x0a000000u) {
  return PacketSet::dst_prefix(mgr, Ipv4Prefix(base + (static_cast<uint32_t>(i) << 8), 24));
}

/// A union of `n` distinct /24 destination prefixes (FIB-like operand).
PacketSet prefixes(bdd::BddManager& mgr, int n, uint32_t base = 0x0a000000u) {
  PacketSet acc = PacketSet::none(mgr);
  for (int i = 0; i < n; ++i) acc = acc.union_with(route(mgr, i, base));
  return acc;
}

/// Keeps the compiler from discarding a result nothing reads.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

/// Runs op(i) for i in [0, iterations) inside one measured call and prints
/// its ns/op.
template <class Op>
void row(const std::string& name, const std::string& label, uint64_t iterations, Op&& op) {
  const bench::Run run = bench::measure([&] {
    for (uint64_t i = 0; i < iterations; ++i) op(i);
  });
  const double ns = run.seconds({"bench.run"}) * 1e9 / static_cast<double>(iterations);
  std::printf("%-22s %-20s %10llu %12.1f\n", name.c_str(), label.c_str(),
              static_cast<unsigned long long>(iterations), ns);
}

}  // namespace

int main() {
  constexpr uint64_t kIterations = 100'000;
  std::printf("%-22s %-20s %10s %12s\n", "operation", "operand", "iterations", "ns/op");

  {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    row("from_rule_prefix", "/24", kIterations, [&](uint64_t i) { keep(route(mgr, i)); });
  }
  for (const int n : {16, 128, 1024}) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const PacketSet a = prefixes(mgr, n);
    const PacketSet b = prefixes(mgr, n, 0x0b000000u);
    row("union", std::to_string(n) + " prefixes", kIterations,
        [&](uint64_t) { keep(a.union_with(b)); });
  }
  for (const int n : {16, 128, 1024}) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const PacketSet a = prefixes(mgr, n);
    const PacketSet b = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/9"));
    row("intersect", std::to_string(n) + " prefixes", kIterations,
        [&](uint64_t) { keep(a.intersect(b)); });
  }
  {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const PacketSet a = prefixes(mgr, 128);
    row("negate", "128 prefixes", kIterations, [&](uint64_t) { keep(a.negate()); });
  }
  {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const PacketSet a = prefixes(mgr, 256);
    const PacketSet b = prefixes(mgr, 256);
    // O(1): canonical form.
    row("equal", "256 prefixes", kIterations, [&](uint64_t) { keep(a.equal(b)); });
  }
  for (const int n : {16, 1024}) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const PacketSet a = prefixes(mgr, n);
    row("count", std::to_string(n) + " prefixes", kIterations,
        [&](uint64_t) { keep(a.count()); });
  }
  // The §5.2 step-1 pattern: walk an ordered table, carving each match
  // field against everything claimed so far. One op is one whole walk.
  for (const int rules : {128, 1024}) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    row("disjoint_match_walk", std::to_string(rules) + " rules", kIterations / rules,
        [&](uint64_t) {
          PacketSet claimed = PacketSet::none(mgr);
          for (int i = 0; i < rules; ++i) {
            const PacketSet field = route(mgr, i);
            keep(field.minus(claimed));
            claimed = claimed.union_with(field);
          }
        });
  }
  // Design-choice ablation: the same FIB-style union workload with the BDD
  // operation cache disabled.
  for (const bool cache : {true, false}) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    mgr.set_cache_enabled(cache);
    const PacketSet a = prefixes(mgr, 256);
    const PacketSet b = prefixes(mgr, 256, 0x0b000000u);
    row("union_cache_ablation", cache ? "cache on" : "cache OFF", kIterations,
        [&](uint64_t) { keep(a.union_with(b)); });
  }
  return 0;
}
