// Incremental recomputation (DESIGN.md §11): how much of the offline phase
// does the content-hash cache save under realistic churn?
//
// Workload: a k-ary fat tree (YS_INC_K, default 8) whose devices each carry
// a 24-rule five-tuple ACL on top of their FIBs, and the standard §8.1
// suite's trace enriched with 512 exact five-tuple telemetry flows per
// device. The engine is built from scratch and from a warm cache (one
// thread; the time is the harness's `bench.run` span around the
// construction, which holds the whole offline phase); then a FIB edit lands on YS_INC_CHURN_PCT percent
// of the devices (default 5) and the two rebuilds are compared under the
// harness's timing rule, the seeded cache restored before each incremental
// run so every one sees the same churn.
//
// Gates: the incremental rebuild after churn reuses exactly devices −
// churned match records, and the pairs' median speedup over scratch is at
// least YS_INC_MIN_SPEEDUP (default 5). Results go to stdout and
// BENCH_incremental.json.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

namespace {

constexpr int kAclRules = 24;
constexpr int kFlows = 512;

/// Every device gets a kAclRules-rule five-tuple ingress ACL (port ranges
/// and prefixes): ACL match fields are where the offline phase spends its
/// BDD budget, exactly the work a warm cache avoids.
void add_acls(net::Network& network) {
  for (const net::Device& dev : network.devices()) {
    for (int i = 0; i < kAclRules; ++i) {
      net::MatchSpec match;
      match.src_prefix = packet::Ipv4Prefix::parse(
          "10." + std::to_string((dev.id.value * 7 + i) % 200) + ".0.0/16");
      match.proto = i % 2 == 0 ? uint8_t{6} : uint8_t{17};
      match.src_port = net::PortRange{static_cast<uint16_t>(1024 + i * 137),
                                      static_cast<uint16_t>(1024 + i * 137 + 99)};
      match.dst_port = net::PortRange{static_cast<uint16_t>(2000 + i * 211),
                                      static_cast<uint16_t>(2000 + i * 211 + 499)};
      network.add_rule(dev.id, match, i % 3 == 0 ? net::Action::drop() : net::Action::permit(),
                       net::RouteKind::Other, static_cast<uint32_t>(i), net::TableKind::Acl);
    }
  }
}

/// kFlows telemetry-shaped marks per device: exact five-tuples, each a
/// distinct BDD path, so the device's observed-header union has no
/// structure to collapse into. Scratch recomputation intersects every rule
/// with that union; the cached per-rule covered sets stay near-empty.
void add_flows(bdd::BddManager& mgr, const net::Network& network,
               coverage::CoverageTrace& trace) {
  const auto slash32 = [](uint32_t a, uint32_t b, uint32_t c) {
    return packet::Ipv4Prefix::parse("10." + std::to_string(a % 200) + "." +
                                     std::to_string(b % 256) + "." +
                                     std::to_string(c % 256) + "/32");
  };
  for (const net::Device& dev : network.devices()) {
    const uint32_t d = dev.id.value;
    for (uint32_t i = 0; i < kFlows; ++i) {
      const packet::PacketSet flow =
          packet::PacketSet::src_prefix(mgr, slash32(d * 5 + i, i, d + i * 13))
              .intersect(packet::PacketSet::dst_prefix(mgr, slash32(d * 11 + i * 3, i * 7, d * 3 + i)))
              .intersect(packet::PacketSet::field_equals(mgr, packet::Field::Proto,
                                                         i % 2 == 0 ? 6 : 17))
              .intersect(packet::PacketSet::field_equals(mgr, packet::Field::SrcPort,
                                                         (1024 + i * 97) % 65536))
              .intersect(packet::PacketSet::field_equals(mgr, packet::Field::DstPort,
                                                         (2000 + i * 53) % 65536));
      trace.mark_packet(net::device_location(dev.id), flow);
    }
  }
}

}  // namespace

int main() {
  const int k = static_cast<int>(bench::knob("YS_INC_K", 8));
  const double churn_pct = bench::knob("YS_INC_CHURN_PCT", 5.0);
  const double floor = bench::knob("YS_INC_MIN_SPEEDUP", 5.0);
  const bench::ScratchDir cache_dir;

  topo::FatTree routed = bench::routed_fat_tree(k);
  add_acls(routed.network);
  bench::TracedFatTree t(
      std::move(routed),
      bench::suite<nettest::DefaultRouteCheck, nettest::ToRContract, nettest::ToRPingmesh>());
  add_flows(t.mgr, t.tree.network, t.trace);
  net::Network& network = t.tree.network;
  std::printf("# bench_incremental (DESIGN.md §11), k=%d: %zu devices, %zu rules "
              "(%d-rule ACL per device)\n",
              k, network.device_count(), network.rule_count(), kAclRules);
  bench::Envelope envelope("incremental");

  // One engine construction on a fresh manager; `dir` empty = no cache.
  size_t match_hits = 0;
  size_t devices = 0;
  const auto build = [&](const std::string& dir) {
    bdd::BddManager mgr(packet::kNumHeaderBits);
    const coverage::CoverageTrace local = t.trace.imported_into(mgr);
    return bench::measure([&] {
      const ys::CoverageEngine engine(mgr, network, local,
                                      ys::EngineOptions{nullptr, 1, dir});
      if (const ys::CacheStats* stats = engine.cache_stats()) {
        match_hits = stats->match_hits;
        devices = stats->devices;
      }
    });
  };
  const auto engine_s = [](const bench::Run& run) { return run.seconds({"bench.run"}); };
  const auto single = [&](const char* name, const std::string& dir) {
    const bench::Run run = build(dir);
    std::printf("  %-28s %.6fs", name, engine_s(run));
    if (!dir.empty()) std::printf("  (%zu/%zu records reused)", match_hits, devices);
    std::printf("\n");
    envelope.config(name, run, {{"match_hits", static_cast<double>(match_hits)},
                                {"devices", static_cast<double>(devices)}});
  };
  single("scratch", "");
  single("incremental, cold (seeds)", cache_dir.path());
  cache_dir.copy("coverage.cache", "seeded.cache");
  single("incremental, unchanged", cache_dir.path());

  // Churn: one route edit on churn_pct% of the ToRs, the daily-operations
  // delta. Each edit invalidates exactly that device.
  size_t churned = 0;
  const size_t target = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(network.device_count()) * churn_pct / 100.0));
  for (const net::DeviceId tor : t.tree.tors) {
    if (churned >= target) break;
    const auto fib = network.table(tor);
    if (fib.empty()) continue;
    network.set_action(fib.front(), net::Action::drop());
    ++churned;
  }
  std::printf("  churn: FIB edit on %zu/%zu devices (%.1f%%)\n", churned,
              network.device_count(),
              100.0 * static_cast<double>(churned) / static_cast<double>(network.device_count()));

  const auto [scratch, incremental] = bench::alternate(
      [&] { return build(""); },
      [&] {
        cache_dir.copy("seeded.cache", "coverage.cache");
        return build(cache_dir.path());
      });
  const bench::Timing scratch_t = bench::timing(scratch, engine_s);
  const bench::Timing incremental_t = bench::timing(incremental, engine_s);
  const double speedup = bench::median_ratio(scratch, incremental, engine_s);
  std::printf("  after churn, %d pairs: medians scratch %.6fs, incremental %.6fs "
              "(%zu/%zu records reused); median speedup %.2fx (cold pair %.6fs vs %.6fs)\n",
              bench::kPairs, scratch_t.median_s, incremental_t.median_s, match_hits, devices,
              speedup, scratch_t.cold_s, incremental_t.cold_s);
  envelope.config("scratch after churn", scratch.timed, scratch_t.values());
  bench::Values values = incremental_t.values();
  values.insert(values.end(), {{"match_hits", static_cast<double>(match_hits)},
                               {"devices", static_cast<double>(devices)},
                               {"churned", static_cast<double>(churned)}});
  envelope.config("incremental after churn", incremental.timed, values);

  envelope.gate("records reused after churn", static_cast<double>(match_hits),
                static_cast<double>(devices - churned), match_hits == devices - churned);
  envelope.gate("median incremental speedup after churn", speedup, floor, speedup >= floor);
  return envelope.write("BENCH_incremental.json");
}
