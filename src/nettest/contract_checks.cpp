#include "nettest/contract_checks.hpp"

#include "nettest/instrument.hpp"
#include "nettest/shortest_paths.hpp"

namespace yardstick::nettest {

namespace {

using DeviceScope = bool (*)(const net::Device&);
/// Appends the origin's prefixes under contract to the buffer.
using PrefixesOf = void (*)(const net::Device&, std::vector<packet::Ipv4Prefix>&);

/// Shared contract engine: for every (origin, prefix) pair, verify each
/// in-scope device's FIB entry against the BFS shortest-path contract and
/// report the injected packet set. Every buffer is sized once per run, so a
/// check allocates nothing unless it fails.
void run_contracts(const dataplane::Transfer& transfer, ys::CoverageTracker& tracker,
                   TestResult& result, PrefixesOf prefixes_of, DeviceScope in_scope) {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  FabricDistances dist(network);
  std::vector<packet::Ipv4Prefix> prefixes;

  for (const net::Device& origin : network.devices()) {
    prefixes.clear();
    prefixes_of(origin, prefixes);
    if (prefixes.empty()) continue;
    dist.from(origin.id);

    for (const packet::Ipv4Prefix& prefix : prefixes) {
      const packet::PacketSet injected = packet::PacketSet::dst_prefix(mgr, prefix);

      for (const net::Device& dev : network.devices()) {
        if (!in_scope(dev)) continue;
        // Contracts exist only for devices d >= 1 hops from the origin
        // (§7.3: "if the device v' is d hops away from v, it should
        // forward {pv} to all its neighbors with distance d-1"). The
        // originator's own delivery rule is out of scope — which is why
        // host-facing interfaces stay untested until a dedicated test
        // exists (Fig. 6d).
        if (dist[dev.id] <= 0) continue;
        ++result.checks;

        const net::RuleId rid = transfer.rule_for_prefix(dev.id, prefix);
        if (!rid.valid()) {
          result.fail(dev.name + ": no route for internal prefix " + prefix.to_string());
          continue;
        }
        // The contract evaluation injects `injected` at the device — the
        // coverage event — then asserts on the forwarding decision.
        mark_local_injection(tracker, dev.id, injected);

        const net::Rule& rule = network.rule(rid);
        if (rule.action.type != net::ActionType::Forward) {
          result.fail(dev.name + ": internal prefix " + prefix.to_string() + " dropped");
          continue;
        }
        if (!dist.is_contract_next_hops(dev.id, rule.action.out_interfaces)) {
          result.fail(dev.name + ": prefix " + prefix.to_string() +
                      " not forwarded along all shortest paths");
        }
      }
    }
  }
}

void internal_prefixes(const net::Device& dev, std::vector<packet::Ipv4Prefix>& out) {
  out.insert(out.end(), dev.host_prefixes.begin(), dev.host_prefixes.end());
  out.insert(out.end(), dev.loopbacks.begin(), dev.loopbacks.end());
}

}  // namespace

TestResult InternalRouteCheck::run(const dataplane::Transfer& transfer,
                                   ys::CoverageTracker& tracker) const {
  TestResult result = make_result();
  run_contracts(transfer, tracker, result, internal_prefixes,
                [](const net::Device&) { return true; });
  return result;
}

TestResult ToRContract::run(const dataplane::Transfer& transfer,
                            ys::CoverageTracker& tracker) const {
  TestResult result = make_result();
  run_contracts(
      transfer, tracker, result,
      [](const net::Device& dev, std::vector<packet::Ipv4Prefix>& out) {
        if (dev.role == net::Role::ToR) out = dev.host_prefixes;
      },
      [](const net::Device&) { return true; });
  return result;
}

TestResult AggCanReachTorLoopback::run(const dataplane::Transfer& transfer,
                                       ys::CoverageTracker& tracker) const {
  TestResult result = make_result();
  run_contracts(
      transfer, tracker, result,
      [](const net::Device& dev, std::vector<packet::Ipv4Prefix>& out) {
        if (dev.role == net::Role::ToR) out = dev.loopbacks;
      },
      [](const net::Device& dev) { return dev.role == net::Role::Aggregation; });
  return result;
}

}  // namespace yardstick::nettest
