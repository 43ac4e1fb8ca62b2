#include "nettest/waypoint.hpp"

#include "dataplane/simulator.hpp"
#include "nettest/instrument.hpp"
#include "nettest/reachability.hpp"

namespace yardstick::nettest {

using packet::PacketSet;

TestResult WaypointCheck::run(const dataplane::Transfer& transfer,
                              ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();
  const dataplane::SymbolicSimulator sim(transfer);

  for (const WaypointQuery& q : queries_) {
    ++result.checks;
    // Collect headers observed at the waypoint while marking coverage for
    // every hop — one visitor serves both purposes.
    PacketSet at_waypoint = PacketSet::none(mgr);
    const auto marker = symbolic_hop_marker(tracker);
    const dataplane::SymbolicResult outcome = sim.flood(
        q.source, q.source_interface, q.headers, 64,
        [&](net::DeviceId device, net::InterfaceId in_interface,
            const PacketSet& arriving) {
          marker(device, in_interface, arriving);
          if (device == q.waypoint) at_waypoint = at_waypoint.union_with(arriving);
        });

    PacketSet delivered = PacketSet::none(mgr);
    for (const auto& [loc, ps] : outcome.delivered.entries()) {
      delivered = delivered.union_with(ps);
    }
    if (!delivered.minus(at_waypoint).empty()) {
      result.fail(name_ + ": packets from " + network.device(q.source).name +
                  " reach their destination without traversing " +
                  network.device(q.waypoint).name);
    }
  }
  return result;
}

TestResult TracerouteWaypointCheck::run(const dataplane::Transfer& transfer,
                                        ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();
  dataplane::ConcreteTrace trace;

  for (const WaypointQuery& q : queries_) {
    if (q.headers.empty()) continue;
    ++result.checks;
    probe(transfer, tracker, q.source, q.source_interface, q.headers.sample(), trace);
    bool traversed = false;
    for (const dataplane::ConcreteHop& hop : trace.hops) {
      if (hop.device == q.waypoint) traversed = true;
    }
    if (trace.disposition != dataplane::Disposition::Delivered) {
      result.fail(name_ + ": traceroute " + to_string(trace.disposition));
    } else if (!traversed) {
      result.fail(name_ + ": traceroute bypassed " + network.device(q.waypoint).name);
    }
  }
  return result;
}

}  // namespace yardstick::nettest
