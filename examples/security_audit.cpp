// Security-policy audit: coverage for the ACL half of the taxonomy.
//
// Installs ingress ACLs on every ToR of a regional network (deny a set of
// dangerous TCP ports, then permit), runs a security-focused test suite —
// the Figure 2 ACL rows plus a firewall-traversal waypoint check — and
// shows how Yardstick accounts for security rules: which ACL entries are
// exercised, how ACL denial clips behavioral coverage of the FIB behind
// it, and what the remaining security-rule gaps are.
#include <cstdio>
#include <memory>

#include "nettest/acl_checks.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/waypoint.hpp"
#include "routing/fib_builder.hpp"
#include "topo/acl.hpp"
#include "topo/regional.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

int main() {
  topo::RegionalParams params;
  params.datacenters = 1;
  // One aggregation router per pod and one spine: every inter-pod path
  // crosses the spine, making it a genuine waypoint (firewall stand-in).
  params.aggs_per_pod = 1;
  params.spines_per_dc = 1;
  topo::RegionalNetwork region = topo::make_regional(params);
  routing::FibBuilder::compute_and_build(region.network, region.routing);

  // Security policy: ToR ingress ACLs deny telnet and SMB-era ports.
  const topo::SecurityPolicy policy{{23, 135, 139, 445}};
  topo::install_ingress_acls(region.network, region.tors, policy);
  std::printf("network with ToR ingress ACLs: %s\n\n", region.network.summary().c_str());

  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::CoverageTracker tracker;

  // The security suite: state inspection of the deny entries, the local
  // symbolic blocked-port check, and a waypoint obligation (inter-pod
  // traffic must traverse the spine layer — a stand-in for "must traverse
  // the firewall").
  nettest::TestSuite suite("security");
  suite.add(std::make_unique<nettest::AclBlockCheck>(policy.blocked_tcp_ports));
  suite.add(std::make_unique<nettest::BlockedPortCheck>(policy.blocked_tcp_ports));

  std::vector<nettest::WaypointQuery> waypoints;
  const net::DeviceId src_tor = region.tors.front();
  const net::DeviceId dst_tor = region.tors.back();
  nettest::WaypointQuery q;
  q.source = src_tor;
  q.source_interface =
      region.network.ports_of_kind(src_tor, net::PortKind::HostPort).front();
  q.headers = packet::PacketSet::dst_prefix(
      mgr, region.network.device(dst_tor).host_prefixes.front());
  q.waypoint = region.spines.front();
  waypoints.push_back(q);

  suite.add(std::make_unique<nettest::WaypointCheck>("AllPacketsViaSpine", waypoints));
  suite.add(std::make_unique<nettest::TracerouteWaypointCheck>("TracerouteViaSpine",
                                                               waypoints));

  const ys::CoverageEngine engine(
      mgr, region.network,
      [&](const dataplane::Transfer& transfer) -> const coverage::CoverageTrace& {
        for (const auto& result : suite.run_all(transfer, tracker)) {
          std::printf("test %-24s %s (%zu checks, %zu failures)\n", result.name.c_str(),
                      result.passed() ? "PASS" : "FAIL", result.checks, result.failures);
        }
        return tracker.trace();
      });
  const ys::CoverageReport report = engine.report();
  std::printf("\n%s\n", report.to_text().c_str());

  std::printf("security-rule accounting:\n");
  for (const auto& gap : report.gaps) {
    if (gap.kind == net::RouteKind::Security) {
      std::printf("  ACL entries: %zu untested of %zu\n", gap.untested, gap.total);
    }
  }
  const net::DeviceId tor = region.tors.front();
  std::printf("  first ToR device coverage (ACL entries included): %.6f%%\n",
              engine.device_coverage(tor) * 100.0);
  std::printf("\nNote the clipping effect: packets the ACL denies can no longer\n"
              "exercise FIB rules behaviorally, so Yardstick's covered sets for\n"
              "rules behind an ACL exclude the denied space automatically.\n");
  return 0;
}
