#include "nettest/local_forward.hpp"

#include <algorithm>

#include "nettest/instrument.hpp"
#include "nettest/shortest_paths.hpp"

namespace yardstick::nettest {

using packet::ConcretePacket;
using packet::PacketSet;

TestResult LocalForwardCheck::run(const dataplane::Transfer& transfer,
                                  ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();

  for (const net::Device& origin : network.devices()) {
    if (origin.host_prefixes.empty()) continue;
    const std::vector<int> dist = fabric_distances(network, origin.id);

    for (const packet::Ipv4Prefix& prefix : origin.host_prefixes) {
      // One sampled packet into the prefix per contract (local concrete).
      ConcretePacket pkt;
      pkt.dst_ip = prefix.first() + 1;
      pkt.proto = 6;
      pkt.dst_port = 443;

      for (const net::Device& dev : network.devices()) {
        if (dist[dev.id.value] <= 0) continue;  // no contract at the origin
        ++result.checks;
        // Report the single concrete packet injected at this device.
        mark_local_injection(tracker, dev.id, PacketSet::from_packet(mgr, pkt));

        const net::RuleId rid = transfer.lookup(dev.id, net::InterfaceId{}, pkt);
        if (!rid.valid()) {
          result.fail(dev.name + ": no route for sampled packet to " + prefix.to_string());
          continue;
        }
        const net::Rule& rule = network.rule(rid);
        if (rule.action.type != net::ActionType::Forward) {
          result.fail(dev.name + ": sampled packet to " + prefix.to_string() + " dropped");
          continue;
        }
        // Each egress must face a neighbor one hop closer to the origin.
        const std::vector<net::InterfaceId> expected =
            contract_next_hops(network, dist, dev.id);
        for (const net::InterfaceId out : rule.action.out_interfaces) {
          if (std::find(expected.begin(), expected.end(), out) == expected.end()) {
            result.fail(dev.name + ": packet to " + prefix.to_string() +
                        " forwarded off the shortest paths");
            break;
          }
        }
      }
    }
  }
  return result;
}

}  // namespace yardstick::nettest
