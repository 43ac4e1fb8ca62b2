#include "nettest/local_forward.hpp"

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
  FabricDistances dist(network);

  for (const net::Device& origin : network.devices()) {
    if (origin.host_prefixes.empty()) continue;
    dist.from(origin.id);

    for (const packet::Ipv4Prefix& prefix : origin.host_prefixes) {
      // One sampled packet into the prefix per contract (local concrete).
      ConcretePacket pkt;
      pkt.dst_ip = prefix.first() + 1;
      pkt.proto = 6;
      pkt.dst_port = 443;

      for (const net::Device& dev : network.devices()) {
        if (dist[dev.id] <= 0) continue;  // no contract at the origin
        ++result.checks;
        // Report the single concrete packet injected at this device.
        mark_local_injection(tracker, dev.id, PacketSet::from_packet(mgr, pkt));

        const net::RuleId rid = transfer.lookup(dev.id, net::InterfaceId{}, pkt);
        if (!rid.valid()) {
          result.fail(dev.name + ": no route for sampled packet to " + prefix.to_string());
          continue;
        }
        if (network.rule(rid).action_type() != net::ActionType::Forward) {
          result.fail(dev.name + ": sampled packet to " + prefix.to_string() + " dropped");
          continue;
        }
        // Each egress must face a neighbor one hop closer to the origin.
        for (const net::InterfaceId out : network.out_interfaces(rid)) {
          if (!dist.toward_origin(dev.id, out)) {
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
