#include "nettest/acl_checks.hpp"

#include "nettest/instrument.hpp"

namespace yardstick::nettest {

using packet::Field;
using packet::PacketSet;

TestResult AclBlockCheck::run(const dataplane::Transfer& transfer,
                              ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();

  for (const net::Device& dev : network.devices()) {
    if (!network.has_acl(dev.id)) continue;
    for (const uint16_t port : ports_) {
      ++result.checks;
      bool found = false;
      for (const net::RuleId rid : network.table(dev.id, net::TableKind::Acl)) {
        const std::optional<net::PortRange> dst_port = network.match_spec(rid).dst_port;
        const bool denies_port = network.rule(rid).action_type() == net::ActionType::Drop &&
                                 dst_port && dst_port->lo <= port && port <= dst_port->hi;
        if (!denies_port) continue;
        mark_inspected_rule(tracker, rid);
        found = true;
        break;
      }
      if (!found) {
        result.fail(dev.name + ": ACL has no deny entry for port " + std::to_string(port));
      }
    }
  }
  return result;
}

TestResult BlockedPortCheck::run(const dataplane::Transfer& transfer,
                                 ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  bdd::BddManager& mgr = transfer.index().manager();
  TestResult result = make_result();

  PacketSet probe = PacketSet::none(mgr);
  for (const uint16_t port : ports_) {
    probe = probe.union_with(PacketSet::field_equals(mgr, Field::DstPort, port));
  }
  probe = probe.intersect(PacketSet::field_equals(mgr, Field::Proto, 6));

  for (const net::Device& dev : network.devices()) {
    if (!network.has_acl(dev.id)) continue;
    ++result.checks;
    mark_local_injection(tracker, dev.id, probe);
    const dataplane::DeviceStage stage =
        transfer.process(dev.id, net::InterfaceId{}, probe);
    if (!stage.permitted.empty()) {
      result.fail(dev.name + ": ACL permits packets to a blocked port");
    }
  }
  return result;
}

}  // namespace yardstick::nettest
