#include "nettest/state_checks.hpp"

#include <algorithm>

#include "nettest/instrument.hpp"
#include "routing/config.hpp"

namespace yardstick::nettest {

TestResult DefaultRouteCheck::run(const dataplane::Transfer& transfer,
                                  ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();

  for (const net::Device& dev : network.devices()) {
    if (dev.role == net::Role::Wan || excluded_.contains(dev.id)) continue;
    ++result.checks;

    const net::RuleId rid = transfer.rule_for_prefix(dev.id, packet::default_route_prefix());
    if (!rid.valid()) {
      result.fail(dev.name + ": no default route");
      continue;
    }
    // The inspection itself is the coverage event, whether or not the
    // assertion below holds.
    mark_inspected_rule(tracker, rid);

    if (network.rule(rid).action_type() != net::ActionType::Forward) {
      result.fail(dev.name + ": default route does not forward (null route?)");
      continue;
    }
    std::vector<net::InterfaceId> expected;
    for (const auto& [intf, peer] : network.neighbors(dev.id)) {
      if (routing::tier(network.device(peer).role) > routing::tier(dev.role)) {
        expected.push_back(intf);
      }
    }
    std::sort(expected.begin(), expected.end());
    const std::span<const net::InterfaceId> outs = network.out_interfaces(rid);
    std::vector<net::InterfaceId> actual(outs.begin(), outs.end());
    std::sort(actual.begin(), actual.end());
    if (actual != expected) {
      result.fail(dev.name + ": default route next hops are not the northern neighbors");
    }
  }
  return result;
}

TestResult ConnectedRouteCheck::run(const dataplane::Transfer& transfer,
                                    ys::CoverageTracker& tracker) const {
  const net::Network& network = transfer.network();
  TestResult result = make_result();

  for (const net::Link& link : network.links()) {
    if (!link.subnet) continue;
    for (const net::InterfaceId side : {link.a, link.b}) {
      const net::Interface& intf = network.interface(side);
      ++result.checks;
      const net::RuleId rid = transfer.rule_for_prefix(intf.device, *link.subnet);
      if (!rid.valid()) {
        result.fail(network.device(intf.device).name + ": missing connected route for " +
                    link.subnet->to_string());
        continue;
      }
      mark_inspected_rule(tracker, rid);

      const net::Rule& rule = network.rule(rid);
      const std::span<const net::InterfaceId> outs = network.out_interfaces(rid);
      const bool forwards_on_link = rule.action_type() == net::ActionType::Forward &&
                                    std::find(outs.begin(), outs.end(), side) != outs.end();
      if (rule.kind != net::RouteKind::Connected || !forwards_on_link) {
        result.fail(network.device(intf.device).name + ": connected route for " +
                    link.subnet->to_string() + " malformed");
      }
    }
  }
  return result;
}

}  // namespace yardstick::nettest
