#include "coverage/components.hpp"

#include "obs/trace.hpp"

namespace yardstick::coverage {

using packet::PacketSet;

ComponentFactory::ComponentFactory(const dataplane::Transfer& transfer)
    : transfer_(transfer) {
  obs::Span span("component_factory.build", "offline");
  const net::Network& network = transfer.network();
  rules_to_interface_.resize(network.interface_count());
  size_t pairs = 0;
  for (const net::Rule& rule : network.rules()) {
    for (const net::InterfaceId out : network.out_interfaces(rule.id)) {
      rules_to_interface_[out.value].push_back(rule.id);
      ++pairs;
    }
  }
  span.arg("interfaces", network.interface_count());
  span.arg("pairs", pairs);
}

GuardedString ComponentFactory::rule_string(net::RuleId id) const {
  return {transfer_.index().match_set(id), {id}, packet::kNoLocation};
}

ComponentSpec ComponentFactory::rule(net::RuleId id) const {
  return {{rule_string(id)}, fraction_measure(), single_combinator()};
}

ComponentSpec ComponentFactory::device(net::DeviceId id) const {
  ComponentSpec spec;
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    for (const net::RuleId rid : transfer_.network().table(id, table)) {
      spec.strings.push_back(rule_string(rid));
    }
  }
  spec.measure = fraction_measure();
  spec.combinator = weighted_mean_combinator();
  return spec;
}

ComponentSpec ComponentFactory::interface(net::InterfaceId id,
                                          InterfaceDirection direction) const {
  ComponentSpec spec;
  spec.measure = fraction_measure();
  spec.combinator = weighted_mean_combinator();
  if (direction == InterfaceDirection::Outgoing) {
    for (const net::RuleId rid : rules_to_interface_[id.value]) {
      spec.strings.push_back(rule_string(rid));
    }
  } else {
    const net::DeviceId device = transfer_.network().interface(id).device;
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : transfer_.network().table(device, table)) {
        GuardedString g = rule_string(rid);
        g.at_location = net::to_location(id);  // guard limited to this ingress
        spec.strings.push_back(std::move(g));
      }
    }
  }
  return spec;
}

ComponentSpec ComponentFactory::path(std::vector<net::RuleId> rules,
                                     PacketSet guard) const {
  ComponentSpec spec;
  spec.strings.push_back({std::move(guard), std::move(rules), packet::kNoLocation});
  spec.measure = path_measure(transfer_);
  spec.combinator = single_combinator();
  return spec;
}

ComponentSpec ComponentFactory::flow(net::DeviceId device, net::InterfaceId in_interface,
                                     const PacketSet& headers, int max_depth) const {
  ComponentSpec spec;
  spec.measure = path_measure(transfer_);
  spec.combinator = weighted_mean_combinator();

  PathExplorer::Options options;
  options.max_depth = max_depth;
  const PathExplorer explorer(transfer_, nullptr, options);
  bdd::BddManager& mgr = transfer_.index().manager();
  explorer.explore(device, in_interface, headers, [&](const ExploredPath& p) {
    // Recover the guard at the flow origin. Without rewrites along the
    // path the final set *is* the guard; otherwise reverse through
    // pre-images (same procedure the explorer used for the size).
    PacketSet guard = p.final_set;
    for (auto it = p.rules.rbegin(); it != p.rules.rend(); ++it) {
      const net::Rule& rule = transfer_.network().rule(*it);
      if (!transfer_.network().rewrites(*it).empty()) {
        guard = transfer_.rewrite_preimage(rule, guard);
      }
      guard = guard.intersect(transfer_.index().match_set(*it));
    }
    guard = guard.intersect(headers);
    if (!guard.empty() && !p.rules.empty()) {
      spec.strings.push_back({guard, p.rules, packet::kNoLocation});
    }
    return true;
  });
  // The manager reference is only used here to keep the empty-flow case
  // well-formed: a flow with no viable paths gets a vacuous empty string.
  if (spec.strings.empty()) {
    spec.strings.push_back({PacketSet::none(mgr), {}, packet::kNoLocation});
  }
  return spec;
}

ComponentSpec ComponentFactory::coflow(const std::vector<FlowEndpoint>& flows,
                                       int max_depth) const {
  ComponentSpec spec;
  spec.measure = path_measure(transfer_);
  spec.combinator = weighted_mean_combinator();
  for (const FlowEndpoint& endpoint : flows) {
    ComponentSpec one = flow(endpoint.device, endpoint.in_interface, endpoint.headers,
                             max_depth);
    for (GuardedString& g : one.strings) {
      if (!g.rules.empty()) spec.strings.push_back(std::move(g));
    }
  }
  if (spec.strings.empty()) {
    spec.strings.push_back(
        {packet::PacketSet::none(transfer_.index().manager()), {}, packet::kNoLocation});
  }
  return spec;
}

namespace {

std::vector<net::DeviceId> every_device(const net::Network& network) {
  std::vector<net::DeviceId> out;
  out.reserve(network.device_count());
  for (const net::Device& d : network.devices()) out.push_back(d.id);
  return out;
}

}  // namespace

std::vector<ComponentSpec> ComponentFactory::all_rules(
    const std::vector<net::DeviceId>& devices) const {
  const net::Network& network = transfer_.network();
  std::vector<ComponentSpec> out;
  for (const net::DeviceId id : devices) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(id, table)) out.push_back(rule(rid));
    }
  }
  return out;
}

std::vector<ComponentSpec> ComponentFactory::all_rules() const {
  return all_rules(every_device(transfer_.network()));
}

std::vector<ComponentSpec> ComponentFactory::all_devices(
    const std::vector<net::DeviceId>& devices) const {
  std::vector<ComponentSpec> out;
  for (const net::DeviceId id : devices) out.push_back(device(id));
  return out;
}

std::vector<ComponentSpec> ComponentFactory::all_devices() const {
  return all_devices(every_device(transfer_.network()));
}

std::vector<ComponentSpec> ComponentFactory::all_interfaces(
    const std::vector<net::DeviceId>& devices, InterfaceDirection direction) const {
  const net::Network& network = transfer_.network();
  std::vector<ComponentSpec> out;
  for (const net::DeviceId id : devices) {
    for (const net::InterfaceId intf : network.device(id).interfaces) {
      out.push_back(interface(intf, direction));
    }
  }
  return out;
}

std::vector<ComponentSpec> ComponentFactory::all_interfaces(
    InterfaceDirection direction) const {
  return all_interfaces(every_device(transfer_.network()), direction);
}

}  // namespace yardstick::coverage
