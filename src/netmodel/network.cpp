#include "netmodel/network.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "common/status.hpp"

namespace yardstick::net {

DeviceId Network::add_device(std::string name, Role role, uint32_t asn) {
  const DeviceId id{static_cast<uint32_t>(devices_.size())};
  if (device_by_name_.contains(name)) {
    throw ys::InvalidInputError("duplicate device name: " + name);
  }
  device_by_name_.emplace(name, id);
  Device d;
  d.id = id;
  d.name = std::move(name);
  d.role = role;
  d.asn = asn;
  devices_.push_back(std::move(d));
  tables_.emplace_back();
  return id;
}

InterfaceId Network::add_interface(DeviceId device, std::string name, PortKind kind) {
  assert(device.value < devices_.size());
  const InterfaceId id{static_cast<uint32_t>(interfaces_.size())};
  Interface intf;
  intf.id = id;
  intf.device = device;
  intf.name = std::move(name);
  intf.kind = kind;
  interfaces_.push_back(std::move(intf));
  devices_[device.value].interfaces.push_back(id);
  return id;
}

std::vector<InterfaceId> Network::ports_of_kind(DeviceId device, PortKind kind) const {
  std::vector<InterfaceId> out;
  for (const InterfaceId intf : devices_[device.value].interfaces) {
    if (interfaces_[intf.value].kind == kind) out.push_back(intf);
  }
  return out;
}

LinkId Network::add_link(InterfaceId a, InterfaceId b,
                         std::optional<packet::Ipv4Prefix> subnet) {
  assert(a.value < interfaces_.size() && b.value < interfaces_.size());
  if (interfaces_[a.value].peer.valid() || interfaces_[b.value].peer.valid()) {
    throw ys::InvalidInputError("interface already linked");
  }
  if (subnet && subnet->length() != 31) {
    throw ys::InvalidInputError("link subnets must be /31");
  }
  const LinkId id{static_cast<uint32_t>(links_.size())};
  links_.push_back({id, a, b, subnet});
  interfaces_[a.value].peer = b;
  interfaces_[b.value].peer = a;
  interfaces_[a.value].link = id;
  interfaces_[b.value].link = id;
  if (subnet) {
    interfaces_[a.value].address = packet::Ipv4Prefix(subnet->first(), 31);
    interfaces_[b.value].address = packet::Ipv4Prefix(subnet->last(), 31);
  }
  return id;
}

RuleId Network::add_rule(DeviceId device, MatchSpec match, Action action, RouteKind kind,
                         uint32_t priority, TableKind table) {
  assert(device.value < devices_.size());
  if (table == TableKind::Acl &&
      !(action.type == ActionType::Drop || action.type == ActionType::Permit)) {
    throw ys::InvalidInputError("ACL rules must permit or deny");
  }
  if (table == TableKind::Fib && action.type == ActionType::Permit) {
    throw ys::InvalidInputError("forwarding rules cannot 'permit'");
  }
  const RuleId id{static_cast<uint32_t>(rules_.size())};
  Rule r;
  r.id = id;
  r.device = device;
  r.table = table;
  r.priority = priority;
  r.match = std::move(match);
  r.action = std::move(action);
  r.kind = kind;
  rules_.push_back(std::move(r));
  auto& tbl = tables_[device.value][static_cast<size_t>(table)];
  // Stable insert keeping ascending priority order.
  const auto pos = std::upper_bound(
      tbl.begin(), tbl.end(), priority,
      [this](uint32_t p, RuleId rid) { return p < rules_[rid.value].priority; });
  tbl.insert(pos, id);
  return id;
}

void Network::clear_rules() {
  rules_.clear();
  for (auto& per_device : tables_) {
    for (auto& tbl : per_device) tbl.clear();
  }
}

std::vector<std::pair<InterfaceId, DeviceId>> Network::neighbors(DeviceId id) const {
  std::vector<std::pair<InterfaceId, DeviceId>> out;
  for (const InterfaceId intf : devices_[id.value].interfaces) {
    const DeviceId peer = neighbor(intf);
    if (peer.valid()) out.emplace_back(intf, peer);
  }
  return out;
}

std::optional<DeviceId> Network::find_device(std::string_view name) const {
  const auto it = device_by_name_.find(std::string(name));
  if (it == device_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<InterfaceId> Network::interface_towards(DeviceId from, DeviceId to) const {
  for (const InterfaceId intf : devices_[from.value].interfaces) {
    if (neighbor(intf) == to) return intf;
  }
  return std::nullopt;
}

std::vector<DeviceId> Network::devices_with_role(Role role) const {
  std::vector<DeviceId> out;
  for (const Device& d : devices_) {
    if (d.role == role) out.push_back(d.id);
  }
  return out;
}

std::string Network::summary() const {
  std::ostringstream out;
  out << "network(devices=" << devices_.size() << ", interfaces=" << interfaces_.size()
      << ", links=" << links_.size() << ", rules=" << rules_.size() << ")";
  return out.str();
}

std::string rule_content_key(const Network& network, const RuleContent& content) {
  std::string key = network.device(content.device).name;
  key += '|';
  key += to_string(content.table);
  key += '|';
  key += std::to_string(content.priority);
  key += '|';
  key += content.match().to_string();
  key += '|';
  key += to_string(content.kind);
  return key;
}

}  // namespace yardstick::net
