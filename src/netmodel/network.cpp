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
  store_.tables.emplace_back();
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

namespace {

void check_action(TableKind table, ActionType type) {
  if (table == TableKind::Acl && !(type == ActionType::Drop || type == ActionType::Permit)) {
    throw ys::InvalidInputError("ACL rules must permit or deny");
  }
  if (table == TableKind::Fib && type == ActionType::Permit) {
    throw ys::InvalidInputError("forwarding rules cannot 'permit'");
  }
}

}  // namespace

RuleId Network::insert(Rule rule) {
  assert(rule.device.value < devices_.size());
  rule.id = RuleId{static_cast<uint32_t>(store_.rules.size())};
  store_.rules.push_back(rule);
  auto& tbl = store_.tables[rule.device.value][static_cast<size_t>(rule.table)];
  // Stable insert keeping ascending priority order; a FIB build appends.
  if (tbl.empty() || store_.rules[tbl.back().value].priority <= rule.priority) {
    tbl.push_back(rule.id);
  } else {
    const auto pos = std::upper_bound(
        tbl.begin(), tbl.end(), rule.priority,
        [this](uint32_t p, RuleId rid) { return p < store_.rules[rid.value].priority; });
    tbl.insert(pos, rule.id);
  }
  return rule.id;
}

RuleId Network::add_rule(DeviceId device, MatchSpec match, Action action, RouteKind kind,
                         uint32_t priority, TableKind table) {
  check_action(table, action.type);
  Rule r;
  r.device = device;
  r.table = table;
  r.priority = priority;
  r.kind = kind;
  r.type_ = action.type;
  if (match.dst_prefix) {
    r.dst_address_ = match.dst_prefix->address();
    r.dst_length_ = match.dst_prefix->length();
  }
  if (match.src_prefix || match.proto || match.src_port || match.dst_port ||
      !match.in_interfaces.empty()) {
    RareMatch rare;
    rare.present = static_cast<uint8_t>(
        (match.src_prefix ? RuleContent::kSrc : 0) | (match.proto ? RuleContent::kProto : 0) |
        (match.src_port ? RuleContent::kSrcPort : 0) |
        (match.dst_port ? RuleContent::kDstPort : 0));
    rare.proto = match.proto.value_or(0);
    rare.src_prefix = match.src_prefix.value_or(packet::Ipv4Prefix{});
    rare.src_port = match.src_port.value_or(PortRange{});
    rare.dst_port = match.dst_port.value_or(PortRange{});
    rare.in_interfaces = std::move(match.in_interfaces);
    r.rare_ = static_cast<uint32_t>(store_.rare.size());
    store_.rare.push_back(std::move(rare));
  }
  r.group_ = store_.groups.intern(action.out_interfaces, action.rewrites);
  return insert(r);
}

RuleId Network::add_fib_rule(DeviceId device, const packet::Ipv4Prefix& dst, ActionType type,
                             std::span<const InterfaceId> out_interfaces, RouteKind kind,
                             uint32_t priority) {
  check_action(TableKind::Fib, type);
  Rule r;
  r.device = device;
  r.table = TableKind::Fib;
  r.priority = priority;
  r.kind = kind;
  r.type_ = type;
  r.dst_address_ = dst.address();
  r.dst_length_ = dst.length();
  r.group_ = store_.groups.intern(out_interfaces, {});
  return insert(r);
}

void Network::reserve_rules(size_t count) { store_.rules.reserve(count); }

void Network::reserve_table(DeviceId device, TableKind table, size_t count) {
  store_.tables[device.value][static_cast<size_t>(table)].reserve(count);
}

void Network::set_action(RuleId id, const Action& action) {
  Rule& r = store_.rules[id.value];
  check_action(r.table, action.type);
  r.type_ = action.type;
  r.group_ = store_.groups.intern(action.out_interfaces, action.rewrites);
}

void Network::clear_rules() {
  store_.rules.clear();
  for (auto& per_device : store_.tables) {
    for (auto& tbl : per_device) tbl.clear();
  }
  store_.groups.clear();
  store_.rare.clear();
}

void Network::restore_rules(const RuleStore& saved) {
  if (saved.tables.size() != devices_.size()) {
    throw std::logic_error("restore_rules: the saved store has another device count");
  }
  store_ = saved;
}

MatchSpec Network::match_spec(RuleId id) const {
  const Rule& r = rule(id);
  MatchSpec m;
  m.dst_prefix = r.dst_prefix();
  if (r.has_rare_fields()) {
    const RareMatch& rare = store_.rare[r.rare_];
    if (rare.present & RuleContent::kSrc) m.src_prefix = rare.src_prefix;
    if (rare.present & RuleContent::kProto) m.proto = rare.proto;
    if (rare.present & RuleContent::kSrcPort) m.src_port = rare.src_port;
    if (rare.present & RuleContent::kDstPort) m.dst_port = rare.dst_port;
    m.in_interfaces = rare.in_interfaces;
  }
  return m;
}

Action Network::action(RuleId id) const {
  Action a;
  a.type = rule(id).action_type();
  const std::span<const InterfaceId> outs = out_interfaces(id);
  const std::span<const Rewrite> rws = rewrites(id);
  a.out_interfaces.assign(outs.begin(), outs.end());
  a.rewrites.assign(rws.begin(), rws.end());
  return a;
}

RuleContent Network::rule_content(RuleId id) const {
  const Rule& r = rule(id);
  RuleContent c;
  c.device = r.device;
  c.table = r.table;
  c.priority = r.priority;
  c.kind = r.kind;
  if (const std::optional<packet::Ipv4Prefix> dst = r.dst_prefix()) {
    c.present = RuleContent::kDst;
    c.dst_prefix = *dst;
  }
  if (r.has_rare_fields()) {
    const RareMatch& rare = store_.rare[r.rare_];
    c.present |= rare.present;
    c.proto = rare.proto;
    c.src_prefix = rare.src_prefix;
    c.src_port = rare.src_port;
    c.dst_port = rare.dst_port;
  }
  return c;
}

bool Network::matches(RuleId id, const packet::ConcretePacket& pkt,
                      InterfaceId in_interface) const {
  const Rule& r = rule(id);
  if (r.dst_length_ != Rule::kNoDst &&
      !packet::Ipv4Prefix(r.dst_address_, r.dst_length_).contains(pkt.dst_ip)) {
    return false;
  }
  if (!r.has_rare_fields()) return true;
  const RareMatch& rare = store_.rare[r.rare_];
  if (!rare.in_interfaces.empty() && in_interface.valid() &&
      std::find(rare.in_interfaces.begin(), rare.in_interfaces.end(), in_interface) ==
          rare.in_interfaces.end()) {
    return false;
  }
  if ((rare.present & RuleContent::kSrc) && !rare.src_prefix.contains(pkt.src_ip)) return false;
  if ((rare.present & RuleContent::kProto) && rare.proto != pkt.proto) return false;
  const auto in_range = [](const PortRange& range, uint16_t port) {
    return range.lo <= port && port <= range.hi;
  };
  if ((rare.present & RuleContent::kSrcPort) && !in_range(rare.src_port, pkt.src_port)) {
    return false;
  }
  if ((rare.present & RuleContent::kDstPort) && !in_range(rare.dst_port, pkt.dst_port)) {
    return false;
  }
  return true;
}

std::string Network::rule_to_string(RuleId id) const {
  const Rule& r = rule(id);
  std::string out =
      "rule#" + std::to_string(id.value) + "[" + match_spec(id).to_string() + " -> ";
  if (r.action_type() == ActionType::Drop) {
    out += "drop";
  } else {
    out += "fwd(";
    const std::span<const InterfaceId> outs = out_interfaces(id);
    for (size_t i = 0; i < outs.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(outs[i].value);
    }
    out += ")";
  }
  return out + "]";
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
      << ", links=" << links_.size() << ", rules=" << store_.rules.size() << ")";
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
