#include "netio/network_format.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/status.hpp"

namespace yardstick::netio {

namespace {

using packet::Ipv4Prefix;

// StatusError (a std::runtime_error) rather than InvalidInputError: the
// network file is external input, and callers have always caught parse
// failures as runtime errors. code() still says InvalidInput.
[[noreturn]] void fail(size_t line, const std::string& why) {
  throw ys::StatusError(ys::Error::InvalidInput, why,
                        {.source = "network file", .line = line});
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

net::Role parse_role(const std::string& s, size_t line) {
  if (s == "tor") return net::Role::ToR;
  if (s == "aggregation") return net::Role::Aggregation;
  if (s == "spine") return net::Role::Spine;
  if (s == "regionalhub") return net::Role::RegionalHub;
  if (s == "wan") return net::Role::Wan;
  if (s == "host") return net::Role::Host;
  if (s == "other") return net::Role::Other;
  fail(line, "unknown role '" + s + "'");
}

std::string role_name(net::Role r) {
  switch (r) {
    case net::Role::ToR: return "tor";
    case net::Role::Aggregation: return "aggregation";
    case net::Role::Spine: return "spine";
    case net::Role::RegionalHub: return "regionalhub";
    case net::Role::Wan: return "wan";
    case net::Role::Host: return "host";
    case net::Role::Other: return "other";
  }
  return "other";
}

net::PortKind parse_port_kind(const std::string& s, size_t line) {
  if (s == "fabric") return net::PortKind::Fabric;
  if (s == "host") return net::PortKind::HostPort;
  if (s == "local") return net::PortKind::LocalPort;
  if (s == "external") return net::PortKind::ExternalPort;
  fail(line, "unknown port kind '" + s + "'");
}

std::string port_kind_name(net::PortKind k) {
  switch (k) {
    case net::PortKind::Fabric: return "fabric";
    case net::PortKind::HostPort: return "host";
    case net::PortKind::LocalPort: return "local";
    case net::PortKind::ExternalPort: return "external";
  }
  return "fabric";
}

net::RouteKind parse_route_kind(const std::string& s, size_t line) {
  if (s == "default") return net::RouteKind::Default;
  if (s == "internal") return net::RouteKind::Internal;
  if (s == "connected") return net::RouteKind::Connected;
  if (s == "wide-area") return net::RouteKind::WideArea;
  if (s == "drop") return net::RouteKind::DropRule;
  if (s == "security") return net::RouteKind::Security;
  if (s == "other") return net::RouteKind::Other;
  fail(line, "unknown route kind '" + s + "'");
}

net::PortRange parse_port_range(const std::string& s, size_t line) {
  const size_t dash = s.find('-');
  try {
    if (dash == std::string::npos) {
      const auto v = static_cast<uint16_t>(std::stoul(s));
      return {v, v};
    }
    return {static_cast<uint16_t>(std::stoul(s.substr(0, dash))),
            static_cast<uint16_t>(std::stoul(s.substr(dash + 1)))};
  } catch (const std::exception&) {
    fail(line, "bad port range '" + s + "'");
  }
}

Ipv4Prefix parse_prefix(const std::string& s, size_t line) {
  try {
    return Ipv4Prefix::parse(s);
  } catch (const std::exception& e) {
    fail(line, e.what());
  }
}

/// Resolves "<device>:<iface>" and "<device> <iface>" references.
class Symbols {
 public:
  net::DeviceId device(const std::string& name, size_t line) const {
    const auto it = devices_.find(name);
    if (it == devices_.end()) fail(line, "unknown device '" + name + "'");
    return it->second;
  }

  net::InterfaceId interface(const std::string& dev, const std::string& iface,
                             size_t line) const {
    const auto it = interfaces_.find(dev + ":" + iface);
    if (it == interfaces_.end()) {
      fail(line, "unknown interface '" + dev + ":" + iface + "'");
    }
    return it->second;
  }

  net::InterfaceId endpoint(const std::string& ref, size_t line) const {
    const size_t colon = ref.find(':');
    if (colon == std::string::npos) fail(line, "expected device:interface, got '" + ref + "'");
    return interface(ref.substr(0, colon), ref.substr(colon + 1), line);
  }

  void add_device(const std::string& name, net::DeviceId id) { devices_[name] = id; }
  void add_interface(const std::string& dev, const std::string& iface,
                     net::InterfaceId id) {
    interfaces_[dev + ":" + iface] = id;
  }

 private:
  std::map<std::string, net::DeviceId> devices_;
  std::map<std::string, net::InterfaceId> interfaces_;
};

}  // namespace

LoadedNetwork parse_network(const std::string& text) {
  LoadedNetwork out;
  Symbols symbols;
  std::istringstream in(text);
  std::string raw;
  size_t line_no = 0;
  bool header_seen = false;
  std::map<uint32_t, uint32_t> acl_priority;  // per device counter

  while (std::getline(in, raw)) {
    ++line_no;
    const std::vector<std::string> t = tokenize(raw);
    if (t.empty()) continue;

    if (!header_seen) {
      if (t.size() != 2 || t[0] != "network" || t[1] != "v1") {
        fail(line_no, "expected header 'network v1'");
      }
      header_seen = true;
      continue;
    }

    const std::string& kw = t[0];
    if (kw == "device") {
      if (t.size() < 4 || t[2] != "role") fail(line_no, "device <name> role <role> [asn N]");
      uint32_t asn = 0;
      if (t.size() >= 6 && t[4] == "asn") asn = static_cast<uint32_t>(std::stoul(t[5]));
      const net::Role role = parse_role(t[3], line_no);
      if (asn == 0) asn = routing::role_asn(role);
      symbols.add_device(t[1], out.network.add_device(t[1], role, asn));
    } else if (kw == "interface") {
      if (t.size() < 3) fail(line_no, "interface <device> <name> [kind K]");
      net::PortKind kind = net::PortKind::Fabric;
      if (t.size() >= 5 && t[3] == "kind") kind = parse_port_kind(t[4], line_no);
      const net::DeviceId dev = symbols.device(t[1], line_no);
      symbols.add_interface(t[1], t[2], out.network.add_interface(dev, t[2], kind));
    } else if (kw == "link") {
      if (t.size() < 3) fail(line_no, "link <a:ifa> <b:ifb> [subnet CIDR]");
      std::optional<Ipv4Prefix> subnet;
      if (t.size() >= 5 && t[3] == "subnet") subnet = parse_prefix(t[4], line_no);
      try {
        out.network.add_link(symbols.endpoint(t[1], line_no),
                             symbols.endpoint(t[2], line_no), subnet);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (kw == "host-prefix" || kw == "loopback") {
      if (t.size() != 3) fail(line_no, kw + " <device> <cidr>");
      const net::DeviceId dev = symbols.device(t[1], line_no);
      auto& list = kw == "loopback" ? out.network.device(dev).loopbacks
                                    : out.network.device(dev).host_prefixes;
      list.push_back(parse_prefix(t[2], line_no));
    } else if (kw == "wide-area") {
      if (t.size() != 3) fail(line_no, "wide-area <device> <cidr>");
      out.routing.wide_area_prefixes[symbols.device(t[1], line_no)].push_back(
          parse_prefix(t[2], line_no));
    } else if (kw == "no-default") {
      if (t.size() != 2) fail(line_no, "no-default <device>");
      out.routing.no_default_devices.insert(symbols.device(t[1], line_no));
    } else if (kw == "null-default") {
      if (t.size() != 2) fail(line_no, "null-default <device>");
      out.routing.null_default_devices.insert(symbols.device(t[1], line_no));
    } else if (kw == "fib") {
      if (t.size() < 5 || t[2] != "dst") {
        fail(line_no, "fib <device> dst <cidr> (fwd <iface>...|drop) [kind K] [prio N]");
      }
      const net::DeviceId dev = symbols.device(t[1], line_no);
      const Ipv4Prefix prefix = parse_prefix(t[3], line_no);
      net::Action action;
      size_t i = 4;
      if (t[i] == "drop") {
        action = net::Action::drop();
        ++i;
      } else if (t[i] == "fwd") {
        std::vector<net::InterfaceId> outs;
        for (++i; i < t.size() && t[i] != "kind" && t[i] != "prio"; ++i) {
          outs.push_back(symbols.interface(t[1], t[i], line_no));
        }
        if (outs.empty()) fail(line_no, "fwd needs at least one interface");
        action = net::Action::forward(std::move(outs));
      } else {
        fail(line_no, "expected fwd or drop");
      }
      net::RouteKind kind = net::RouteKind::Other;
      uint32_t priority = 32u - prefix.length();
      for (; i + 1 < t.size(); i += 2) {
        if (t[i] == "kind") {
          kind = parse_route_kind(t[i + 1], line_no);
        } else if (t[i] == "prio") {
          priority = static_cast<uint32_t>(std::stoul(t[i + 1]));
        } else {
          fail(line_no, "unknown fib attribute '" + t[i] + "'");
        }
      }
      out.network.add_rule(dev, net::MatchSpec::for_dst(prefix), std::move(action), kind,
                           priority);
      out.has_forwarding_state = true;
    } else if (kw == "acl") {
      if (t.size() < 3) fail(line_no, "acl <device> (permit|deny) [fields]");
      const net::DeviceId dev = symbols.device(t[1], line_no);
      net::Action action;
      if (t[2] == "permit") {
        action = net::Action::permit();
      } else if (t[2] == "deny") {
        action = net::Action::drop();
      } else {
        fail(line_no, "expected permit or deny");
      }
      net::MatchSpec match;
      for (size_t i = 3; i + 1 < t.size(); i += 2) {
        if (t[i] == "proto") {
          match.proto = static_cast<uint8_t>(std::stoul(t[i + 1]));
        } else if (t[i] == "dport") {
          match.dst_port = parse_port_range(t[i + 1], line_no);
        } else if (t[i] == "sport") {
          match.src_port = parse_port_range(t[i + 1], line_no);
        } else if (t[i] == "dst") {
          match.dst_prefix = parse_prefix(t[i + 1], line_no);
        } else if (t[i] == "src") {
          match.src_prefix = parse_prefix(t[i + 1], line_no);
        } else {
          fail(line_no, "unknown acl field '" + t[i] + "'");
        }
      }
      out.network.add_rule(dev, std::move(match), std::move(action),
                           net::RouteKind::Security, acl_priority[dev.value]++,
                           net::TableKind::Acl);
      out.has_forwarding_state = true;
    } else {
      fail(line_no, "unknown keyword '" + kw + "'");
    }
  }
  if (!header_seen) fail(0, "empty input");
  return out;
}

std::string format_network(const net::Network& network,
                           const routing::RoutingConfig& routing) {
  std::ostringstream out;
  out << "network v1\n";
  for (const net::Device& dev : network.devices()) {
    out << "device " << dev.name << " role " << role_name(dev.role) << " asn " << dev.asn
        << "\n";
  }
  for (const net::Interface& intf : network.interfaces()) {
    out << "interface " << network.device(intf.device).name << " " << intf.name
        << " kind " << port_kind_name(intf.kind) << "\n";
  }
  const auto endpoint = [&](net::InterfaceId id) {
    const net::Interface& intf = network.interface(id);
    return network.device(intf.device).name + ":" + intf.name;
  };
  for (const net::Link& link : network.links()) {
    out << "link " << endpoint(link.a) << " " << endpoint(link.b);
    if (link.subnet) out << " subnet " << link.subnet->to_string();
    out << "\n";
  }
  for (const net::Device& dev : network.devices()) {
    for (const auto& p : dev.host_prefixes) {
      out << "host-prefix " << dev.name << " " << p.to_string() << "\n";
    }
    for (const auto& p : dev.loopbacks) {
      out << "loopback " << dev.name << " " << p.to_string() << "\n";
    }
  }
  for (const auto& [dev, prefixes] : routing.wide_area_prefixes) {
    for (const auto& p : prefixes) {
      out << "wide-area " << network.device(dev).name << " " << p.to_string() << "\n";
    }
  }
  for (const net::DeviceId dev : routing.no_default_devices) {
    out << "no-default " << network.device(dev).name << "\n";
  }
  for (const net::DeviceId dev : routing.null_default_devices) {
    out << "null-default " << network.device(dev).name << "\n";
  }

  for (const net::Device& dev : network.devices()) {
    for (const net::RuleId rid : network.table(dev.id, net::TableKind::Acl)) {
      const net::MatchSpec match = network.match_spec(rid);
      out << "acl " << dev.name << " "
          << (network.rule(rid).action_type() == net::ActionType::Permit ? "permit" : "deny");
      if (match.proto) out << " proto " << static_cast<int>(*match.proto);
      if (match.dst_port) out << " dport " << match.dst_port->lo << "-" << match.dst_port->hi;
      if (match.src_port) out << " sport " << match.src_port->lo << "-" << match.src_port->hi;
      if (match.dst_prefix) out << " dst " << match.dst_prefix->to_string();
      if (match.src_prefix) out << " src " << match.src_prefix->to_string();
      out << "\n";
    }
    for (const net::RuleId rid : network.table(dev.id)) {
      const net::Rule& rule = network.rule(rid);
      out << "fib " << dev.name << " dst " << rule.dst_prefix()->to_string();
      if (rule.action_type() == net::ActionType::Drop) {
        out << " drop";
      } else {
        out << " fwd";
        for (const net::InterfaceId iid : network.out_interfaces(rid)) {
          out << " " << network.interface(iid).name;
        }
      }
      out << " kind " << to_string(rule.kind) << " prio " << rule.priority << "\n";
    }
  }
  return out.str();
}

LoadedNetwork load_network_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ys::IoError("cannot open", {.source = path});
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw ys::IoError("read failed", {.source = path});
  return parse_network(buffer.str());
}

void save_network_file(const std::string& path, const net::Network& network,
                       const routing::RoutingConfig& routing) {
  std::ofstream out(path);
  if (!out) throw ys::IoError("cannot open for writing", {.source = path});
  out << format_network(network, routing);
  out.flush();
  if (!out) throw ys::IoError("write failed", {.source = path});
}

}  // namespace yardstick::netio
