// The benchmark's view of one workload: the subset of the yardstick CLI
// grammar its workloads use, and the CLI's set-up steps (topology, BGP,
// FIB, post-FIB ACL/transform install) rebuilt from public library calls.
//
// run.py passes each helper the exact argument list it passes the CLI, so
// the helpers and the timed CLI invocations always see the same inputs.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "routing/bgp_sim.hpp"
#include "routing/fib_builder.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"

namespace perfbench {

using namespace yardstick;

struct Workload {
  std::string mode = "run";  // "run" | "scenarios" | "optimize"
  std::string topology;      // "fattree" | "regional"
  int k = 4;
  topo::RegionalParams regional;
  std::string suite = "final";
  bool acl = false;
  int transforms = 0;
  unsigned threads = 0;
  std::string scenario_spec;
  bool minimize = false;
  bool gap_report = false;
};

/// Parses `[scenarios|optimize] <fattree|regional> [flags]`. Throws
/// std::invalid_argument on anything the benchmark's workloads do not use.
inline Workload parse_workload(const std::vector<std::string>& args) {
  Workload w;
  size_t i = 0;
  if (i < args.size() && (args[i] == "scenarios" || args[i] == "optimize")) w.mode = args[i++];
  if (i >= args.size() || (args[i] != "fattree" && args[i] != "regional")) {
    throw std::invalid_argument("expected a fattree or regional topology");
  }
  w.topology = args[i++];
  const auto value = [&](const std::string& flag) -> const std::string& {
    if (i + 1 >= args.size()) throw std::invalid_argument(flag + " needs a value");
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--k") {
      w.k = std::stoi(value(a));
    } else if (a == "--datacenters") {
      w.regional.datacenters = std::stoi(value(a));
    } else if (a == "--pods") {
      w.regional.pods_per_dc = std::stoi(value(a));
    } else if (a == "--tors") {
      w.regional.tors_per_pod = std::stoi(value(a));
    } else if (a == "--suite") {
      w.suite = value(a);
    } else if (a == "--acl") {
      w.acl = true;
    } else if (a == "--transforms") {
      w.transforms = std::stoi(value(a));
    } else if (a == "--threads") {
      w.threads = static_cast<unsigned>(std::stoul(value(a)));
    } else if (a == "--scenario-spec") {
      w.scenario_spec = value(a);
    } else if (a == "--minimize") {
      w.minimize = true;
    } else if (a == "--gap-report") {
      w.gap_report = true;
    } else if (a != "--json") {
      throw std::invalid_argument("unsupported workload flag " + a);
    }
  }
  return w;
}

/// Topology, routing configuration and transform plan of one workload. The
/// network/routing pointers point into this object, so it is never moved.
struct Snapshot {
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  topo::TransformState transforms;
  net::Network* network = nullptr;
  routing::RoutingConfig* routing = nullptr;
  std::vector<net::DeviceId> tors;

  Snapshot() = default;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
};

/// The topology generator step (plus transform planning, which must precede
/// routing because tunnel endpoints are BGP-originated).
inline std::unique_ptr<Snapshot> build_topology(const Workload& w) {
  auto s = std::make_unique<Snapshot>();
  if (w.topology == "fattree") {
    s->fattree = topo::make_fat_tree({.k = w.k});
    s->network = &s->fattree.network;
    s->routing = &s->fattree.routing;
    s->tors = s->fattree.tors;
  } else {
    s->regional = topo::make_regional(w.regional);
    s->network = &s->regional.network;
    s->routing = &s->regional.routing;
    s->tors = s->regional.tors;
  }
  if (w.transforms > 0) {
    if (w.topology != "regional") throw std::invalid_argument("--transforms needs regional");
    s->transforms = topo::plan_transforms(
        s->regional, {.tunnels = w.transforms, .nat_rules_per_wan = w.transforms});
  }
  return s;
}

/// Post-FIB state the FIB build wipes: ingress ACLs on live ToRs and the
/// transform rules, honouring `routing`'s failure sets.
inline void install_post_fib_state(const Workload& w, const Snapshot& s,
                                   net::Network& network,
                                   const routing::RoutingConfig& routing) {
  if (w.acl) {
    std::vector<net::DeviceId> alive;
    for (const net::DeviceId tor : s.tors) {
      if (!routing.failed_devices.contains(tor)) alive.push_back(tor);
    }
    topo::install_ingress_acls(network, alive);
  }
  if (!s.transforms.empty()) topo::install_transform_rules(network, s.transforms, routing);
}

/// Splits `argv` at "--": helper options before, workload arguments after.
inline std::vector<std::string> workload_args(int argc, char** argv, int& dash) {
  dash = 1;
  while (dash < argc && std::string(argv[dash]) != "--") ++dash;
  if (dash >= argc) throw std::invalid_argument("missing -- before the workload arguments");
  return {argv + dash + 1, argv + argc};
}

}  // namespace perfbench
