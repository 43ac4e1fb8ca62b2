#include "coverage/path_explorer.hpp"

#include <algorithm>

#include "common/fault.hpp"
#include "obs/metrics.hpp"

namespace yardstick::coverage {

using bdd::Uint128;
using packet::PacketSet;

struct PathExplorer::DfsState {
  std::vector<net::RuleId> stack;
  /// Rules on the stack that rewrite headers (indices into `stack`);
  /// empty means guard size == |final_set|.
  int rewrite_depth = 0;
  packet::LocationId origin = packet::kNoLocation;
  const std::function<bool(const ExploredPath&)>* visit = nullptr;
  uint64_t emitted = 0;
  /// DFS node expansions, accumulated locally and flushed to the metrics
  /// registry once per explore() — per-node atomic increments would
  /// contend across sweep workers (DESIGN.md §9 batch-flush rule).
  uint64_t dfs_nodes = 0;
};

bool PathExplorer::emit(DfsState& state, const PacketSet& final_set, double ratio,
                        PathEnd end) const {
  ExploredPath path{state.stack, final_set, 0, ratio, state.origin, end};

  if (state.rewrite_depth == 0) {
    path.guard_size = final_set.count();
  } else {
    // Reverse the rewrites through pre-images to recover the guard at the
    // path origin (§5.2: only its size is needed).
    PacketSet guard = final_set;
    for (auto it = state.stack.rbegin(); it != state.stack.rend(); ++it) {
      const net::Rule& rule = transfer_.network().rule(*it);
      guard = transfer_.rewrite_preimage(rule, guard)
                  .intersect(transfer_.index().match_set(*it));
    }
    path.guard_size = guard.count();
  }

  ++state.emitted;
  return (*state.visit)(path);
}

bool PathExplorer::dfs(DfsState& state, net::DeviceId device,
                       net::InterfaceId in_interface, const PacketSet& flowing,
                       const PacketSet& survivors, double min_ratio, int depth) const {
  ++state.dfs_nodes;
  if (fault::active()) fault::fire("path.dfs");
  const net::Network& network = transfer_.network();
  bdd::BddManager& mgr = transfer_.index().manager();
  // Cooperative budget gate: a tripped deadline/cancel (the manager's
  // budget or the explorer's deadline) terminates the in-flight path as
  // BudgetExceeded (distinguishable from DepthLimit) and unwinds the whole
  // exploration.
  if ((mgr.budget() != nullptr && mgr.budget()->exhausted()) ||
      (options_.has_deadline &&
       ys::ResourceBudget::Clock::now() >= options_.deadline)) {
    emit(state, flowing, min_ratio, PathEnd::BudgetExceeded);
    return false;
  }
  if (!network.has_acl(device)) {
    return fib_stage(state, device, in_interface, flowing, survivors, min_ratio, depth);
  }

  // Ingress ACL stage: deny rules terminate paths; permit rules extend the
  // rule sequence and hand their claim to the forwarding stage.
  const std::vector<dataplane::RuleSplit> acl_splits =
      transfer_.split(device, in_interface, flowing, net::TableKind::Acl);

  if (!state.stack.empty()) {
    PacketSet matched = PacketSet::none(mgr);
    for (const dataplane::RuleSplit& s : acl_splits) matched = matched.union_with(s.packets);
    const PacketSet implicit_deny = flowing.minus(matched);
    if (!implicit_deny.empty()) {
      if (!emit(state, implicit_deny, min_ratio, PathEnd::Unmatched)) return false;
    }
  }

  for (const dataplane::RuleSplit& s : acl_splits) {
    const net::Rule& rule = network.rule(s.rule);
    state.stack.push_back(s.rule);
    PacketSet next_survivors;
    double next_ratio = min_ratio;
    if (covered_ != nullptr) {
      next_survivors = survivors.intersect(covered_->covered(s.rule));
      next_ratio = std::min(next_ratio,
                            bdd::ratio(next_survivors.count(), s.packets.count()));
    }
    bool keep_going = true;
    if (rule.action.type == net::ActionType::Drop) {
      keep_going = emit(state, s.packets, next_ratio, PathEnd::Dropped);
    } else {
      keep_going = fib_stage(state, device, in_interface, s.packets, next_survivors,
                             next_ratio, depth);
    }
    state.stack.pop_back();
    if (!keep_going) return false;
  }
  return true;
}

bool PathExplorer::fib_stage(DfsState& state, net::DeviceId device,
                             net::InterfaceId in_interface, const PacketSet& flowing,
                             const PacketSet& survivors, double min_ratio,
                             int depth) const {
  const net::Network& network = transfer_.network();
  bdd::BddManager& mgr = transfer_.index().manager();

  const std::vector<dataplane::RuleSplit> splits =
      transfer_.split(device, in_interface, flowing);

  // Ruleless drops terminate the path at the previous rule (§4.3.2).
  if (!state.stack.empty()) {
    PacketSet matched = PacketSet::none(mgr);
    for (const dataplane::RuleSplit& s : splits) matched = matched.union_with(s.packets);
    const PacketSet unmatched = flowing.minus(matched);
    if (!unmatched.empty()) {
      if (!emit(state, unmatched, min_ratio, PathEnd::Unmatched)) return false;
    }
  }

  for (const dataplane::RuleSplit& s : splits) {
    const net::Rule& rule = network.rule(s.rule);
    const bool rewrites = !rule.action.rewrites.empty();

    state.stack.push_back(s.rule);
    if (rewrites) ++state.rewrite_depth;

    // Equation (3): survivor set clipped by T[r], companion set by M[r]
    // (the split already applied M[r] to `flowing`).
    PacketSet next_survivors;
    double next_ratio = min_ratio;
    if (covered_ != nullptr) {
      next_survivors = transfer_.rewrite(rule, survivors.intersect(covered_->covered(s.rule)));
    }

    bool keep_going = true;
    if (rule.action.type == net::ActionType::Drop) {
      const PacketSet final_set = s.packets;  // no rewrite on drop
      if (covered_ != nullptr) {
        next_ratio = std::min(
            next_ratio, bdd::ratio(survivors.intersect(covered_->covered(s.rule)).count(),
                                   final_set.count()));
      }
      keep_going = emit(state, final_set, next_ratio, PathEnd::Dropped);
    } else {
      const PacketSet transformed = transfer_.rewrite(rule, s.packets);
      if (covered_ != nullptr && !transformed.empty()) {
        next_ratio = std::min(
            next_ratio, bdd::ratio(next_survivors.count(), transformed.count()));
      }
      for (const dataplane::HopOutput& hop : transfer_.apply(rule, s.packets)) {
        if (!hop.next_interface.valid()) {
          keep_going = emit(state, hop.packets, next_ratio, PathEnd::Delivered);
        } else if (depth + 1 >= options_.max_depth) {
          keep_going = emit(state, hop.packets, next_ratio, PathEnd::DepthLimit);
        } else {
          keep_going = dfs(state, network.interface(hop.next_interface).device,
                           hop.next_interface, hop.packets, next_survivors, next_ratio,
                           depth + 1);
        }
        if (!keep_going) break;
      }
    }

    if (rewrites) --state.rewrite_depth;
    state.stack.pop_back();
    if (!keep_going) return false;
  }
  return true;
}

void PathExplorer::explore(net::DeviceId device, net::InterfaceId in_interface,
                           const PacketSet& headers,
                           const std::function<bool(const ExploredPath&)>& visit) const {
  DfsState state;
  state.visit = &visit;
  state.origin = in_interface.valid() ? net::to_location(in_interface)
                                      : net::device_location(device);
  dfs(state, device, in_interface, headers, headers, 1.0, 0);
  if (obs::enabled()) {
    static obs::Counter& emitted =
        obs::metrics().counter("ys.paths.emitted", "paths emitted by the universe DFS");
    static obs::Counter& nodes = obs::metrics().counter(
        "ys.paths.dfs_nodes", "DFS node expansions in the path universe");
    emitted.add(state.emitted);
    nodes.add(state.dfs_nodes);
  }
}

}  // namespace yardstick::coverage
