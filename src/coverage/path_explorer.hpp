// Streaming exploration of the path universe (§5.2, step 3).
//
// Path-based metrics need a denominator: the number of all paths that
// carry non-zero traffic under the current forwarding state. That universe
// cannot be derived from topology alone (unrealistic zig-zag walks would
// inflate it), and it is far too large to materialize — so, exactly as the
// paper prescribes, we explore it symbolically, depth-first, emitting each
// maximal path to a callback and keeping nothing in memory.
//
// A path is a maximal valid rule sequence r1,...,rk: packets enter at an
// edge ingress port, are claimed hop by hop, and terminate by delivery
// (leaving through an edge port), an explicit drop rule, a ruleless drop
// (unmatched at some device — per §4.3.2 those packets belong to the path
// ending at the previous rule), or the depth bound.
//
// When covered sets are supplied, the explorer threads the Equation (3)
// survivor set through the DFS alongside the unconstrained set, so each
// emitted path carries its coverage ratio at no extra asymptotic cost
// (design-choice ablation: recomputing Eq. 3 per emitted path would be
// quadratic in path length).
#pragma once

#include <cstdint>
#include <functional>

#include "coverage/covered_sets.hpp"
#include "dataplane/transfer.hpp"

namespace yardstick::coverage {

/// How an explored path ended. BudgetExceeded marks a path cut short
/// because a resource budget tripped mid-DFS — distinct from DepthLimit
/// (structural bound reached) so degraded sweeps are recognizable in
/// reports.
enum class PathEnd : uint8_t { Delivered, Dropped, Unmatched, DepthLimit, BudgetExceeded };

[[nodiscard]] inline const char* to_string(PathEnd e) {
  switch (e) {
    case PathEnd::Delivered: return "delivered";
    case PathEnd::Dropped: return "dropped";
    case PathEnd::Unmatched: return "unmatched";
    case PathEnd::DepthLimit: return "depth-limit";
    case PathEnd::BudgetExceeded: return "budget-exceeded";
  }
  return "invalid";
}

struct ExploredPath {
  /// The rule sequence r1,...,rk (empty only for Unmatched at hop 0).
  const std::vector<net::RuleId>& rules;
  /// Headers at the end of the path (post-transformation).
  packet::PacketSet final_set;
  /// |guard|: how many packets traverse the whole path. Equal to
  /// |final_set| when the path applies only one-to-one transforms; the
  /// explorer reverses rewrites through BDD pre-images otherwise.
  bdd::Uint128 guard_size = 0;
  /// Equation-(3) coverage of this path (min survivor ratio across hops);
  /// only populated when the explorer was given covered sets.
  double covered_ratio = 0.0;
  /// Where the path began.
  packet::LocationId origin = packet::kNoLocation;
  PathEnd end = PathEnd::Delivered;
};

struct PathExplorerOptions {
  int max_depth = 32;
  /// Absolute wall-clock deadline for this exploration, active when
  /// `has_deadline` is set. Checked at every DFS node expansion alongside
  /// the budget gate — not merely every N emitted paths — so even a sweep
  /// stuck deep inside one enormous ingress subtree stops on time.
  ys::ResourceBudget::Clock::time_point deadline{};
  bool has_deadline = false;
};

class PathExplorer {
 public:
  using Options = PathExplorerOptions;

  /// `covered` may be null: exploration then only enumerates the universe
  /// (e.g. to size it) without computing coverage ratios.
  PathExplorer(const dataplane::Transfer& transfer, const CoveredSets* covered,
               Options options = {})
      : transfer_(transfer), covered_(covered), options_(options) {}

  /// Visit every maximal path of `headers` injected at `device` (arriving
  /// on `in_interface`, which may be invalid). The callback returns false
  /// to stop exploration early.
  ///
  /// The budget attached to the transfer's manager bounds the walk: once
  /// its deadline or cancel flag trips, the in-flight path is emitted with
  /// PathEnd::BudgetExceeded and the DFS unwinds; its node cap throws from
  /// inside set operations (CoverageEngine::path_coverage catches that and
  /// flags the sweep truncated). The whole path universe is the engine's
  /// sweep: one explore() per edge ingress port.
  void explore(net::DeviceId device, net::InterfaceId in_interface,
               const packet::PacketSet& headers,
               const std::function<bool(const ExploredPath&)>& visit) const;

 private:
  struct DfsState;
  bool dfs(DfsState& state, net::DeviceId device, net::InterfaceId in_interface,
           const packet::PacketSet& flowing, const packet::PacketSet& survivors,
           double min_ratio, int depth) const;
  bool fib_stage(DfsState& state, net::DeviceId device, net::InterfaceId in_interface,
                 const packet::PacketSet& flowing, const packet::PacketSet& survivors,
                 double min_ratio, int depth) const;
  bool emit(DfsState& state, const packet::PacketSet& final_set, double ratio,
            PathEnd end) const;

  const dataplane::Transfer& transfer_;
  const CoveredSets* covered_;
  Options options_;
};

}  // namespace yardstick::coverage
