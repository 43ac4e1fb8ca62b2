// ScenarioRunner — coverage under failure (DESIGN.md §13).
//
// For a baseline routing configuration and a ScenarioSpec, the runner:
//   1. computes the baseline FIBs, re-applies any post-FIB state (ACLs,
//      transform rules) through the hook, and builds a coverage engine
//      that runs the suite on its own match-set index;
//   2. per scenario, merges the failure sets into a copy of the baseline
//      RoutingConfig, recomputes the FIBs (BGP fixpoint + rebuild), re-runs
//      hook + suite + engine on the degraded network;
//   3. diffs each scenario against the baseline: rules lost from the FIBs,
//      rules whose coverage collapsed to zero, the baseline ATUs that are
//      no longer exercised ("unreachable ATUs"), and tests that went dark
//      (passed at baseline, fail under the scenario).
//
// Rules are keyed by content (net::RuleContent: device, table, priority,
// match, kind), not RuleId — FIB recomputation renumbers rules, content
// survives it. Each evaluation sorts its rules by content, so the diff is
// one merge, and only the rules the report ranks get a rendered key. The
// merge and the ranking depend only on rule contents, never on addresses
// or hashes, and the engine itself is bit-identical across thread counts,
// so the report (text and JSON) is too.
// EngineOptions::cache_dir is honored per evaluation: consecutive scenarios
// invalidate only the devices whose FIBs or trace slices actually changed.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bdd/uint128.hpp"
#include "nettest/test.hpp"
#include "routing/config.hpp"
#include "scenario/spec.hpp"
#include "yardstick/engine.hpp"

namespace yardstick::scenario {

struct ScenarioRunnerOptions {
  ys::EngineOptions engine;
};

/// Coverage movement of one rule between baseline and a scenario.
struct RuleDelta {
  std::string key;  // device|table|priority|match|kind
  net::RouteKind kind = net::RouteKind::Other;
  double baseline_coverage = 0.0;
  double scenario_coverage = 0.0;
  /// Baseline covered-set size (ATUs at stake for this rule).
  bdd::Uint128 baseline_atus = 0;
};

/// Baseline-vs-scenario diff for one scenario.
struct ScenarioDiff {
  std::string name;
  size_t scenario_rule_count = 0;
  /// Rules present at baseline but absent from the scenario's FIBs.
  size_t rules_lost = 0;
  /// Rules present only under the scenario (rerouted state).
  size_t rules_gained = 0;
  /// Rules present in both whose coverage fell from positive to zero.
  size_t rules_collapsed = 0;
  /// Sum of baseline covered-set sizes over lost + collapsed rules: the
  /// (rule, packet) units whose baseline test evidence no longer applies.
  bdd::Uint128 unreachable_atus = 0;
  /// Largest lost/collapsed rules by baseline ATUs (at most 20,
  /// deterministic).
  std::vector<RuleDelta> top_deltas;
  /// Tests that passed at baseline but fail under this scenario.
  std::vector<std::string> dark_tests;
  ys::MetricRow metrics;
  bool truncated = false;
};

struct ScenarioReport {
  ys::MetricRow baseline_metrics;
  size_t baseline_rule_count = 0;
  std::vector<std::string> baseline_failing_tests;
  std::vector<ScenarioDiff> scenarios;
  bool truncated = false;

  /// Fixed-width text rendering (no timings: bit-identical across runs).
  [[nodiscard]] std::string to_text() const;
};

/// Serialize as a JSON object (stable key order, no timings or other
/// nondeterministic fields — CI diffs this byte-for-byte).
[[nodiscard]] std::string report_to_json(const ScenarioReport& report);

class ScenarioRunner {
 public:
  /// Re-applied after every FIB (re)build, before tests run — the place to
  /// reinstall post-FIB state that FibBuilder::build wipes (ingress ACLs,
  /// transform rules). The RoutingConfig argument carries the scenario's
  /// failure sets so the hook can filter ECMP groups.
  using PostFibHook =
      std::function<void(net::Network&, const routing::RoutingConfig&)>;

  /// The runner mutates `network`'s forwarding state during the run and
  /// restores the baseline FIBs (and hook state) before returning or
  /// rethrowing: from the rule store saved after the baseline evaluation,
  /// so the hook must depend on nothing but the network and the config.
  ScenarioRunner(net::Network& network, const routing::RoutingConfig& baseline,
                 const nettest::TestSuite& suite, ScenarioRunnerOptions options = {})
      : network_(network), baseline_(baseline), suite_(suite),
        options_(std::move(options)) {}

  void set_post_fib_hook(PostFibHook hook) { post_fib_ = std::move(hook); }

  /// Resolves every scenario up front (throws on unknown names before any
  /// state is touched), then runs baseline + scenarios as described above.
  [[nodiscard]] ScenarioReport run(const ScenarioSpec& spec);

 private:
  struct Evaluation;
  /// One FIB rebuild plus coverage run; `scenario` numbers it in the trace
  /// (0 = baseline, i = the spec's i-th scenario).
  [[nodiscard]] Evaluation evaluate(const routing::RoutingConfig& config, size_t scenario);
  /// A scenario's evaluation against the baseline's (the name left empty).
  [[nodiscard]] ScenarioDiff diff(const Evaluation& base, const Evaluation& cur) const;
  /// Reinstates the baseline's saved rule store, or recomputes the baseline
  /// FIBs and re-applies the hook when nothing was saved (evaluation 0
  /// threw).
  void restore_baseline(const net::RuleStore* saved);

  net::Network& network_;
  const routing::RoutingConfig& baseline_;
  const nettest::TestSuite& suite_;
  ScenarioRunnerOptions options_;
  PostFibHook post_fib_;
};

}  // namespace yardstick::scenario
