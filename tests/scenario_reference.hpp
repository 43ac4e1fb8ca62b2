// Reference scenario runner for differential tests: the string-keyed diff
// the scenario layer ran before rule contents became values (DESIGN.md §13).
// Slow on purpose and kept verbatim in its semantics: every evaluation
// renders each rule's content key, with a `#n` suffix found by probing for
// twins, into a std::map, and the diff looks each key up in the other map.
// ScenarioRunner::run must produce the same report, byte for byte.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "packet/fields.hpp"
#include "routing/fib_builder.hpp"
#include "scenario/runner.hpp"

namespace yardstick::scenario::reference {

/// A rule's content key, rendered straight from its fields.
inline std::string content_key(const net::Network& network, const net::Rule& rule) {
  return network.device(rule.device).name + "|" + net::to_string(rule.table) + "|" +
         std::to_string(rule.priority) + "|" + network.match_spec(rule.id).to_string() + "|" +
         net::to_string(rule.kind);
}

struct Evaluation {
  struct RuleInfo {
    net::RouteKind kind = net::RouteKind::Other;
    double coverage = 0.0;
    bdd::Uint128 atus = 0;
  };
  std::map<std::string, RuleInfo> rules;
  std::map<std::string, bool> tests;
  ys::MetricRow metrics;
  size_t rule_count = 0;
  bool truncated = false;
};

inline Evaluation evaluate(net::Network& network, const routing::RoutingConfig& config,
                           const nettest::TestSuite& suite, const ys::EngineOptions& options,
                           const ScenarioRunner::PostFibHook& hook) {
  routing::FibBuilder::compute_and_build(network, config);
  if (hook) hook(network, config);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const ys::CoverageEngine engine(mgr, network, suite, options);

  Evaluation ev;
  ev.metrics = engine.metrics();
  ev.rule_count = network.rule_count();
  ev.truncated = engine.truncated();
  for (const nettest::TestResult& r : engine.results()) {
    auto [it, inserted] = ev.tests.try_emplace(r.name, r.passed());
    if (!inserted) it->second = it->second && r.passed();
  }
  for (const net::Device& dev : network.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(dev.id, table)) {
        const std::string key = content_key(network, network.rule(rid));
        std::string unique = key;
        for (int n = 2; ev.rules.contains(unique); ++n) {
          unique = key + "#" + std::to_string(n);
        }
        const ys::RuleMeasure& m = engine.rule_measure(rid);
        ev.rules.emplace(std::move(unique), Evaluation::RuleInfo{network.rule(rid).kind,
                                                                 m.coverage(), m.covered});
      }
    }
  }
  return ev;
}

/// What ScenarioRunner(network, baseline, suite, {options}) with `hook` as
/// its post-FIB hook returns from run(spec).
inline ScenarioReport run(net::Network& network, const routing::RoutingConfig& baseline,
                          const nettest::TestSuite& suite, const ys::EngineOptions& options,
                          const ScenarioRunner::PostFibHook& hook, const ScenarioSpec& spec) {
  std::vector<ResolvedScenario> resolved;
  for (const Scenario& s : spec.scenarios) resolved.push_back(resolve(s, network));

  const Evaluation base = evaluate(network, baseline, suite, options, hook);
  ScenarioReport report;
  report.baseline_metrics = base.metrics;
  report.baseline_rule_count = base.rule_count;
  report.truncated = base.truncated;
  for (const auto& [name, passed] : base.tests) {
    if (!passed) report.baseline_failing_tests.push_back(name);
  }

  for (const ResolvedScenario& rs : resolved) {
    routing::RoutingConfig config = baseline;
    config.failed_devices.insert(rs.devices.begin(), rs.devices.end());
    config.failed_links.insert(rs.links.begin(), rs.links.end());
    const Evaluation cur = evaluate(network, config, suite, options, hook);

    ScenarioDiff diff;
    diff.name = rs.name;
    diff.scenario_rule_count = cur.rule_count;
    diff.metrics = cur.metrics;
    diff.truncated = cur.truncated;
    report.truncated = report.truncated || cur.truncated;

    std::vector<RuleDelta> candidates;
    for (const auto& [key, info] : base.rules) {
      const auto it = cur.rules.find(key);
      const bool lost = it == cur.rules.end();
      const bool collapsed = !lost && info.coverage > 0.0 && it->second.coverage == 0.0;
      if (lost) {
        ++diff.rules_lost;
      } else if (collapsed) {
        ++diff.rules_collapsed;
      } else {
        continue;
      }
      diff.unreachable_atus += info.atus;
      candidates.push_back(
          {key, info.kind, info.coverage, lost ? 0.0 : it->second.coverage, info.atus});
    }
    for (const auto& [key, info] : cur.rules) {
      if (!base.rules.contains(key)) ++diff.rules_gained;
    }
    std::sort(candidates.begin(), candidates.end(), [](const RuleDelta& a, const RuleDelta& b) {
      if (a.baseline_atus != b.baseline_atus) return a.baseline_atus > b.baseline_atus;
      return a.key < b.key;
    });
    if (candidates.size() > 20) candidates.resize(20);
    diff.top_deltas = std::move(candidates);

    for (const auto& [name, passed] : base.tests) {
      if (!passed) continue;
      const auto it = cur.tests.find(name);
      if (it != cur.tests.end() && !it->second) diff.dark_tests.push_back(name);
    }
    report.scenarios.push_back(std::move(diff));
  }

  routing::FibBuilder::compute_and_build(network, baseline);
  if (hook) hook(network, baseline);
  return report;
}

}  // namespace yardstick::scenario::reference
