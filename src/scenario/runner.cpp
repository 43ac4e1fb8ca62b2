#include "scenario/runner.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "packet/fields.hpp"
#include "routing/fib_builder.hpp"
#include "yardstick/json.hpp"

namespace yardstick::scenario {

namespace {

/// Cap on per-scenario collapsed/lost rule listings in the report.
constexpr size_t kMaxRuleDeltas = 20;

std::string metric_row_json(const ys::MetricRow& m) {
  return "{\"device_fractional\":" + ys::format_double(m.device_fractional) +
         ",\"interface_fractional\":" + ys::format_double(m.interface_fractional) +
         ",\"rule_fractional\":" + ys::format_double(m.rule_fractional) +
         ",\"rule_weighted\":" + ys::format_double(m.rule_weighted) +
         ",\"truncated\":" + (m.truncated ? "true" : "false") + "}";
}

std::string string_array_json(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += "\"" + ys::json_escape(v[i]) + "\"";
  }
  return out + "]";
}

}  // namespace

struct ScenarioRunner::Evaluation {
  struct RuleInfo {
    net::RouteKind kind = net::RouteKind::Other;
    double coverage = 0.0;
    bdd::Uint128 atus = 0;
  };
  /// Content-keyed rules; std::map for deterministic diff iteration.
  std::map<std::string, RuleInfo> rules;
  /// Test name -> passed (duplicate names AND together).
  std::map<std::string, bool> tests;
  ys::MetricRow metrics;
  size_t rule_count = 0;
  bool truncated = false;
};

ScenarioRunner::Evaluation ScenarioRunner::evaluate(const routing::RoutingConfig& config,
                                                    size_t scenario) {
  obs::Span span("scenario.evaluate", "scenario");
  span.arg("scenario", scenario);
  routing::FibBuilder::compute_and_build(network_, config);
  if (post_fib_) post_fib_(network_, config);

  // Fresh manager per evaluation: each run's BDD universe is independent,
  // matching what a from-scratch CLI invocation would compute.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const ys::CoverageEngine engine(mgr, network_, suite_, options_.engine);

  Evaluation ev;
  ev.metrics = engine.metrics();
  ev.rule_count = network_.rule_count();
  ev.truncated = engine.truncated();
  for (const nettest::TestResult& r : engine.results()) {
    auto [it, inserted] = ev.tests.try_emplace(r.name, r.passed());
    if (!inserted) it->second = it->second && r.passed();
  }
  obs::Span keys_span("scenario.rule_keys", "scenario");
  keys_span.arg("rules", network_.rule_count());
  for (const net::Device& dev : network_.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network_.table(dev.id, table)) {
        const net::Rule& rule = network_.rule(rid);
        const std::string key = net::rule_content_key(network_, rid);
        // Identical rules (same device/table/priority/match/kind) get a
        // positional suffix; table iteration order makes this stable.
        std::string unique = key;
        for (int n = 2; ev.rules.contains(unique); ++n) {
          unique = key + "#" + std::to_string(n);
        }
        const ys::RuleMeasure& m = engine.rule_measure(rid);
        ev.rules.emplace(std::move(unique),
                         Evaluation::RuleInfo{rule.kind, m.coverage(), m.covered});
      }
    }
  }
  return ev;
}

ScenarioReport ScenarioRunner::run(const ScenarioSpec& spec) {
  // Resolve every name up front: a typo aborts before any FIB is touched.
  std::vector<ResolvedScenario> resolved;
  resolved.reserve(spec.scenarios.size());
  for (const Scenario& s : spec.scenarios) resolved.push_back(resolve(s, network_));

  const Evaluation base = evaluate(baseline_, 0);

  ScenarioReport report;
  report.baseline_metrics = base.metrics;
  report.baseline_rule_count = base.rule_count;
  report.truncated = base.truncated;
  for (const auto& [name, passed] : base.tests) {
    if (!passed) report.baseline_failing_tests.push_back(name);
  }

  for (size_t i = 0; i < resolved.size(); ++i) {
    const ResolvedScenario& rs = resolved[i];
    routing::RoutingConfig config = baseline_;
    config.failed_devices.insert(rs.devices.begin(), rs.devices.end());
    config.failed_links.insert(rs.links.begin(), rs.links.end());
    const Evaluation cur = evaluate(config, i + 1);

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
      const bool collapsed =
          !lost && info.coverage > 0.0 && it->second.coverage == 0.0;
      if (lost) {
        ++diff.rules_lost;
      } else if (collapsed) {
        ++diff.rules_collapsed;
      } else {
        continue;
      }
      diff.unreachable_atus += info.atus;
      candidates.push_back({key, info.kind, info.coverage,
                            lost ? 0.0 : it->second.coverage, info.atus});
    }
    for (const auto& [key, info] : cur.rules) {
      if (!base.rules.contains(key)) ++diff.rules_gained;
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const RuleDelta& a, const RuleDelta& b) {
                if (a.baseline_atus != b.baseline_atus) {
                  return a.baseline_atus > b.baseline_atus;
                }
                return a.key < b.key;
              });
    if (candidates.size() > kMaxRuleDeltas) candidates.resize(kMaxRuleDeltas);
    diff.top_deltas = std::move(candidates);

    for (const auto& [name, passed] : base.tests) {
      if (!passed) continue;
      const auto it = cur.tests.find(name);
      if (it != cur.tests.end() && !it->second) diff.dark_tests.push_back(name);
    }
    report.scenarios.push_back(std::move(diff));
  }

  // Leave the network in its baseline state for whatever runs next.
  routing::FibBuilder::compute_and_build(network_, baseline_);
  if (post_fib_) post_fib_(network_, baseline_);
  return report;
}

std::string ScenarioReport::to_text() const {
  std::string out = "coverage under failure: " + std::to_string(scenarios.size()) +
                    " scenario(s), baseline rules=" +
                    std::to_string(baseline_rule_count) + "\n";
  const auto row = [](const ys::MetricRow& m) {
    return "device " + ys::format_double(m.device_fractional) + "  interface " +
           ys::format_double(m.interface_fractional) + "  rule " +
           ys::format_double(m.rule_fractional) + "  weighted " +
           ys::format_double(m.rule_weighted) + (m.truncated ? "  [truncated]" : "");
  };
  out += "baseline: " + row(baseline_metrics) + "\n";
  if (!baseline_failing_tests.empty()) {
    out += "baseline failing tests:";
    for (const std::string& t : baseline_failing_tests) out += " " + t;
    out += "\n";
  }
  for (const ScenarioDiff& s : scenarios) {
    out += "\nscenario " + s.name + ": rules=" + std::to_string(s.scenario_rule_count) +
           " lost=" + std::to_string(s.rules_lost) +
           " gained=" + std::to_string(s.rules_gained) +
           " collapsed=" + std::to_string(s.rules_collapsed) +
           " unreachable-atus=" + bdd::to_string(s.unreachable_atus) +
           (s.truncated ? " [truncated]" : "") + "\n";
    out += "  " + row(s.metrics) + "\n";
    if (!s.dark_tests.empty()) {
      out += "  dark tests:";
      for (const std::string& t : s.dark_tests) out += " " + t;
      out += "\n";
    }
    for (const RuleDelta& d : s.top_deltas) {
      out += "  " + d.key + "  " + ys::format_double(d.baseline_coverage) + " -> " +
             ys::format_double(d.scenario_coverage) +
             "  atus=" + bdd::to_string(d.baseline_atus) + "\n";
    }
  }
  return out;
}

std::string report_to_json(const ScenarioReport& report) {
  std::string out = "{\"baseline\":{\"rules\":" +
                    std::to_string(report.baseline_rule_count) +
                    ",\"metrics\":" + metric_row_json(report.baseline_metrics) +
                    ",\"failing_tests\":" +
                    string_array_json(report.baseline_failing_tests) + "}";
  out += ",\"scenarios\":[";
  for (size_t i = 0; i < report.scenarios.size(); ++i) {
    const ScenarioDiff& s = report.scenarios[i];
    if (i) out += ",";
    out += "{\"name\":\"" + ys::json_escape(s.name) + "\"";
    out += ",\"rules\":" + std::to_string(s.scenario_rule_count);
    out += ",\"lost\":" + std::to_string(s.rules_lost);
    out += ",\"gained\":" + std::to_string(s.rules_gained);
    out += ",\"collapsed\":" + std::to_string(s.rules_collapsed);
    out += ",\"unreachable_atus\":\"" + bdd::to_string(s.unreachable_atus) + "\"";
    out += ",\"metrics\":" + metric_row_json(s.metrics);
    out += ",\"dark_tests\":" + string_array_json(s.dark_tests);
    out += ",\"top_deltas\":[";
    for (size_t j = 0; j < s.top_deltas.size(); ++j) {
      const RuleDelta& d = s.top_deltas[j];
      if (j) out += ",";
      out += "{\"rule\":\"" + ys::json_escape(d.key) + "\"";
      out += ",\"kind\":\"" + std::string(net::to_string(d.kind)) + "\"";
      out += ",\"baseline_coverage\":" + ys::format_double(d.baseline_coverage);
      out += ",\"scenario_coverage\":" + ys::format_double(d.scenario_coverage);
      out += ",\"baseline_atus\":\"" + bdd::to_string(d.baseline_atus) + "\"}";
    }
    out += "]";
    out += ",\"truncated\":" + std::string(s.truncated ? "true" : "false") + "}";
  }
  out += "],\"truncated\":" + std::string(report.truncated ? "true" : "false") + "}";
  return out;
}

}  // namespace yardstick::scenario
