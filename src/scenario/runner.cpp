#include "scenario/runner.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>

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
  /// One ACL or FIB rule by content. Identical rules (same content) are
  /// numbered 1, 2, ... in table order; the ordinal renders as the key's
  /// `#n` suffix.
  struct RuleEntry {
    net::RuleContent content;
    uint32_t ordinal = 1;
    double coverage = 0.0;
    bdd::Uint128 atus = 0;

    [[nodiscard]] auto key() const { return std::tie(content, ordinal); }
  };
  /// Sorted by (content, ordinal): the diff is one merge of two of these.
  std::vector<RuleEntry> rules;
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
  ev.rules.reserve(network_.rule_count());
  for (const net::Device& dev : network_.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network_.table(dev.id, table)) {
        const ys::RuleMeasure& m = engine.rule_measure(rid);
        // The ordinal holds the table-order position until the sort has
        // grouped the twins.
        ev.rules.push_back({network_.rule_content(rid),
                            static_cast<uint32_t>(ev.rules.size()), m.coverage(),
                            m.covered});
      }
    }
  }
  std::sort(ev.rules.begin(), ev.rules.end(),
            [](const Evaluation::RuleEntry& a, const Evaluation::RuleEntry& b) {
              return a.key() < b.key();
            });
  for (size_t i = 0; i < ev.rules.size(); ++i) {
    const bool twin = i > 0 && ev.rules[i].content == ev.rules[i - 1].content;
    ev.rules[i].ordinal = twin ? ev.rules[i - 1].ordinal + 1 : 1;
  }
  return ev;
}

ScenarioDiff ScenarioRunner::diff(const Evaluation& base, const Evaluation& cur) const {
  obs::Span span("scenario.diff", "scenario");
  ScenarioDiff out;
  out.scenario_rule_count = cur.rule_count;
  out.metrics = cur.metrics;
  out.truncated = cur.truncated;

  // One merge of the two sorted rule lists. A lost or collapsed rule is a
  // candidate for the top deltas, and only candidates get a rendered key:
  // ties in baseline ATUs break on it.
  std::vector<RuleDelta> candidates;
  const auto candidate = [&](const Evaluation::RuleEntry& r, double scenario_coverage) {
    std::string key = net::rule_content_key(network_, r.content);
    if (r.ordinal > 1) key += "#" + std::to_string(r.ordinal);
    candidates.push_back({std::move(key), r.content.kind, r.coverage, scenario_coverage, r.atus});
    out.unreachable_atus += r.atus;
  };
  auto b = base.rules.begin();
  auto c = cur.rules.begin();
  while (b != base.rules.end() || c != cur.rules.end()) {
    if (c == cur.rules.end() || (b != base.rules.end() && b->key() < c->key())) {
      ++out.rules_lost;
      candidate(*b++, 0.0);
    } else if (b == base.rules.end() || c->key() < b->key()) {
      ++out.rules_gained;
      ++c;
    } else {
      if (b->coverage > 0.0 && c->coverage == 0.0) {
        ++out.rules_collapsed;
        candidate(*b, c->coverage);
      }
      ++b;
      ++c;
    }
  }
  span.arg("lost", out.rules_lost);
  span.arg("gained", out.rules_gained);
  span.arg("collapsed", out.rules_collapsed);
  std::sort(candidates.begin(), candidates.end(), [](const RuleDelta& x, const RuleDelta& y) {
    if (x.baseline_atus != y.baseline_atus) return x.baseline_atus > y.baseline_atus;
    return x.key < y.key;
  });
  if (candidates.size() > kMaxRuleDeltas) candidates.resize(kMaxRuleDeltas);
  out.top_deltas = std::move(candidates);

  for (const auto& [name, passed] : base.tests) {
    if (!passed) continue;
    const auto it = cur.tests.find(name);
    if (it != cur.tests.end() && !it->second) out.dark_tests.push_back(name);
  }
  return out;
}

void ScenarioRunner::restore_baseline(const net::RuleStore* saved) {
  if (saved != nullptr) {
    network_.restore_rules(*saved);
    return;
  }
  routing::FibBuilder::compute_and_build(network_, baseline_);
  if (post_fib_) post_fib_(network_, baseline_);
}

ScenarioReport ScenarioRunner::run(const ScenarioSpec& spec) {
  // Resolve every name up front: a typo aborts before any FIB is touched.
  std::vector<ResolvedScenario> resolved;
  resolved.reserve(spec.scenarios.size());
  for (const Scenario& s : spec.scenarios) resolved.push_back(resolve(s, network_));

  ScenarioReport report;
  // The baseline's rule store, saved once evaluation 0 built it: the
  // post-FIB hook only adds rules, so reinstating it restores the baseline
  // without another fixpoint, FIB build and hook run.
  std::optional<net::RuleStore> saved;
  try {
    const Evaluation base = evaluate(baseline_, 0);
    saved.emplace(network_.rule_store());
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
      ScenarioDiff d = diff(base, evaluate(config, i + 1));
      d.name = rs.name;
      report.truncated = report.truncated || d.truncated;
      report.scenarios.push_back(std::move(d));
    }
  } catch (...) {
    // Whatever threw (the hook, the engine, a budget), the caller gets its
    // network back in the baseline state.
    restore_baseline(saved ? &*saved : nullptr);
    throw;
  }
  // Leave the network in its baseline state for whatever runs next.
  restore_baseline(&*saved);
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
