#include "yardstick/optimize.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace.hpp"
#include "yardstick/json.hpp"

namespace yardstick::ys {

namespace {

/// Non-vacuous rules covered by the whole suite (the set-cover universe).
size_t union_covered(const SuiteCoverageMatrix& m) {
  std::vector<char> seen(m.rule_count, 0);
  size_t covered = 0;
  for (size_t i = 0; i < m.test_count(); ++i) {
    for (size_t r = 0; r < m.rule_count; ++r) {
      if (m.covers[i][r] != 0 && seen[r] == 0) {
        seen[r] = 1;
        ++covered;
      }
    }
  }
  return covered;
}

size_t count_new(const SuiteCoverageMatrix& m, size_t test,
                 const std::vector<char>& running) {
  size_t added = 0;
  for (size_t r = 0; r < m.rule_count; ++r) {
    added += (m.covers[test][r] != 0 && running[r] == 0);
  }
  return added;
}

size_t absorb(const SuiteCoverageMatrix& m, size_t test, std::vector<char>& running) {
  size_t added = 0;
  for (size_t r = 0; r < m.rule_count; ++r) {
    if (m.covers[test][r] != 0 && running[r] == 0) {
      running[r] = 1;
      ++added;
    }
  }
  return added;
}

std::string packet_json(const packet::ConcretePacket& p) {
  return "{\"dst_ip\":\"" + packet::ipv4_to_string(p.dst_ip) + "\",\"src_ip\":\"" +
         packet::ipv4_to_string(p.src_ip) + "\",\"proto\":" + std::to_string(p.proto) +
         ",\"src_port\":" + std::to_string(p.src_port) +
         ",\"dst_port\":" + std::to_string(p.dst_port) + "}";
}

}  // namespace

bool MinimizeResult::contains(size_t index) const {
  return std::any_of(selected.begin(), selected.end(),
                     [index](const SelectedTest& s) { return s.index == index; });
}

std::vector<std::string> MinimizeResult::dropped(const SuiteCoverageMatrix& m) const {
  std::vector<std::string> out;
  for (size_t i = 0; i < m.test_count(); ++i) {
    if (!contains(i)) out.push_back(m.names[i]);
  }
  return out;
}

MinimizeResult minimize_suite(const SuiteCoverageMatrix& m, double min_coverage) {
  obs::Span span("optimize.minimize", "optimize");
  const size_t n = m.test_count();
  span.arg("tests", n);

  MinimizeResult out;
  out.suite_size = n;
  out.min_coverage = min_coverage;
  out.truncated = m.truncated;
  const size_t full_covered = union_covered(m);
  out.full_coverage = m.coverage_of(full_covered);
  // Relative slack: the subset must reach min_coverage × full. At the
  // default 1.0 the target is the full value itself, and since coverage is
  // strictly monotone in the covered-rule count, "achieved >= target" is
  // then exactly "the subset covers every rule the suite covers" — which
  // is what makes a recomputed report bit-identical, not merely close.
  const double target =
      min_coverage >= 1.0 ? out.full_coverage : min_coverage * out.full_coverage;

  std::vector<char> running(m.rule_count, 0);
  std::vector<char> chosen(n, 0);
  size_t covered = 0;
  out.achieved_coverage = m.coverage_of(0);
  while (out.achieved_coverage < target) {
    size_t best = n;
    size_t best_added = 0;
    for (size_t i = 0; i < n; ++i) {
      if (chosen[i] != 0) continue;
      const size_t added = count_new(m, i, running);
      if (added == 0) continue;
      // Ties break by name, then by suite position (ascending scan keeps
      // the earlier index on equal names).
      if (best == n || added > best_added ||
          (added == best_added && m.names[i] < m.names[best])) {
        best = i;
        best_added = added;
      }
    }
    if (best == n) break;  // no remaining test adds coverage
    chosen[best] = 1;
    covered += absorb(m, best, running);
    out.achieved_coverage = m.coverage_of(covered);
    out.selected.push_back({best, m.names[best], best_added, out.achieved_coverage});
  }
  return out;
}

void recompute_minimized(MinimizeResult& minimized, const CoverageEngine& full,
                         const nettest::TestSuite& suite, EngineOptions options) {
  CoverageTracker tracker;
  for (const SelectedTest& t : minimized.selected) {
    (void)suite.test(t.index).run(full.transfer(), tracker);
  }
  options.cache_dir.clear();
  const CoverageEngine subset(full.match_sets().manager(), full.network(), tracker.take_trace(),
                              options);
  minimized.recomputed_full = full.metrics().rule_fractional;
  minimized.recomputed_subset = subset.metrics().rule_fractional;
}

std::string MinimizeResult::to_text(const SuiteCoverageMatrix& m) const {
  std::string out = "suite minimization: keep " + std::to_string(selected.size()) + "/" +
                    std::to_string(suite_size) + " tests, coverage " +
                    format_double(achieved_coverage) + " of " +
                    format_double(full_coverage) + " (min-coverage " +
                    format_double(min_coverage) + ")" +
                    (truncated ? " [truncated]" : "") + "\n";
  for (const SelectedTest& s : selected) {
    out += "  keep " + s.name + "  +" + std::to_string(s.added_rules) +
           " rule(s)  cumulative " + format_double(s.cumulative_coverage) + "\n";
  }
  const std::vector<std::string> drop = dropped(m);
  if (!drop.empty()) {
    out += "  drop:";
    for (const std::string& name : drop) out += " " + name;
    out += "\n";
  }
  if (recomputed_full >= 0.0) {
    out += "  recomputed through the engine: full " + format_double(recomputed_full) +
           "  subset " + format_double(recomputed_subset) +
           (recomputed_subset == recomputed_full ? "  (exact)" : "") + "\n";
  }
  return out;
}

PrioritizeResult prioritize_suite(const SuiteCoverageMatrix& m) {
  obs::Span span("optimize.prioritize", "optimize");
  const size_t n = m.test_count();
  span.arg("tests", n);

  PrioritizeResult out;
  out.truncated = m.truncated;
  out.full_coverage = m.coverage_of(union_covered(m));

  std::vector<char> running(m.rule_count, 0);
  std::vector<char> chosen(n, 0);
  size_t covered = 0;
  double cum_cov = m.coverage_of(0);
  double cum_sec = 0.0;
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    size_t best_added = 0;
    for (size_t i = 0; i < n; ++i) {
      if (chosen[i] != 0) continue;
      const size_t added = count_new(m, i, running);
      if (best == n) {
        best = i;
        best_added = added;
        continue;
      }
      // added/seconds compared via cross-multiplication: exact for the
      // zero-cost cases a division would turn into inf/NaN.
      const double lhs = static_cast<double>(added) * m.seconds[best];
      const double rhs = static_cast<double>(best_added) * m.seconds[i];
      bool better = lhs > rhs;
      if (lhs == rhs) {
        better = added > best_added ||
                 (added == best_added && m.names[i] < m.names[best]);
      }
      if (better) {
        best = i;
        best_added = added;
      }
    }
    chosen[best] = 1;
    covered += absorb(m, best, running);
    const double next_cov = m.coverage_of(covered);
    cum_sec += m.seconds[best];
    out.order.push_back(
        {best, m.names[best], next_cov - cum_cov, m.seconds[best], next_cov, cum_sec});
    cum_cov = next_cov;
  }
  return out;
}

std::string PrioritizeResult::to_text() const {
  std::string out = "cost-aware priority order (full coverage " +
                    format_double(full_coverage) + ")" +
                    (truncated ? " [truncated]" : "") + ":\n";
  size_t rank = 1;
  for (const PrioritizedTest& t : order) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %2zu. %-24s marginal %s  %.3fs  cumulative %s @ %.3fs\n", rank++,
                  t.name.c_str(), format_double(t.marginal).c_str(), t.seconds,
                  format_double(t.cumulative_coverage).c_str(), t.cumulative_seconds);
    out += line;
  }
  return out;
}

GapReport build_gap_report(const CoverageEngine& engine, const DeviceFilter& filter) {
  obs::Span span("optimize.gap_report", "optimize");
  GapReport out;
  out.truncated = engine.truncated();
  const net::Network& network = engine.network();
  const std::vector<net::RuleId> untested = engine.untested_rules(filter);
  out.uncovered_rules = untested.size();

  DeviceGaps* current = nullptr;
  // The current device's rule contents, sorted: a gap whose content
  // appears k times stands for k byte-identical rules (the shadowed twins
  // are vacuous and never surface as separate gaps).
  std::vector<net::RuleContent> contents;
  for (const net::RuleId rid : untested) {
    const net::Rule& rule = network.rule(rid);
    if (current == nullptr || current->device != rule.device) {
      // untested_rules is grouped by device in network order already.
      out.devices.push_back({rule.device, network.device(rule.device).name, 0, {}});
      current = &out.devices.back();
      current->rule_count =
          network.table(rule.device, net::TableKind::Acl).size() +
          network.table(rule.device, net::TableKind::Fib).size();
      contents.clear();
      for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
        for (const net::RuleId r : network.table(rule.device, table)) {
          contents.push_back(net::RuleContent::of(network.rule(r)));
        }
      }
      std::sort(contents.begin(), contents.end());
    }
    const net::RuleContent content = net::RuleContent::of(rule);
    const auto [first, last] = std::equal_range(contents.begin(), contents.end(), content);
    GapWitness w;
    w.rule = rid;
    w.kind = rule.kind;
    w.table = rule.table;
    w.content_key = net::rule_content_key(network, content);
    w.collapsed = static_cast<size_t>(last - first);
    // The space behavioral tests can actually reach: the disjoint match
    // set, clipped by the ACL stage for FIB rules.
    packet::PacketSet space = engine.match_sets().match_set(rid);
    if (rule.table == net::TableKind::Fib && network.has_acl(rule.device)) {
      space = space.intersect(engine.match_sets().acl_permitted_space(rule.device));
    }
    if (space.empty()) {
      w.state_only = true;
      ++out.state_only;
    } else {
      w.witness = space.sample();
      ++out.packet_witnesses;
    }
    current->gaps.push_back(std::move(w));
  }
  return out;
}

std::string GapReport::to_text() const {
  std::string out = "coverage gaps: " + std::to_string(uncovered_rules) +
                    " uncovered rule(s) across " + std::to_string(devices.size()) +
                    " device(s); " + std::to_string(packet_witnesses) +
                    " packet witness(es), " + std::to_string(state_only) +
                    " state-only" + (truncated ? " [truncated]" : "") + "\n";
  for (const DeviceGaps& d : devices) {
    out += "device " + d.name + " (" + std::to_string(d.gaps.size()) + "/" +
           std::to_string(d.rule_count) + " rules uncovered):\n";
    for (const GapWitness& g : d.gaps) {
      out += "  " + g.content_key;
      if (g.collapsed > 1) out += "  [x" + std::to_string(g.collapsed) + " identical]";
      if (g.state_only) {
        out += "  STATE-ONLY (no packet can reach it; add a state-inspection test)";
      } else {
        out += "  witness " + g.witness.to_string();
      }
      out += "\n";
    }
  }
  return out;
}

std::string optimize_to_json(const SuiteCoverageMatrix& m,
                             const MinimizeResult* minimize,
                             const PrioritizeResult* prioritize,
                             const GapReport* gaps) {
  std::string out = "{\"suite_size\":" + std::to_string(m.test_count());
  out += ",\"tests\":[";
  for (size_t i = 0; i < m.test_count(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"" + json_escape(m.names[i]) +
           "\",\"seconds\":" + format_double(m.seconds[i]) + "}";
  }
  out += "]";
  if (minimize != nullptr) {
    out += ",\"minimize\":{\"min_coverage\":" + format_double(minimize->min_coverage);
    out += ",\"full_coverage\":" + format_double(minimize->full_coverage);
    out += ",\"achieved_coverage\":" + format_double(minimize->achieved_coverage);
    out += ",\"selected\":[";
    for (size_t i = 0; i < minimize->selected.size(); ++i) {
      const SelectedTest& s = minimize->selected[i];
      if (i) out += ",";
      out += "{\"index\":" + std::to_string(s.index) + ",\"name\":\"" +
             json_escape(s.name) + "\",\"added_rules\":" + std::to_string(s.added_rules) +
             ",\"cumulative_coverage\":" + format_double(s.cumulative_coverage) + "}";
    }
    out += "],\"dropped\":[";
    const std::vector<std::string> drop = minimize->dropped(m);
    for (size_t i = 0; i < drop.size(); ++i) {
      if (i) out += ",";
      out += "\"" + json_escape(drop[i]) + "\"";
    }
    out += "]";
    if (minimize->recomputed_full >= 0.0) {
      out += ",\"recomputed\":{\"full\":" + format_double(minimize->recomputed_full) +
             ",\"subset\":" + format_double(minimize->recomputed_subset) +
             ",\"exact\":" +
             (minimize->recomputed_subset == minimize->recomputed_full ? "true"
                                                                       : "false") +
             "}";
    }
    out += ",\"truncated\":" + std::string(minimize->truncated ? "true" : "false") + "}";
  }
  if (prioritize != nullptr) {
    out += ",\"prioritize\":{\"full_coverage\":" +
           format_double(prioritize->full_coverage);
    out += ",\"order\":[";
    for (size_t i = 0; i < prioritize->order.size(); ++i) {
      const PrioritizedTest& t = prioritize->order[i];
      if (i) out += ",";
      out += "{\"index\":" + std::to_string(t.index) + ",\"name\":\"" +
             json_escape(t.name) + "\",\"marginal\":" + format_double(t.marginal) +
             ",\"seconds\":" + format_double(t.seconds) +
             ",\"cumulative_coverage\":" + format_double(t.cumulative_coverage) +
             ",\"cumulative_seconds\":" + format_double(t.cumulative_seconds) + "}";
    }
    out += "],\"truncated\":" +
           std::string(prioritize->truncated ? "true" : "false") + "}";
  }
  if (gaps != nullptr) {
    out += ",\"gap_report\":{\"uncovered_rules\":" +
           std::to_string(gaps->uncovered_rules);
    out += ",\"packet_witnesses\":" + std::to_string(gaps->packet_witnesses);
    out += ",\"state_only\":" + std::to_string(gaps->state_only);
    out += ",\"devices\":[";
    for (size_t i = 0; i < gaps->devices.size(); ++i) {
      const DeviceGaps& d = gaps->devices[i];
      if (i) out += ",";
      out += "{\"device\":\"" + json_escape(d.name) +
             "\",\"rules\":" + std::to_string(d.rule_count) + ",\"gaps\":[";
      for (size_t j = 0; j < d.gaps.size(); ++j) {
        const GapWitness& g = d.gaps[j];
        if (j) out += ",";
        out += "{\"rule\":\"" + json_escape(g.content_key) + "\",\"kind\":\"" +
               std::string(net::to_string(g.kind)) + "\",\"collapsed\":" +
               std::to_string(g.collapsed) + ",\"state_only\":" +
               (g.state_only ? "true" : "false");
        if (!g.state_only) out += ",\"witness\":" + packet_json(g.witness);
        out += "}";
      }
      out += "]}";
    }
    out += "],\"truncated\":" + std::string(gaps->truncated ? "true" : "false") + "}";
  }
  out += "}";
  return out;
}

}  // namespace yardstick::ys
