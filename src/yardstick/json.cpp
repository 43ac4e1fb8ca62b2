#include "yardstick/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace yardstick::ys {

namespace {

/// JSON has no NaN/Infinity literals; a metric that degraded to a
/// non-finite value (e.g. under a tripped budget) serializes as 0 so the
/// document stays parseable — the truncated flag tells readers the row is
/// partial.
void finite(std::ostringstream& out, double v) {
  if (std::isfinite(v)) {
    out << v;
  } else {
    out << 0;
  }
}

void metric_row(std::ostringstream& out, const MetricRow& m) {
  out << "{\"device_fractional\":";
  finite(out, m.device_fractional);
  out << ",\"interface_fractional\":";
  finite(out, m.interface_fractional);
  out << ",\"rule_fractional\":";
  finite(out, m.rule_fractional);
  out << ",\"rule_weighted\":";
  finite(out, m.rule_weighted);
  out << "}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string report_to_json(const CoverageReport& report) {
  std::ostringstream out;
  out << "{\"overall\":";
  metric_row(out, report.overall);
  out << ",\"by_role\":[";
  for (size_t i = 0; i < report.by_role.size(); ++i) {
    const RoleBreakdown& row = report.by_role[i];
    if (i) out << ",";
    out << "{\"role\":\"" << to_string(row.role) << "\",\"devices\":" << row.device_count
        << ",\"interfaces\":" << row.interface_count << ",\"rules\":" << row.rule_count
        << ",\"metrics\":";
    metric_row(out, row.metrics);
    out << "}";
  }
  out << "],\"gaps\":[";
  for (size_t i = 0; i < report.gaps.size(); ++i) {
    if (i) out << ",";
    out << "{\"kind\":\"" << to_string(report.gaps[i].kind)
        << "\",\"untested\":" << report.gaps[i].untested
        << ",\"total\":" << report.gaps[i].total << "}";
  }
  out << "],\"untested_devices\":" << report.untested_device_count
      << ",\"untested_interfaces\":" << report.untested_interface_count
      << ",\"timings\":{\"match_sets_seconds\":";
  finite(out, report.timings.match_sets_seconds);
  out << ",\"covered_sets_seconds\":";
  finite(out, report.timings.covered_sets_seconds);
  out << ",\"offline_seconds\":";
  finite(out, report.timings.offline_seconds());
  out << "},\"truncated\":" << (report.truncated ? "true" : "false") << "}";
  return out.str();
}

std::string results_to_json(const std::vector<nettest::TestResult>& results) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const nettest::TestResult& r = results[i];
    if (i) out << ",";
    out << "{\"name\":\"" << json_escape(r.name) << "\",\"category\":\""
        << to_string(r.category) << "\",\"checks\":" << r.checks
        << ",\"failures\":" << r.failures << ",\"passed\":" << (r.passed() ? "true" : "false")
        << ",\"messages\":[";
    for (size_t j = 0; j < r.failure_messages.size(); ++j) {
      if (j) out << ",";
      out << "\"" << json_escape(r.failure_messages[j]) << "\"";
    }
    out << "]}";
  }
  out << "]";
  return out.str();
}

}  // namespace yardstick::ys
