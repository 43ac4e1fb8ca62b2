// JSON export of coverage reports and test results — the integration
// surface for dashboards and CI pipelines (the role Codecov-style services
// play for software coverage, §1).
#pragma once

#include <string>
#include <vector>

#include "nettest/test.hpp"
#include "yardstick/report.hpp"

namespace yardstick::ys {

/// `s` as the body of a JSON string: quotes and backslashes escaped, `\n`
/// and `\t` as two-character escapes, other control characters as `\u00XX`.
[[nodiscard]] std::string json_escape(const std::string& s);

/// `v` in fixed notation with six decimals (printf "%.6f"), the rendering
/// of the optimize and scenarios reports.
[[nodiscard]] std::string format_double(double v);

/// Serialize a coverage report as a JSON object (stable key order).
[[nodiscard]] std::string report_to_json(const CoverageReport& report);

/// Serialize a suite's results as a JSON array.
[[nodiscard]] std::string results_to_json(const std::vector<nettest::TestResult>& results);

}  // namespace yardstick::ys
