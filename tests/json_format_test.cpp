// JSON output must stay parseable no matter how degraded the metrics are:
// doubles can degrade to NaN/Infinity under a tripped resource budget, and
// JSON has no literals for either — a report containing them would break
// every dashboard consuming it. Non-finite values serialize as 0 and the
// truncated flag tells readers the row is partial.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/json.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

/// Minimal recursive-descent JSON syntax checker — no DOM, just "is this
/// document well-formed?". Numbers must match the JSON grammar, which is
/// exactly what rejects nan/inf tokens.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool well_formed() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

bool contains_nonfinite_token(const std::string& json) {
  // "inf"/"nan" can only be value tokens right after ':' (keys like
  // "interface_fractional" legitimately contain "inf"'s letters).
  for (const char* token : {":nan", ":-nan", ":inf", ":-inf"}) {
    if (json.find(token) != std::string::npos) return true;
  }
  return false;
}

TEST(JsonFormatTest, WellFormedOnNormalReport) {
  CoverageReport report;
  report.overall = {0.5, 0.25, 0.125, 0.75, false};
  RoleBreakdown row;
  row.role = net::Role::ToR;
  row.device_count = 3;
  row.metrics = report.overall;
  report.by_role.push_back(row);
  report.gaps.push_back({net::RouteKind::Internal, 2, 10});
  const std::string json = report_to_json(report);
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
}

TEST(JsonFormatTest, StringEscapeAndFixedDoubleRendering) {
  // The one rendering every JSON writer (report, optimize, scenarios) uses.
  EXPECT_EQ(json_escape("ToRContract"), "ToRContract");
  EXPECT_EQ(json_escape("say \"hi\" \\o/"), "say \\\"hi\\\" \\\\o/");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  const std::string quoted = "[\"" + json_escape("x\"\n\x02") + "\"]";
  EXPECT_TRUE(JsonChecker(quoted).well_formed()) << quoted;

  EXPECT_EQ(format_double(0.5), "0.500000");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.333333");
  EXPECT_EQ(format_double(1.0), "1.000000");
}

TEST(JsonFormatTest, NonFiniteMetricsSerializeAsZero) {
  // Degraded aggregations can hand the serializer NaN and ±infinity;
  // the document must stay parseable and free of nan/inf tokens.
  CoverageReport report;
  report.overall = {std::nan(""), std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity(), 0.5, true};
  RoleBreakdown row;
  row.role = net::Role::Spine;
  row.metrics.rule_weighted = std::nan("");
  report.by_role.push_back(row);
  report.truncated = true;

  const std::string json = report_to_json(report);
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
  EXPECT_FALSE(contains_nonfinite_token(json)) << json;
  EXPECT_NE(json.find("\"device_fractional\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos) << json;
}

TEST(JsonFormatTest, BudgetTruncatedReportStaysParseable) {
  // End to end: a node cap small enough to trip during match-set
  // construction must still yield a well-formed, truncated-flagged report.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  ResourceBudget budget;
  budget.with_max_bdd_nodes(64);
  CoverageTracker tracker;
  const CoverageEngine engine(mgr, tree.network, tracker.trace(), EngineOptions{&budget, 1, ""});
  ASSERT_TRUE(engine.truncated());

  const std::string json = report_to_json(engine.report());
  EXPECT_TRUE(JsonChecker(json).well_formed()) << json;
  EXPECT_FALSE(contains_nonfinite_token(json)) << json;
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos) << json;
}

}  // namespace
}  // namespace yardstick::ys
