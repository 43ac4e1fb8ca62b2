// Tests for the operational tooling around the engine: snapshot
// monitoring (§5.2 universe guard, §8.2 regression catching), trace
// persistence, and JSON export.
#include <gtest/gtest.h>

#include <cstdio>

#include "nettest/state_checks.hpp"
#include "test_util.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/json.hpp"
#include "yardstick/persist.hpp"
#include "yardstick/snapshot.hpp"

namespace yardstick::ys {
namespace {

using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::TinyNetwork;

// --- SnapshotMonitor ---

SnapshotStats stats(const std::string& label, uint64_t paths, size_t rules,
                    MetricRow coverage) {
  SnapshotStats s;
  s.label = label;
  s.path_universe_size = paths;
  s.rule_count = rules;
  s.coverage = coverage;
  return s;
}

TEST(SnapshotMonitorTest, FirstSnapshotNeverAlerts) {
  SnapshotMonitor monitor;
  EXPECT_TRUE(monitor.record(stats("day0", 1000, 50, {1, 1, 1, 1})).empty());
  EXPECT_EQ(monitor.history().size(), 1u);
}

TEST(SnapshotMonitorTest, FlagsDramaticUniverseShift) {
  SnapshotMonitor monitor;
  (void)monitor.record(stats("day0", 1000, 50, {1, 1, 1, 1}));
  const auto alerts = monitor.record(stats("day1", 400, 50, {1, 1, 1, 1}));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, SnapshotAlert::Kind::PathUniverseShift);
  EXPECT_NE(alerts[0].message.find("day0"), std::string::npos);
}

TEST(SnapshotMonitorTest, SmallDriftIsQuiet) {
  SnapshotMonitor monitor;
  (void)monitor.record(stats("day0", 1000, 50, {1, 1, 1, 1}));
  EXPECT_TRUE(monitor.record(stats("day1", 1100, 52, {1, 1, 1, 1})).empty());
}

TEST(SnapshotMonitorTest, FlagsCoverageRegression) {
  SnapshotMonitor monitor;
  (void)monitor.record(stats("day0", 1000, 50, {1.0, 0.8, 0.6, 0.9}));
  const auto alerts = monitor.record(stats("day1", 1000, 50, {1.0, 0.8, 0.3, 0.9}));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, SnapshotAlert::Kind::CoverageRegression);
  EXPECT_NE(alerts[0].message.find("rule coverage"), std::string::npos);
}

TEST(SnapshotMonitorTest, FlagsRuleCountShift) {
  SnapshotMonitor monitor;
  (void)monitor.record(stats("day0", 1000, 100, {1, 1, 1, 1}));
  const auto alerts = monitor.record(stats("day1", 1000, 30, {1, 1, 1, 1}));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, SnapshotAlert::Kind::RuleCountShift);
}

TEST(SnapshotMonitorTest, ImprovementsNeverAlert) {
  SnapshotMonitor monitor;
  (void)monitor.record(stats("day0", 1000, 50, {0.5, 0.5, 0.5, 0.5}));
  EXPECT_TRUE(monitor.record(stats("day1", 1000, 50, {0.9, 0.9, 0.9, 0.9})).empty());
}

TEST(CoverageRegressionsTest, ComparesRolesToo) {
  CoverageReport before, after;
  before.overall = {1.0, 0.8, 0.6, 0.9};
  after.overall = {1.0, 0.8, 0.6, 0.9};
  RoleBreakdown tor;
  tor.role = net::Role::ToR;
  tor.metrics = {1.0, 0.5, 0.5, 0.9};
  before.by_role.push_back(tor);
  tor.metrics.interface_fractional = 0.2;
  after.by_role.push_back(tor);
  const auto regressions = coverage_regressions(before, after);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("ToR"), std::string::npos);
  EXPECT_NE(regressions[0].find("interface"), std::string::npos);
}

// --- Trace persistence ---

class PersistTest : public ::testing::Test {
 protected:
  PersistTest() : tiny_(make_tiny()) {}
  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
};

TEST_F(PersistTest, RoundTripPreservesCoverage) {
  coverage::CoverageTrace trace;
  trace.mark_packet(net::to_location(tiny_.l1_host),
                    PacketSet::dst_prefix(mgr_, tiny_.p2));
  trace.mark_packet(net::device_location(tiny_.spine),
                    PacketSet::dst_prefix(mgr_, Ipv4Prefix::parse("10.0.0.0/14"))
                        .intersect(PacketSet::field_equals(mgr_, packet::Field::Proto, 6)));
  trace.mark_rule(tiny_.sp_to_p1);
  trace.mark_rule(tiny_.l2_default);

  const std::string text = serialize_trace(trace, mgr_);

  // Load into a *fresh* manager: coverage numbers must be identical.
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace loaded = deserialize_trace(text, mgr2);
  EXPECT_EQ(loaded.marked_rules(), trace.marked_rules());

  const CoverageEngine original(mgr_, tiny_.net, trace);
  const CoverageEngine restored(mgr2, tiny_.net, loaded);
  for (const net::Rule& r : tiny_.net.rules()) {
    EXPECT_DOUBLE_EQ(original.rule_coverage(r.id), restored.rule_coverage(r.id))
        << tiny_.net.rule_to_string(r.id);
  }
}

TEST_F(PersistTest, EmptyTraceRoundTrips) {
  const coverage::CoverageTrace empty;
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace loaded =
      deserialize_trace(serialize_trace(empty, mgr_), mgr2);
  EXPECT_TRUE(loaded.marked_packets().empty());
  EXPECT_TRUE(loaded.marked_rules().empty());
}

TEST_F(PersistTest, SharedNodesSerializedOnce) {
  // The same packet set at two locations shares all nodes in the file.
  coverage::CoverageTrace trace;
  const PacketSet ps = PacketSet::dst_prefix(mgr_, tiny_.p1);
  trace.mark_packet(net::to_location(tiny_.l1_host), ps);
  trace.mark_packet(net::to_location(tiny_.l2_host), ps);
  const std::string once = serialize_trace(trace, mgr_);

  coverage::CoverageTrace single;
  single.mark_packet(net::to_location(tiny_.l1_host), ps);
  const std::string one_loc = serialize_trace(single, mgr_);

  // Same node count line in both files.
  EXPECT_EQ(once.substr(0, once.find('\n', 20)),
            one_loc.substr(0, one_loc.find('\n', 20)));
}

TEST_F(PersistTest, RejectsMalformedInput) {
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  EXPECT_THROW(deserialize_trace("garbage", mgr2), std::runtime_error);
  EXPECT_THROW(deserialize_trace("yardstick-trace v1\nnodes 1\n", mgr2),
               std::runtime_error);
  EXPECT_THROW(
      deserialize_trace("yardstick-trace v1\nnodes 1\n0 5 5\nrules 0\nlocations 0\n",
                        mgr2),
      std::runtime_error);  // forward reference
  EXPECT_THROW(
      deserialize_trace("yardstick-trace v1\nnodes 1\n999 0 1\nrules 0\nlocations 0\n",
                        mgr2),
      std::runtime_error);  // variable out of range
}

TEST_F(PersistTest, FileRoundTrip) {
  coverage::CoverageTrace trace;
  trace.mark_packet(net::to_location(tiny_.l1_host),
                    PacketSet::dst_prefix(mgr_, tiny_.p1));
  const std::string path = ::testing::TempDir() + "/yardstick_trace_test.txt";
  save_trace(path, trace, mgr_);
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace loaded = load_trace(path, mgr2);
  EXPECT_EQ(loaded.marked_packets().count(), trace.marked_packets().count());
  std::remove(path.c_str());
  EXPECT_THROW(load_trace(path + ".nope", mgr2), std::runtime_error);
}

// --- JSON export ---

TEST(JsonTest, ReportSerializes) {
  CoverageReport report;
  report.overall = {1.0, 0.5, 0.25, 0.75};
  RoleBreakdown row;
  row.role = net::Role::ToR;
  row.device_count = 4;
  row.rule_count = 40;
  row.interface_count = 12;
  row.metrics = {1.0, 0.25, 0.1, 0.9};
  report.by_role.push_back(row);
  report.gaps.push_back({net::RouteKind::WideArea, 7, 7});
  report.untested_interface_count = 3;

  const std::string json = report_to_json(report);
  EXPECT_NE(json.find("\"overall\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"ToR\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"wide-area\""), std::string::npos);
  EXPECT_NE(json.find("\"untested_interfaces\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rule_fractional\":0.25"), std::string::npos);
}

TEST(JsonTest, ResultsSerializeWithEscaping) {
  nettest::TestResult r;
  r.name = "Check \"quoted\"\nname";
  r.category = nettest::TestCategory::EndToEndSymbolic;
  r.checks = 5;
  r.fail("bad \\ path");
  const std::string json = results_to_json({r});
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("bad \\\\ path"), std::string::npos);
  EXPECT_NE(json.find("\"passed\":false"), std::string::npos);
  EXPECT_NE(json.find("end-to-end-symbolic"), std::string::npos);
}

TEST(JsonTest, EmptyResults) {
  EXPECT_EQ(results_to_json({}), "[]");
}

}  // namespace
}  // namespace yardstick::ys
