// Tests for the coverage core: trace, Algorithm 1 covered sets, the
// (G, µ, κ, α) framework, and the §3.2 metric properties — monotonicity,
// boundedness, compositionality, and semantics-basedness.
#include <gtest/gtest.h>

#include "coverage/components.hpp"
#include "coverage/covered_sets.hpp"
#include "coverage/framework.hpp"
#include "coverage/trace.hpp"
#include "test_util.hpp"

namespace yardstick::coverage {
namespace {

using dataplane::MatchSetIndex;
using dataplane::Transfer;
using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::packet_to;
using testutil::TinyNetwork;

class CoverageTest : public ::testing::Test {
 protected:
  CoverageTest() : tiny_(make_tiny()), index_(mgr_, tiny_.net), transfer_(index_) {}

  [[nodiscard]] PacketSet dst(const Ipv4Prefix& p) const {
    return PacketSet::dst_prefix(const_cast<bdd::BddManager&>(mgr_), p);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  MatchSetIndex index_;
  Transfer transfer_;
};

// --- Trace and Algorithm 1 ---

TEST_F(CoverageTest, EmptyTraceCoversNothing) {
  const CoverageTrace trace;
  const CoveredSets covered(index_, trace);
  for (const net::Rule& r : tiny_.net.rules()) {
    EXPECT_TRUE(covered.covered(r.id).empty());
  }
}

TEST_F(CoverageTest, MarkRuleCoversFullMatchSet) {
  CoverageTrace trace;
  trace.mark_rule(tiny_.l1_default);
  const CoveredSets covered(index_, trace);
  EXPECT_EQ(covered.covered(tiny_.l1_default), index_.match_set(tiny_.l1_default));
  EXPECT_TRUE(covered.covered(tiny_.l1_to_p1).empty());
}

TEST_F(CoverageTest, MarkPacketCoversIntersectionWithMatchSet) {
  CoverageTrace trace;
  // Packets to p2 reported at leaf1's host port.
  trace.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  const CoveredSets covered(index_, trace);
  EXPECT_EQ(covered.covered(tiny_.l1_to_p2), dst(tiny_.p2));
  EXPECT_TRUE(covered.covered(tiny_.l1_to_p1).empty());
  EXPECT_TRUE(covered.covered(tiny_.l1_default).empty());
  // Rules on other devices are untouched: the packets were only at leaf1.
  EXPECT_TRUE(covered.covered(tiny_.sp_to_p2).empty());
}

TEST_F(CoverageTest, DeviceLocalInjectionCoversDeviceRules) {
  CoverageTrace trace;
  trace.mark_packet(net::device_location(tiny_.spine), dst(tiny_.p1));
  const CoveredSets covered(index_, trace);
  EXPECT_EQ(covered.covered(tiny_.sp_to_p1), dst(tiny_.p1));
  EXPECT_TRUE(covered.covered(tiny_.l1_to_p1).empty());
}

TEST_F(CoverageTest, TraceUnionsDuplicateMarks) {
  CoverageTrace trace;
  trace.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
  trace.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
  trace.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  EXPECT_EQ(trace.marked_packets().at(net::to_location(tiny_.l1_host)),
            dst(tiny_.p1).union_with(dst(tiny_.p2)));
}

TEST_F(CoverageTest, TraceMergeEqualsCombinedCalls) {
  CoverageTrace a, b, combined;
  a.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
  a.mark_rule(tiny_.sp_to_p1);
  b.mark_packet(net::to_location(tiny_.l2_host), dst(tiny_.p2));
  combined.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p1));
  combined.mark_rule(tiny_.sp_to_p1);
  combined.mark_packet(net::to_location(tiny_.l2_host), dst(tiny_.p2));
  a.merge(b);
  EXPECT_EQ(a.marked_packets(), combined.marked_packets());
  EXPECT_EQ(a.marked_rules(), combined.marked_rules());
}

TEST_F(CoverageTest, CoveredOnInterfaceRestrictsGuard) {
  CoverageTrace trace;
  trace.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  const CoveredSets covered(index_, trace);
  EXPECT_EQ(covered.covered_on_interface(tiny_.l1_to_p2, tiny_.l1_host), dst(tiny_.p2));
  EXPECT_TRUE(covered.covered_on_interface(tiny_.l1_to_p2, tiny_.l1_up).empty());
  // State-inspected rules count in full on any interface.
  CoverageTrace inspect;
  inspect.mark_rule(tiny_.l1_to_p2);
  const CoveredSets covered2(index_, inspect);
  EXPECT_EQ(covered2.covered_on_interface(tiny_.l1_to_p2, tiny_.l1_up),
            index_.match_set(tiny_.l1_to_p2));
}

// --- Measures, combinators, aggregators ---

TEST_F(CoverageTest, FractionMeasure) {
  CoverageTrace trace;
  // Half of p1 (a /25 of the /24).
  trace.mark_packet(net::device_location(tiny_.leaf1),
                    dst(Ipv4Prefix::parse("10.0.1.0/25")));
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);
  EXPECT_DOUBLE_EQ(component_coverage(covered, factory.rule(tiny_.l1_to_p1)), 0.5);
  EXPECT_DOUBLE_EQ(component_coverage(covered, factory.rule(tiny_.l1_to_p2)), 0.0);
}

TEST_F(CoverageTest, ExistsMeasure) {
  CoverageTrace trace;
  trace.mark_packet(net::device_location(tiny_.leaf1),
                    PacketSet::from_packet(mgr_, packet_to(tiny_.p1)));
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);
  ComponentSpec spec = factory.rule(tiny_.l1_to_p1);
  spec.measure = exists_measure();
  EXPECT_DOUBLE_EQ(component_coverage(covered, spec), 1.0);
  ComponentSpec other = factory.rule(tiny_.l1_to_p2);
  other.measure = exists_measure();
  EXPECT_DOUBLE_EQ(component_coverage(covered, other), 0.0);
}

TEST_F(CoverageTest, CombinatorBehaviors) {
  const std::vector<MeasureResult> results{{0.2, 100}, {1.0, 300}};
  EXPECT_DOUBLE_EQ(mean_combinator()(results), 0.6);
  EXPECT_DOUBLE_EQ(weighted_mean_combinator()(results), (0.2 * 100 + 1.0 * 300) / 400);
  EXPECT_DOUBLE_EQ(min_combinator()(results), 0.2);
  EXPECT_DOUBLE_EQ(max_combinator()(results), 1.0);
  EXPECT_DOUBLE_EQ(single_combinator()({{0.7, 1}}), 0.7);
}

TEST_F(CoverageTest, AggregatorBehaviors) {
  const std::vector<ComponentCoverage> comps{{0.0, 50}, {0.5, 100}, {1.0, 50}};
  EXPECT_DOUBLE_EQ(simple_average_aggregator()(comps), 0.5);
  EXPECT_DOUBLE_EQ(weighted_average_aggregator()(comps), (0.5 * 100 + 1.0 * 50) / 200);
  EXPECT_NEAR(fractional_aggregator()(comps), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(fractional_aggregator()({}), 1.0);
}

TEST_F(CoverageTest, DeviceCoverageIsWeightedByMatchSets) {
  CoverageTrace trace;
  trace.mark_rule(tiny_.sp_default_drop);  // the huge match set
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);
  const double dev_cov = component_coverage(covered, factory.device(tiny_.spine));
  // Weighted: default dominates the space -> close to 1.
  EXPECT_GT(dev_cov, 0.99);
  EXPECT_LT(dev_cov, 1.0);
}

TEST_F(CoverageTest, OutgoingInterfaceCoverage) {
  CoverageTrace trace;
  trace.mark_packet(net::device_location(tiny_.leaf1), dst(tiny_.p2));
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);
  // l1_up carries the p2 rule (covered in full) and the default rule
  // (uncovered): weighted mean is tiny but non-zero.
  const double up = component_coverage(
      covered, factory.interface(tiny_.l1_up, InterfaceDirection::Outgoing));
  EXPECT_GT(up, 0.0);
  EXPECT_LT(up, 0.01);
  // Host port only carries the p1 rule: fully uncovered.
  const double host = component_coverage(
      covered, factory.interface(tiny_.l1_host, InterfaceDirection::Outgoing));
  EXPECT_DOUBLE_EQ(host, 0.0);
}

TEST_F(CoverageTest, IncomingInterfaceCoverage) {
  CoverageTrace trace;
  trace.mark_packet(net::to_location(tiny_.sp_d1), dst(tiny_.p2));
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);
  const double in_d1 = component_coverage(
      covered, factory.interface(tiny_.sp_d1, InterfaceDirection::Incoming));
  EXPECT_GT(in_d1, 0.0);
  const double in_d2 = component_coverage(
      covered, factory.interface(tiny_.sp_d2, InterfaceDirection::Incoming));
  EXPECT_DOUBLE_EQ(in_d2, 0.0);
}

// --- §3.2 properties ---

TEST_F(CoverageTest, MonotonicityUnderAddedTests) {
  const ComponentFactory factory(transfer_);
  CoverageTrace trace;
  std::vector<double> rule_frac, rule_weighted, dev_frac;
  const auto snapshot = [&] {
    const CoveredSets covered(index_, trace);
    rule_frac.push_back(
        collection_coverage(covered, factory.all_rules(), fractional_aggregator()));
    rule_weighted.push_back(collection_coverage(covered, factory.all_rules(),
                                                weighted_average_aggregator()));
    dev_frac.push_back(
        collection_coverage(covered, factory.all_devices(), fractional_aggregator()));
  };
  snapshot();
  trace.mark_packet(net::to_location(tiny_.l1_host), dst(tiny_.p2));
  snapshot();
  trace.mark_rule(tiny_.sp_default_drop);
  snapshot();
  trace.mark_packet(net::device_location(tiny_.leaf2), dst(tiny_.p1));
  snapshot();
  for (const auto& series : {rule_frac, rule_weighted, dev_frac}) {
    for (size_t i = 1; i < series.size(); ++i) {
      EXPECT_GE(series[i], series[i - 1] - 1e-12);
    }
  }
}

TEST_F(CoverageTest, BoundednessZeroAndOne) {
  const ComponentFactory factory(transfer_);
  // No tests: everything 0.
  const CoverageTrace empty;
  const CoveredSets none(index_, empty);
  EXPECT_DOUBLE_EQ(
      collection_coverage(none, factory.all_rules(), weighted_average_aggregator()), 0.0);

  // Inspect every rule: everything 1.
  CoverageTrace full;
  for (const net::Rule& r : tiny_.net.rules()) full.mark_rule(r.id);
  const CoveredSets all(index_, full);
  EXPECT_DOUBLE_EQ(
      collection_coverage(all, factory.all_rules(), weighted_average_aggregator()), 1.0);
  EXPECT_DOUBLE_EQ(
      collection_coverage(all, factory.all_rules(), fractional_aggregator()), 1.0);
  EXPECT_DOUBLE_EQ(
      collection_coverage(all, factory.all_devices(), simple_average_aggregator()), 1.0);
}

TEST_F(CoverageTest, CompositionalitySymbolicEqualsUnionOfConcrete) {
  // A symbolic test over a /30 (4 packets x other fields fixed) must yield
  // exactly the coverage of the 4 concrete tests enumerating it.
  const Ipv4Prefix block = Ipv4Prefix::parse("10.0.1.8/30");
  PacketSet fixed_rest = PacketSet::src_prefix(mgr_, Ipv4Prefix::parse("9.9.9.9/32"))
                             .intersect(PacketSet::field_equals(mgr_, packet::Field::Proto, 6))
                             .intersect(PacketSet::field_equals(mgr_, packet::Field::SrcPort, 1))
                             .intersect(PacketSet::field_equals(mgr_, packet::Field::DstPort, 2));

  CoverageTrace symbolic;
  symbolic.mark_packet(net::to_location(tiny_.l1_host),
                       dst(block).intersect(fixed_rest));

  CoverageTrace concrete;
  for (uint32_t i = 0; i < 4; ++i) {
    packet::ConcretePacket p;
    p.dst_ip = block.first() + i;
    p.src_ip = 0x09090909u;
    p.proto = 6;
    p.src_port = 1;
    p.dst_port = 2;
    concrete.mark_packet(net::to_location(tiny_.l1_host), PacketSet::from_packet(mgr_, p));
  }

  const CoveredSets cs_sym(index_, symbolic);
  const CoveredSets cs_conc(index_, concrete);
  for (const net::Rule& r : tiny_.net.rules()) {
    EXPECT_EQ(cs_sym.covered(r.id), cs_conc.covered(r.id)) << tiny_.net.rule_to_string(r.id);
  }
}

TEST_F(CoverageTest, CompositionalityInspectionEqualsFullSymbolic) {
  // A state-inspection of rule r must equal a symbolic test that reports
  // the rule's whole match set at the device.
  CoverageTrace inspect;
  inspect.mark_rule(tiny_.sp_to_p1);
  CoverageTrace symbolic;
  symbolic.mark_packet(net::device_location(tiny_.spine), index_.match_set(tiny_.sp_to_p1));

  const CoveredSets a(index_, inspect);
  const CoveredSets b(index_, symbolic);
  for (const net::Rule& r : tiny_.net.rules()) {
    EXPECT_EQ(a.covered(r.id), b.covered(r.id));
  }
}

TEST_F(CoverageTest, SemanticsBasedDefaultRoutePacketCoversOnlyDefaultRule) {
  // A packet matching the default route exercises only the default rule,
  // never the more-specific entries the device implementation might scan.
  CoverageTrace trace;
  trace.mark_packet(net::device_location(tiny_.leaf1),
                    PacketSet::from_packet(mgr_, packet_to(Ipv4Prefix::parse("99.0.0.0/8"))));
  const CoveredSets covered(index_, trace);
  EXPECT_FALSE(covered.covered(tiny_.l1_default).empty());
  EXPECT_TRUE(covered.covered(tiny_.l1_to_p1).empty());
  EXPECT_TRUE(covered.covered(tiny_.l1_to_p2).empty());
}

TEST_F(CoverageTest, VacuousRulesDoNotCapCoverage) {
  // Add a fully shadowed rule; inspecting everything else must still reach
  // coverage 1.0 (boundedness: the maximum corresponds to "no further test
  // can increase the value").
  net::Network& n = tiny_.net;
  n.add_rule(tiny_.leaf1, net::MatchSpec::for_dst(Ipv4Prefix::parse("10.0.1.1/32")),
             net::Action::drop(), net::RouteKind::Other, 99);
  const MatchSetIndex fresh(mgr_, n);
  const Transfer transfer(fresh);
  const ComponentFactory factory(transfer);
  CoverageTrace full;
  for (const net::Rule& r : n.rules()) full.mark_rule(r.id);
  const CoveredSets covered(fresh, full);
  EXPECT_DOUBLE_EQ(
      collection_coverage(covered, factory.all_rules(), fractional_aggregator()), 1.0);
}

}  // namespace
}  // namespace yardstick::coverage
