// Tests for path exploration (§5.2) and Equation (3) path/flow coverage.
#include <gtest/gtest.h>

#include "coverage/components.hpp"
#include "coverage/path_explorer.hpp"
#include "test_util.hpp"
#include "yardstick/engine.hpp"

namespace yardstick::coverage {
namespace {

using dataplane::MatchSetIndex;
using dataplane::Transfer;
using packet::Field;
using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::TinyNetwork;

class PathTest : public ::testing::Test {
 protected:
  PathTest() : tiny_(make_tiny()), index_(mgr_, tiny_.net), transfer_(index_) {}

  [[nodiscard]] PacketSet dst(const Ipv4Prefix& p) {
    return PacketSet::dst_prefix(mgr_, p);
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  MatchSetIndex index_;
  Transfer transfer_;
};

TEST_F(PathTest, UniverseFromOneHostPort) {
  const CoverageTrace empty;
  const CoveredSets covered(index_, empty);
  const PathExplorer explorer(transfer_, &covered);

  std::vector<std::vector<net::RuleId>> paths;
  std::vector<PathEnd> ends;
  explorer.explore(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_),
                   [&](const ExploredPath& p) {
                     paths.push_back(p.rules);
                     ends.push_back(p.end);
                     return true;
                   });
  // Expected maximal paths from leaf1:
  //   p1 hairpin out the host port           [l1_to_p1]           delivered
  //   p2 via spine to leaf2                  [l1_to_p2, sp_to_p2, l2_to_p2] delivered
  //   everything else: default into spine's null route [l1_default, sp_drop] dropped
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], (std::vector<net::RuleId>{tiny_.l1_to_p1}));
  EXPECT_EQ(ends[0], PathEnd::Delivered);
  EXPECT_EQ(paths[1], (std::vector<net::RuleId>{tiny_.l1_to_p2, tiny_.sp_to_p2,
                                                tiny_.l2_to_p2}));
  EXPECT_EQ(ends[1], PathEnd::Delivered);
  EXPECT_EQ(paths[2],
            (std::vector<net::RuleId>{tiny_.l1_default, tiny_.sp_default_drop}));
  EXPECT_EQ(ends[2], PathEnd::Dropped);
}

TEST_F(PathTest, GuardSizesMatchTraffic) {
  const PathExplorer explorer(transfer_, nullptr);
  std::vector<bdd::Uint128> sizes;
  explorer.explore(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_),
                   [&](const ExploredPath& p) {
                     sizes.push_back(p.guard_size);
                     return true;
                   });
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], dst(tiny_.p1).count());
  EXPECT_EQ(sizes[1], dst(tiny_.p2).count());
  EXPECT_EQ(sizes[2],
            PacketSet::all(mgr_).minus(dst(tiny_.p1)).minus(dst(tiny_.p2)).count());
}

TEST_F(PathTest, UniverseVisitsAllIngressPorts) {
  const ys::CoverageEngine engine(mgr_, tiny_.net, CoverageTrace{});
  // 3 maximal paths from each of the two host ports (the tiny network is
  // symmetric).
  EXPECT_EQ(engine.path_coverage().total_paths, 6u);
}

TEST_F(PathTest, CallbackFalseStopsEarly) {
  const PathExplorer explorer(transfer_, nullptr);
  uint64_t seen = 0;
  explorer.explore(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_),
                   [&](const ExploredPath&) {
                     ++seen;
                     return false;
                   });
  EXPECT_EQ(seen, 1u);
}

TEST_F(PathTest, CoveredRatioEquationThree) {
  // Test half of p2 end-to-end: the p2 path's coverage is 0.5; the others 0.
  CoverageTrace trace;
  const PacketSet half = dst(Ipv4Prefix::parse("10.0.2.0/25"));
  trace.mark_packet(net::to_location(tiny_.l1_host), half);
  trace.mark_packet(net::to_location(tiny_.sp_d1), half);
  trace.mark_packet(net::to_location(tiny_.l2_up), half);
  const CoveredSets covered(index_, trace);
  const PathExplorer explorer(transfer_, &covered);

  std::vector<double> ratios;
  explorer.explore(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_),
                   [&](const ExploredPath& p) {
                     ratios.push_back(p.covered_ratio);
                     return true;
                   });
  ASSERT_EQ(ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(ratios[0], 0.0);  // p1 path untested
  EXPECT_DOUBLE_EQ(ratios[1], 0.5);  // p2 path half tested end-to-end
  EXPECT_DOUBLE_EQ(ratios[2], 0.0);  // default path untested
}

TEST_F(PathTest, DisjointHopTestsGiveZeroPathCoverage) {
  // Different rules of the path tested with disjoint packet sets: no one
  // packet crossed the whole path, so coverage is zero (§4.3.2).
  CoverageTrace trace;
  trace.mark_packet(net::to_location(tiny_.l1_host), dst(Ipv4Prefix::parse("10.0.2.0/25")));
  trace.mark_packet(net::to_location(tiny_.sp_d1), dst(Ipv4Prefix::parse("10.0.2.128/25")));
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);

  const ComponentSpec spec = factory.path(
      {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}, dst(tiny_.p2));
  EXPECT_DOUBLE_EQ(component_coverage(covered, spec), 0.0);
}

TEST_F(PathTest, PathMeasureFullCoverage) {
  CoverageTrace trace;
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    trace.mark_rule(rid);
  }
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);
  const ComponentSpec spec = factory.path(
      {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}, dst(tiny_.p2));
  EXPECT_DOUBLE_EQ(component_coverage(covered, spec), 1.0);
}

TEST_F(PathTest, PathMeasureWithRewriteUsesMinRatio) {
  // Build a 2-hop chain where hop 1 rewrites dst to a constant
  // (many-to-one). Footnote 2: the measure is the min per-hop ratio.
  net::Network n;
  const auto a = n.add_device("a", net::Role::Other);
  const auto b = n.add_device("b", net::Role::Other);
  const auto a_in = n.add_interface(a, "in", net::PortKind::HostPort);
  const auto a0 = n.add_interface(a, "eth0");
  const auto b0 = n.add_interface(b, "eth0");
  const auto b_out = n.add_interface(b, "out", net::PortKind::HostPort);
  n.add_link(a0, b0);

  net::Action vip_rewrite = net::Action::forward({a0});
  vip_rewrite.rewrites.push_back({Field::DstIp, 0x0a00020fu});  // into 10.0.2.0/24
  const auto r1 = n.add_rule(a, net::MatchSpec::for_dst(Ipv4Prefix::parse("20.0.0.0/8")),
                             vip_rewrite, net::RouteKind::Other, 1);
  const auto r2 = n.add_rule(b, net::MatchSpec::for_dst(Ipv4Prefix::parse("10.0.2.0/24")),
                             net::Action::forward({b_out}), net::RouteKind::Other, 1);

  const MatchSetIndex index(mgr_, n);
  const Transfer transfer(index);
  const ComponentFactory factory(transfer);

  // Test a quarter of the 20/8 guard end to end.
  CoverageTrace trace;
  const PacketSet quarter = PacketSet::dst_prefix(mgr_, Ipv4Prefix::parse("20.0.0.0/10"));
  trace.mark_packet(net::to_location(a_in), quarter);
  // After the rewrite everything collapses to one dst; the covered packets
  // at b are the rewritten images of the tested quarter = the full image.
  trace.mark_packet(net::to_location(b0),
                    quarter.rewrite_field(Field::DstIp, 0x0a00020fu));
  const CoveredSets covered(index, trace);

  const ComponentSpec spec =
      factory.path({r1, r2}, PacketSet::dst_prefix(mgr_, Ipv4Prefix::parse("20.0.0.0/8")));
  // Hop 1 ratio: image of tested quarter == image of all (many-to-one) = 1?
  // No: Eq. 3 applies T[r1] *before* the transform, so survivors after hop
  // 1 are the image of the quarter — which equals the full image set. The
  // min ratio across hops is therefore determined pre-collapse at hop 1
  // via the companion set: |F(quarter)| / |F(all)| = 1. Coverage is 1.
  // What the test pins down: the measure is well-defined (no 0/0) and in
  // [0,1] under many-to-one transforms.
  const double value = component_coverage(covered, spec);
  EXPECT_GE(value, 0.0);
  EXPECT_LE(value, 1.0);
}

TEST_F(PathTest, FlowCoverageWeightsPaths) {
  // Flow = everything entering leaf1's host port. Cover the p2 path fully
  // (rule inspection); the flow's coverage is the weighted share of its
  // packets that are tested end-to-end.
  CoverageTrace trace;
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    trace.mark_rule(rid);
  }
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);

  const ComponentSpec flow =
      factory.flow(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_));
  const double value = component_coverage(covered, flow);
  const double expected = bdd::ratio(dst(tiny_.p2).count(), PacketSet::all(mgr_).count());
  EXPECT_NEAR(value, expected, 1e-9);

  // A flow restricted to p2 alone is fully covered.
  const ComponentSpec flow_p2 = factory.flow(tiny_.leaf1, tiny_.l1_host, dst(tiny_.p2));
  EXPECT_DOUBLE_EQ(component_coverage(covered, flow_p2), 1.0);
}

TEST_F(PathTest, CoflowAggregatesFlows) {
  // A CoFlow of both directions between the leaves: cover the p2 chain
  // only; the CoFlow's coverage is p2's share of the two flows' traffic.
  CoverageTrace trace;
  for (const net::RuleId rid : {tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    trace.mark_rule(rid);
  }
  const CoveredSets covered(index_, trace);
  const ComponentFactory factory(transfer_);

  std::vector<ComponentFactory::FlowEndpoint> flows;
  flows.push_back({tiny_.leaf1, tiny_.l1_host, dst(tiny_.p2)});
  flows.push_back({tiny_.leaf2, tiny_.l2_host, dst(tiny_.p1)});
  const ComponentSpec spec = factory.coflow(flows);
  // Forward direction fully covered, reverse untested: weighted mean 0.5
  // (both flows carry the same packet count).
  EXPECT_NEAR(component_coverage(covered, spec), 0.5, 1e-9);

  // Empty CoFlow is vacuous.
  EXPECT_DOUBLE_EQ(component_coverage(covered, factory.coflow({})), 1.0);
}

TEST_F(PathTest, FlowWithNoViablePathsIsVacuous) {
  // Inject at leaf1 packets that leaf1 drops nowhere... use an empty set:
  // no guarded strings -> vacuous coverage 1 with weight 0.
  const CoverageTrace empty;
  const CoveredSets covered(index_, empty);
  const ComponentFactory factory(transfer_);
  const ComponentSpec flow =
      factory.flow(tiny_.leaf1, tiny_.l1_host, PacketSet::none(mgr_));
  EXPECT_DOUBLE_EQ(component_coverage(covered, flow), 1.0);
}

TEST_F(PathTest, DepthLimitEmitsTruncatedPaths) {
  net::Network n;
  const auto a = n.add_device("a", net::Role::Other);
  const auto b = n.add_device("b", net::Role::Other);
  const auto ain = n.add_interface(a, "in", net::PortKind::HostPort);
  const auto a0 = n.add_interface(a, "eth0");
  const auto b0 = n.add_interface(b, "eth0");
  n.add_link(a0, b0);
  n.add_rule(a, net::MatchSpec{}, net::Action::forward({a0}));
  n.add_rule(b, net::MatchSpec{}, net::Action::forward({b0}));
  const MatchSetIndex index(mgr_, n);
  const Transfer transfer(index);
  PathExplorerOptions options;
  options.max_depth = 8;
  const PathExplorer explorer(transfer, nullptr, options);
  std::vector<PathEnd> ends;
  explorer.explore(a, ain, PacketSet::all(mgr_), [&](const ExploredPath& p) {
    ends.push_back(p.end);
    EXPECT_LE(p.rules.size(), 8u);
    return true;
  });
  ASSERT_FALSE(ends.empty());
  EXPECT_EQ(ends[0], PathEnd::DepthLimit);
}

TEST_F(PathTest, UnmatchedTailEmittedAtPreviousRule) {
  // spine table without default: leaf1's default traffic dies unmatched at
  // the spine; the emitted path must end at l1_default with Unmatched.
  net::Network n;
  const auto leaf = n.add_device("leaf", net::Role::ToR);
  const auto spine = n.add_device("spine", net::Role::Spine);
  const auto lin = n.add_interface(leaf, "in", net::PortKind::HostPort);
  const auto l0 = n.add_interface(leaf, "eth0");
  const auto s0 = n.add_interface(spine, "eth0");
  n.add_link(l0, s0);
  const auto p1 = Ipv4Prefix::parse("10.0.1.0/24");
  n.add_rule(spine, net::MatchSpec::for_dst(p1), net::Action::drop(), net::RouteKind::Other, 8);
  const auto leaf_default =
      n.add_rule(leaf, net::MatchSpec::for_dst(Ipv4Prefix(0, 0)),
                 net::Action::forward({l0}), net::RouteKind::Default, 32);
  const MatchSetIndex index(mgr_, n);
  const Transfer transfer(index);
  const PathExplorer explorer(transfer, nullptr);
  std::vector<std::pair<std::vector<net::RuleId>, PathEnd>> emitted;
  explorer.explore(leaf, lin, PacketSet::all(mgr_), [&](const ExploredPath& p) {
    emitted.emplace_back(p.rules, p.end);
    return true;
  });
  bool found_unmatched = false;
  for (const auto& [rules, end] : emitted) {
    if (end == PathEnd::Unmatched) {
      found_unmatched = true;
      EXPECT_EQ(rules, (std::vector<net::RuleId>{leaf_default}));
    }
  }
  EXPECT_TRUE(found_unmatched);
}

}  // namespace
}  // namespace yardstick::coverage
