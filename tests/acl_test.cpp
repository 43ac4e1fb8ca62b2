// Tests for the multi-table (ingress ACL + FIB) device model: match-set
// computation per table, two-stage transfer, simulators, coverage
// semantics, path exploration, and the two ACL tests.
#include <gtest/gtest.h>

#include "coverage/components.hpp"
#include "coverage/path_explorer.hpp"
#include "dataplane/simulator.hpp"
#include "nettest/acl_checks.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "yardstick/engine.hpp"

namespace yardstick {
namespace {

using dataplane::MatchSetIndex;
using dataplane::Transfer;
using packet::ConcretePacket;
using packet::Field;
using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::packet_to;
using testutil::TinyNetwork;

class AclTest : public ::testing::Test {
 protected:
  AclTest() : tiny_(make_tiny()) {
    acl_rules_ = topo::install_ingress_acls(tiny_.net, {tiny_.leaf1},
                                            topo::SecurityPolicy{{23, 445}});
    index_.emplace(mgr_, tiny_.net);
    transfer_.emplace(*index_);
  }

  [[nodiscard]] PacketSet tcp_port(uint16_t port) {
    return PacketSet::field_equals(mgr_, Field::Proto, 6)
        .intersect(PacketSet::field_equals(mgr_, Field::DstPort, port));
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  std::vector<net::RuleId> acl_rules_;  // deny 23, deny 445, permit any
  std::optional<MatchSetIndex> index_;
  std::optional<Transfer> transfer_;
};

TEST_F(AclTest, InstallerShape) {
  ASSERT_EQ(acl_rules_.size(), 3u);
  EXPECT_TRUE(tiny_.net.has_acl(tiny_.leaf1));
  EXPECT_FALSE(tiny_.net.has_acl(tiny_.spine));
  EXPECT_EQ(tiny_.net.rule(acl_rules_[0]).table, net::TableKind::Acl);
  EXPECT_EQ(tiny_.net.rule(acl_rules_[2]).action_type(), net::ActionType::Permit);
  EXPECT_EQ(tiny_.net.table(tiny_.leaf1, net::TableKind::Acl).size(), 3u);
  // The FIB is untouched.
  EXPECT_EQ(tiny_.net.table(tiny_.leaf1).size(), 3u);
}

TEST_F(AclTest, TableValidation) {
  EXPECT_THROW(tiny_.net.add_rule(tiny_.spine, net::MatchSpec{},
                                  net::Action::forward({tiny_.sp_d1}),
                                  net::RouteKind::Other, 0, net::TableKind::Acl),
               std::invalid_argument);
  EXPECT_THROW(tiny_.net.add_rule(tiny_.spine, net::MatchSpec{}, net::Action::permit(),
                                  net::RouteKind::Other, 0, net::TableKind::Fib),
               std::invalid_argument);
}

TEST_F(AclTest, PerTableMatchSetsDisjoint) {
  // The permit-any entry's disjoint match set excludes the deny entries.
  const PacketSet deny_space =
      index_->match_set(acl_rules_[0]).union_with(index_->match_set(acl_rules_[1]));
  EXPECT_EQ(index_->match_set(acl_rules_[2]), deny_space.negate());
  // Permitted space = permit match sets.
  EXPECT_EQ(index_->acl_permitted_space(tiny_.leaf1), deny_space.negate());
  // Devices without ACLs permit everything.
  EXPECT_TRUE(index_->acl_permitted_space(tiny_.spine).full());
}

TEST_F(AclTest, ProcessSplitsAclAndFib) {
  const dataplane::DeviceStage stage =
      transfer_->process(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_));
  ASSERT_EQ(stage.acl.size(), 3u);
  EXPECT_EQ(stage.denied, tcp_port(23).union_with(tcp_port(445)));
  EXPECT_EQ(stage.permitted, stage.denied.negate());
  // FIB splits cover only permitted packets.
  PacketSet fib_total = PacketSet::none(mgr_);
  for (const auto& s : stage.fib) fib_total = fib_total.union_with(s.packets);
  EXPECT_EQ(fib_total, stage.permitted);
}

TEST_F(AclTest, ProcessWithoutAclPassesThrough) {
  const dataplane::DeviceStage stage =
      transfer_->process(tiny_.spine, tiny_.sp_d1, PacketSet::all(mgr_));
  EXPECT_TRUE(stage.acl.empty());
  EXPECT_TRUE(stage.denied.empty());
  EXPECT_TRUE(stage.permitted.full());
}

TEST_F(AclTest, ConcreteSimulatorDeniesAtIngress) {
  const dataplane::ConcreteSimulator sim(*transfer_);
  ConcretePacket telnet = packet_to(tiny_.p2);
  telnet.proto = 6;
  telnet.dst_port = 23;
  const auto denied = sim.run(tiny_.leaf1, tiny_.l1_host, telnet);
  EXPECT_EQ(denied.disposition, dataplane::Disposition::Dropped);
  ASSERT_EQ(denied.hops.size(), 1u);
  EXPECT_EQ(denied.hops[0].acl_rule, acl_rules_[0]);
  EXPECT_FALSE(denied.hops[0].rule.valid());

  ConcretePacket web = telnet;
  web.dst_port = 80;
  const auto ok = sim.run(tiny_.leaf1, tiny_.l1_host, web);
  EXPECT_EQ(ok.disposition, dataplane::Disposition::Delivered);
  EXPECT_EQ(ok.hops[0].acl_rule, acl_rules_[2]);  // matched the permit
  EXPECT_EQ(ok.hops[0].rule, tiny_.l1_to_p2);
  // Transit devices without ACLs record no ACL rule.
  EXPECT_FALSE(ok.hops[1].acl_rule.valid());
}

TEST_F(AclTest, SymbolicFloodAttributesDenies) {
  const dataplane::SymbolicSimulator sim(*transfer_);
  const auto result = sim.flood(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_));
  // Explicit denies land in `dropped` at the ingress location, along with
  // the spine's null-route drops downstream.
  const PacketSet at_leaf = result.dropped.at(net::to_location(tiny_.l1_host));
  ASSERT_TRUE(at_leaf.valid());
  EXPECT_EQ(at_leaf, tcp_port(23).union_with(tcp_port(445)));
  // Delivered traffic excludes blocked ports.
  const PacketSet delivered_p2 = result.delivered.at(net::to_location(tiny_.l2_host));
  EXPECT_TRUE(delivered_p2.intersect(tcp_port(23)).empty());
  // Conservation still holds.
  EXPECT_EQ(result.delivered.count() + result.dropped.count() + result.unmatched.count(),
            PacketSet::all(mgr_).count());
}

TEST_F(AclTest, CoverageClipsFibRulesByPermittedSpace) {
  // Mark ONLY blocked-port packets at leaf1: ACL deny rules get covered,
  // FIB rules must not (those packets never reach the FIB).
  coverage::CoverageTrace trace;
  trace.mark_packet(net::to_location(tiny_.l1_host), tcp_port(23));
  const coverage::CoveredSets covered(*index_, trace);
  EXPECT_FALSE(covered.covered(acl_rules_[0]).empty());
  EXPECT_TRUE(covered.covered(tiny_.l1_to_p1).empty());
  EXPECT_TRUE(covered.covered(tiny_.l1_to_p2).empty());
  EXPECT_TRUE(covered.covered(tiny_.l1_default).empty());
}

TEST_F(AclTest, StateInspectionStillCoversFullMatchSet) {
  coverage::CoverageTrace trace;
  trace.mark_rule(tiny_.l1_to_p1);
  const coverage::CoveredSets covered(*index_, trace);
  EXPECT_EQ(covered.covered(tiny_.l1_to_p1), index_->match_set(tiny_.l1_to_p1));
}

TEST_F(AclTest, DeviceCoverageIncludesAclRules) {
  coverage::CoverageTrace trace;
  for (const net::RuleId rid : acl_rules_) trace.mark_rule(rid);
  const coverage::CoveredSets covered(*index_, trace);
  const coverage::ComponentFactory factory(*transfer_);
  // Only the ACL is covered; device coverage must be strictly between 0
  // and 1 (the FIB is untested).
  const double dev = coverage::component_coverage(covered, factory.device(tiny_.leaf1));
  EXPECT_GT(dev, 0.0);
  EXPECT_LT(dev, 1.0);
}

TEST_F(AclTest, PathsEndAtDenyRules) {
  const coverage::PathExplorer explorer(*transfer_, nullptr);
  std::vector<std::vector<net::RuleId>> paths;
  std::vector<coverage::PathEnd> ends;
  explorer.explore(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_),
                   [&](const coverage::ExploredPath& p) {
                     paths.push_back(p.rules);
                     ends.push_back(p.end);
                     return true;
                   });
  // Two deny tails + (permit -> {p1 hairpin, p2 path, default-drop path}).
  ASSERT_EQ(paths.size(), 5u);
  EXPECT_EQ(paths[0], (std::vector<net::RuleId>{acl_rules_[0]}));
  EXPECT_EQ(ends[0], coverage::PathEnd::Dropped);
  EXPECT_EQ(paths[1], (std::vector<net::RuleId>{acl_rules_[1]}));
  // Onward paths start with the permit entry.
  for (size_t i = 2; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].front(), acl_rules_[2]);
  }
  // The p2 path is permit -> l1_to_p2 -> sp_to_p2 -> l2_to_p2.
  EXPECT_EQ(paths[3], (std::vector<net::RuleId>{acl_rules_[2], tiny_.l1_to_p2,
                                                tiny_.sp_to_p2, tiny_.l2_to_p2}));
}

TEST_F(AclTest, PathCoverageThroughAcl) {
  // Inspect the whole p2 chain including the permit entry: that path's
  // Equation-(3) coverage is 1.
  coverage::CoverageTrace trace;
  for (const net::RuleId rid :
       {acl_rules_[2], tiny_.l1_to_p2, tiny_.sp_to_p2, tiny_.l2_to_p2}) {
    trace.mark_rule(rid);
  }
  const coverage::CoveredSets covered(*index_, trace);
  const coverage::PathExplorer explorer(*transfer_, &covered);
  double p2_ratio = -1.0;
  explorer.explore(tiny_.leaf1, tiny_.l1_host, PacketSet::all(mgr_),
                   [&](const coverage::ExploredPath& p) {
                     if (p.rules.size() == 4) p2_ratio = p.covered_ratio;
                     return true;
                   });
  EXPECT_DOUBLE_EQ(p2_ratio, 1.0);
}

TEST_F(AclTest, AclBlockCheckPassesAndMarks) {
  ys::CoverageTracker tracker;
  const auto result = nettest::AclBlockCheck({23, 445}).run(*transfer_, tracker);
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.checks, 2u);
  EXPECT_EQ(tracker.rule_calls(), 2u);
  // The inspected deny rules are now fully covered.
  const coverage::CoveredSets covered(*index_, tracker.trace());
  EXPECT_EQ(covered.covered(acl_rules_[0]), index_->match_set(acl_rules_[0]));
}

TEST_F(AclTest, AclBlockCheckCatchesMissingEntry) {
  ys::CoverageTracker tracker;
  const auto result = nettest::AclBlockCheck({23, 445, 8080}).run(*transfer_, tracker);
  EXPECT_FALSE(result.passed());
  EXPECT_EQ(result.failures, 1u);
}

TEST_F(AclTest, BlockedPortCheckPassesAndCatchesHoles) {
  ys::CoverageTracker tracker;
  EXPECT_TRUE(nettest::BlockedPortCheck({23, 445}).run(*transfer_, tracker).passed());
  EXPECT_GT(tracker.packet_calls(), 0u);
  // A port with no deny entry reaches the FIB -> the check fails.
  EXPECT_FALSE(nettest::BlockedPortCheck({8080}).run(*transfer_, tracker).passed());
}

TEST_F(AclTest, UntestedRulesIncludeAclEntries) {
  const coverage::CoverageTrace empty;
  const ys::CoverageEngine engine(mgr_, tiny_.net, empty);
  size_t security = 0;
  for (const net::RuleId rid : engine.untested_rules()) {
    if (tiny_.net.rule(rid).kind == net::RouteKind::Security) ++security;
  }
  EXPECT_EQ(security, 3u);
}

}  // namespace
}  // namespace yardstick
