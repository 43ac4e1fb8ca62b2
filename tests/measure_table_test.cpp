// Step 3's measure table (DESIGN.md §15) against the (G, µ, κ, α)
// framework it stands in for on local components. Every rule, device and
// outgoing interface, every headline number overall and per role, the gap
// counts and the untested lists must equal what the framework computes
// over ComponentFactory specs — exactly, not within a tolerance. The three
// networks cover shadowed rules, ECMP, ACL-clipped FIB rules and rewrites;
// each runs at 1 and 4 threads, with a cold and a warm incremental cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>

#include "dataplane/transfer.hpp"
#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/test.hpp"
#include "nettest/transform_checks.hpp"
#include "routing/fib_builder.hpp"
#include "test_util.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {
namespace {

using coverage::ComponentCoverage;
using coverage::ComponentSpec;

enum class NetworkKind { Tiny, FatTree, Regional };

struct Case {
  NetworkKind network;
  unsigned threads;
  bool warm_cache;
};

std::string label(const Case& c) {
  const char* net = c.network == NetworkKind::Tiny      ? "tiny"
                    : c.network == NetworkKind::FatTree ? "fattree_k4"
                                                        : "regional_acl_transforms";
  return std::string(net) + "_t" + std::to_string(c.threads) +
         (c.warm_cache ? "_warm" : "_cold");
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) { return label(info.param); }

/// Keeps ctest's test names free of the struct's raw padding bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << label(c); }

/// A network plus the coverage trace of a suite run over it.
struct Subject {
  testutil::TinyNetwork tiny;
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  const net::Network* network = nullptr;
  coverage::CoverageTrace trace;
};

/// The tiny network plus a fully shadowed twin of leaf1's p1 route; packets
/// at one host port and one state-inspected rule exercise both branches of
/// Algorithm 1.
void build_tiny(bdd::BddManager& mgr, Subject& s) {
  s.tiny = testutil::make_tiny();
  s.tiny.net.add_rule(s.tiny.leaf1, net::MatchSpec::for_dst(s.tiny.p1),
                      net::Action::forward({s.tiny.l1_up}), net::RouteKind::Internal, 9);
  s.network = &s.tiny.net;
  CoverageTracker tracker;
  tracker.mark_packet(net::to_location(s.tiny.l1_host),
                      packet::PacketSet::dst_prefix(mgr, s.tiny.p2));
  tracker.mark_rule(s.tiny.sp_to_p1);
  s.trace = tracker.trace();
}

void run_suite(bdd::BddManager& mgr, const nettest::TestSuite& suite, Subject& s) {
  const dataplane::MatchSetIndex index(mgr, *s.network);
  const dataplane::Transfer transfer(index);
  CoverageTracker tracker;
  (void)suite.run_all(transfer, tracker);
  s.trace = tracker.trace();
}

/// k=4 fat tree (ECMP everywhere) under the fat-tree paper suite.
void build_fattree(bdd::BddManager& mgr, Subject& s) {
  s.fattree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(s.fattree.network, s.fattree.routing);
  s.network = &s.fattree.network;
  nettest::TestSuite suite("fattree");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::ToRPingmesh>());
  run_suite(mgr, suite, s);
}

/// Regional network with ingress ACLs and two tunnels / NAT rules per WAN
/// (the CLI's `regional --acl --transforms 2`) under the final suite.
void build_regional(bdd::BddManager& mgr, Subject& s) {
  s.regional = topo::make_regional({});
  const topo::TransformState transforms =
      topo::plan_transforms(s.regional, {.tunnels = 2, .nat_rules_per_wan = 2});
  net::Network& network = s.regional.network;
  routing::FibBuilder::compute_and_build(network, s.regional.routing);
  topo::install_ingress_acls(network, s.regional.tors);
  topo::install_transform_rules(network, transforms, s.regional.routing);
  s.network = &network;
  const std::unordered_set<net::DeviceId> excluded(
      s.regional.routing.no_default_devices.begin(),
      s.regional.routing.no_default_devices.end());
  nettest::TestSuite suite("final");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
  suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  suite.add(std::make_unique<nettest::InternalRouteCheck>());
  suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  suite.add(std::make_unique<nettest::AclBlockCheck>());
  suite.add(std::make_unique<nettest::BlockedPortCheck>());
  suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
  suite.add(std::make_unique<nettest::NatTranslationCheck>());
  run_suite(mgr, suite, s);
}

/// Devices `filter` keeps, in network order (the engine's fold order).
std::vector<net::DeviceId> kept(const net::Network& network, const DeviceFilter& filter) {
  std::vector<net::DeviceId> out;
  for (const net::Device& d : network.devices()) {
    if (!filter || filter(d)) out.push_back(d.id);
  }
  return out;
}

/// The four headline numbers, folded by the framework.
MetricRow framework_row(const coverage::CoveredSets& covered,
                        const coverage::ComponentFactory& factory,
                        const std::vector<net::DeviceId>& devices) {
  const std::vector<ComponentSpec> rules = factory.all_rules(devices);
  MetricRow row;
  row.device_fractional = coverage::collection_coverage(
      covered, factory.all_devices(devices), coverage::fractional_aggregator());
  row.interface_fractional = coverage::collection_coverage(
      covered, factory.all_interfaces(devices), coverage::fractional_aggregator());
  row.rule_fractional =
      coverage::collection_coverage(covered, rules, coverage::fractional_aggregator());
  row.rule_weighted =
      coverage::collection_coverage(covered, rules, coverage::weighted_average_aggregator());
  return row;
}

void expect_same_row(const MetricRow& want, const MetricRow& got, const std::string& where) {
  EXPECT_EQ(want.device_fractional, got.device_fractional) << where;
  EXPECT_EQ(want.interface_fractional, got.interface_fractional) << where;
  EXPECT_EQ(want.rule_fractional, got.rule_fractional) << where;
  EXPECT_EQ(want.rule_weighted, got.rule_weighted) << where;
}

class MeasureTableTest : public ::testing::TestWithParam<Case> {
 protected:
  MeasureTableTest() {
    cache_dir_ = ::testing::TempDir() + "/measure_table_" + label(GetParam());
    std::remove((cache_dir_ + "/coverage.cache").c_str());
    switch (GetParam().network) {
      case NetworkKind::Tiny: build_tiny(scratch_, subject_); break;
      case NetworkKind::FatTree: build_fattree(scratch_, subject_); break;
      case NetworkKind::Regional: build_regional(scratch_, subject_); break;
    }
  }
  ~MeasureTableTest() override { std::remove((cache_dir_ + "/coverage.cache").c_str()); }

  /// One engine construction in its own manager over the shared cache dir.
  [[nodiscard]] std::unique_ptr<CoverageEngine> engine(bdd::BddManager& mgr) const {
    return std::make_unique<CoverageEngine>(mgr, *subject_.network,
                                            subject_.trace.imported_into(mgr),
                                            EngineOptions{nullptr, GetParam().threads, cache_dir_});
  }

  bdd::BddManager scratch_{packet::kNumHeaderBits};
  Subject subject_;
  std::string cache_dir_;
};

TEST_P(MeasureTableTest, EqualsFrameworkExactly) {
  // Declared before the engine so they outlive it.
  bdd::BddManager cold_mgr(packet::kNumHeaderBits);
  bdd::BddManager warm_mgr(packet::kNumHeaderBits);
  std::unique_ptr<CoverageEngine> built = engine(cold_mgr);
  if (GetParam().warm_cache) {
    built = engine(warm_mgr);
    ASSERT_TRUE(built->cache_stats()->loaded);
    EXPECT_EQ(built->cache_stats()->match_hits, built->cache_stats()->devices);
  }
  const CoverageEngine& eng = *built;
  ASSERT_FALSE(eng.truncated());
  const net::Network& network = *subject_.network;
  const coverage::CoveredSets& covered = eng.covered_sets();
  const coverage::ComponentFactory& factory = eng.components();

  // Every rule: value, weight (|M[r]|) and exercised ATUs.
  std::map<net::RouteKind, RuleGap> gaps;
  std::vector<net::RuleId> untested_rules;
  size_t shadowed = 0;
  for (const net::DeviceId dev : kept(network, nullptr)) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(dev, table)) {
        const ComponentCoverage want =
            coverage::component_coverage_weighted(covered, factory.rule(rid));
        const RuleMeasure& got = eng.rule_measure(rid);
        const std::string where = "rule " + std::to_string(rid.value);
        EXPECT_EQ(want.value, eng.rule_coverage(rid)) << where;
        EXPECT_EQ(bdd::to_string(want.weight), bdd::to_string(got.match)) << where;
        EXPECT_EQ(bdd::to_string(covered.covered_size(rid)), bdd::to_string(got.covered))
            << where;
        if (want.value == 0.0) untested_rules.push_back(rid);
        if (want.weight == 0) {
          ++shadowed;
          continue;
        }
        RuleGap& gap = gaps[network.rule(rid).kind];
        gap.kind = network.rule(rid).kind;
        ++gap.total;
        if (want.value == 0.0) ++gap.untested;
      }
    }
  }
  // Each network brings the feature it is here for.
  size_t ecmp = 0, acl_clipped = 0, rewrites = 0;
  for (const net::Rule& rule : network.rules()) {
    if (rule.action.out_interfaces.size() > 1) ++ecmp;
    if (rule.table == net::TableKind::Fib && network.has_acl(rule.device)) ++acl_clipped;
    if (!rule.action.rewrites.empty()) ++rewrites;
  }
  switch (GetParam().network) {
    case NetworkKind::Tiny: EXPECT_GT(shadowed, 0u); break;
    case NetworkKind::FatTree: EXPECT_GT(ecmp, 0u); break;
    case NetworkKind::Regional:
      EXPECT_GT(acl_clipped, 0u);
      EXPECT_GT(rewrites, 0u);
      break;
  }

  // Every device and outgoing interface.
  size_t untested_devices = 0;
  std::vector<net::InterfaceId> untested_interfaces;
  for (const net::Device& dev : network.devices()) {
    const double want = coverage::component_coverage(covered, factory.device(dev.id));
    EXPECT_EQ(want, eng.device_coverage(dev.id)) << "device " << dev.name;
    if (want == 0.0) ++untested_devices;
    for (const net::InterfaceId intf : dev.interfaces) {
      const double want_intf = coverage::component_coverage(covered, factory.interface(intf));
      EXPECT_EQ(want_intf, eng.interface_coverage(intf)) << "interface " << intf.value;
      if (want_intf == 0.0) untested_interfaces.push_back(intf);
    }
  }
  EXPECT_EQ(untested_rules, eng.untested_rules());
  EXPECT_EQ(untested_interfaces, eng.untested_interfaces());

  // Headline numbers overall and per role, through metrics() and report().
  const CoverageReport report = eng.report();
  const MetricRow overall = framework_row(covered, factory, kept(network, nullptr));
  expect_same_row(overall, eng.metrics(), "metrics()");
  expect_same_row(overall, report.overall, "report().overall");
  for (const RoleBreakdown& row : report.by_role) {
    const std::string where = std::string("role ") + net::to_string(row.role);
    const MetricRow want = framework_row(covered, factory, kept(network, role_filter(row.role)));
    expect_same_row(want, row.metrics, where);
    expect_same_row(want, eng.metrics(role_filter(row.role)), where + " metrics()");
  }
  const DeviceFilter tor = role_filter(net::Role::ToR);
  EXPECT_EQ(coverage::collection_coverage(covered, factory.all_rules(kept(network, tor)),
                                          coverage::simple_average_aggregator()),
            eng.rules_coverage(coverage::simple_average_aggregator(), tor));

  // Gap counts and untested totals.
  ASSERT_EQ(gaps.size(), report.gaps.size());
  size_t i = 0;
  for (const auto& [kind, want] : gaps) {
    const RuleGap& got = report.gaps[i++];
    EXPECT_EQ(want.kind, got.kind);
    EXPECT_EQ(want.total, got.total) << net::to_string(kind);
    EXPECT_EQ(want.untested, got.untested) << net::to_string(kind);
  }
  EXPECT_EQ(untested_devices, report.untested_device_count);
  EXPECT_EQ(untested_interfaces.size(), report.untested_interface_count);
}

INSTANTIATE_TEST_SUITE_P(
    Networks, MeasureTableTest,
    ::testing::Values(Case{NetworkKind::Tiny, 1, false}, Case{NetworkKind::Tiny, 4, true},
                      Case{NetworkKind::Tiny, 1, true}, Case{NetworkKind::Tiny, 4, false},
                      Case{NetworkKind::FatTree, 1, false}, Case{NetworkKind::FatTree, 4, true},
                      Case{NetworkKind::FatTree, 1, true}, Case{NetworkKind::FatTree, 4, false},
                      Case{NetworkKind::Regional, 1, false},
                      Case{NetworkKind::Regional, 4, true},
                      Case{NetworkKind::Regional, 1, true},
                      Case{NetworkKind::Regional, 4, false}),
    case_name);

}  // namespace
}  // namespace yardstick::ys
