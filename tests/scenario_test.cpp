// Coverage-under-failure tests (DESIGN.md §13): ScenarioSpec parsing and
// resolution, deterministic random scenario generation, the transforming-rule
// overlay (tunnel encap/decap round trip, ECMP rehash under link failure,
// tunnel rules counted by the coverage engine), and the ScenarioRunner's
// baseline-vs-scenario diff — bit-identical across thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "dataplane/simulator.hpp"
#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "routing/fib_builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "fib_reference.hpp"
#include "scenario_reference.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/engine.hpp"

namespace yardstick {
namespace {

using scenario::ScenarioSpec;

/// Small one-pod regional network with two tunnels (tor0 <-> tor1) and one
/// NAT rule per WAN. Tunnel 0: ingress tors[0] -> egress tors[1]; tunnel 1
/// runs the other way (round-robin ingress, offset egress).
class ScenarioTest : public ::testing::Test {
 protected:
  static topo::RegionalParams small_params() {
    topo::RegionalParams p;
    p.datacenters = 1;
    p.pods_per_dc = 1;
    p.tors_per_pod = 2;
    p.aggs_per_pod = 2;
    p.spines_per_dc = 2;
    p.hubs = 2;
    p.wans = 1;
    p.host_ports_per_tor = 2;
    p.wide_area_prefix_count = 4;
    p.hubs_without_default = 0;
    return p;
  }

  ScenarioTest() : region_(topo::make_regional(small_params())) {
    state_ = topo::plan_transforms(region_, {.tunnels = 2, .nat_rules_per_wan = 1});
    rebuild();
  }

  /// Recompute FIBs for the current failure sets and re-apply the overlay —
  /// the same post-FIB sequence the runner performs per scenario.
  void rebuild() {
    routing::FibBuilder::compute_and_build(region_.network, region_.routing);
    topo::install_transform_rules(region_.network, state_, region_.routing);
  }

  [[nodiscard]] nettest::TestSuite transform_suite() const {
    nettest::TestSuite suite("transforms");
    suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
    suite.add(std::make_unique<nettest::NatTranslationCheck>());
    return suite;
  }

  [[nodiscard]] const std::string& name(net::DeviceId id) const {
    return region_.network.device(id).name;
  }

  /// The encap rule a tunnel plan installed on its ingress ToR.
  [[nodiscard]] const net::Rule* encap_rule(const topo::TunnelPlan& plan) const {
    for (const net::RuleId rid : region_.network.table(plan.ingress)) {
      const net::Rule& rule = region_.network.rule(rid);
      if (rule.kind == net::RouteKind::Tunnel && rule.dst_prefix() == plan.vip) {
        return &rule;
      }
    }
    return nullptr;
  }

  topo::RegionalNetwork region_;
  topo::TransformState state_;
};

TEST_F(ScenarioTest, SpecParsesAndRoundTrips) {
  const std::string text =
      "# hand-picked sweep\n"
      "scenario spine-loss\n"
      "device dc0-spine-0\n"
      "\n"
      "scenario tor-uplink\n"
      "link dc0-pod0-tor-0 dc0-pod0-agg-0\n"
      "link dc0-pod0-tor-0 dc0-pod0-agg-1\n";
  const ScenarioSpec spec = ScenarioSpec::parse(text);
  ASSERT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[0].name, "spine-loss");
  ASSERT_EQ(spec.scenarios[0].down_devices.size(), 1u);
  EXPECT_EQ(spec.scenarios[0].down_devices[0], "dc0-spine-0");
  EXPECT_TRUE(spec.scenarios[0].down_links.empty());
  EXPECT_EQ(spec.scenarios[1].name, "tor-uplink");
  ASSERT_EQ(spec.scenarios[1].down_links.size(), 2u);
  EXPECT_EQ(spec.scenarios[1].down_links[1].second, "dc0-pod0-agg-1");
  // to_text() round-trips through parse().
  EXPECT_EQ(ScenarioSpec::parse(spec.to_text()).to_text(), spec.to_text());
}

TEST_F(ScenarioTest, SpecRejectsMalformedInput) {
  EXPECT_THROW((void)ScenarioSpec::parse(""), ys::InvalidInputError);
  EXPECT_THROW((void)ScenarioSpec::parse("# only comments\n"), ys::InvalidInputError);
  // Directive before any scenario.
  EXPECT_THROW((void)ScenarioSpec::parse("device d0\n"), ys::InvalidInputError);
  // Duplicate scenario name.
  EXPECT_THROW((void)ScenarioSpec::parse("scenario a\ndevice d\nscenario a\ndevice d\n"),
               ys::InvalidInputError);
  // A scenario must fail something.
  EXPECT_THROW((void)ScenarioSpec::parse("scenario empty\n"), ys::InvalidInputError);
  // Arity errors and unknown directives.
  EXPECT_THROW((void)ScenarioSpec::parse("scenario a\nlink only-one\n"),
               ys::InvalidInputError);
  EXPECT_THROW((void)ScenarioSpec::parse("scenario a\nfrobnicate d\n"),
               ys::InvalidInputError);
  EXPECT_THROW((void)ScenarioSpec::load("/nonexistent/sweep.spec"), ys::IoError);
}

TEST_F(ScenarioTest, ResolveMapsNamesAndRejectsUnknowns) {
  scenario::Scenario ok;
  ok.name = "ok";
  ok.down_devices.push_back(name(region_.spines[0]));
  ok.down_links.emplace_back(name(region_.tors[0]), name(region_.aggs[0]));
  const scenario::ResolvedScenario resolved = scenario::resolve(ok, region_.network);
  EXPECT_EQ(resolved.devices.size(), 1u);
  EXPECT_EQ(resolved.links.size(), 1u);
  EXPECT_TRUE(resolved.devices.contains(region_.spines[0]));

  scenario::Scenario bad_device;
  bad_device.name = "bad";
  bad_device.down_devices.push_back("no-such-router");
  EXPECT_THROW((void)scenario::resolve(bad_device, region_.network),
               ys::InvalidInputError);

  // Two real devices with no connecting link (ToR and WAN are tiers apart).
  scenario::Scenario bad_link;
  bad_link.name = "bad";
  bad_link.down_links.emplace_back(name(region_.tors[0]), name(region_.wans[0]));
  EXPECT_THROW((void)scenario::resolve(bad_link, region_.network),
               ys::InvalidInputError);
}

TEST_F(ScenarioTest, RandomLinkScenariosAreSeedDeterministic) {
  const ScenarioSpec a = scenario::random_link_scenarios(region_.network, 3, 42, 2);
  const ScenarioSpec b = scenario::random_link_scenarios(region_.network, 3, 42, 2);
  EXPECT_EQ(a.to_text(), b.to_text());
  ASSERT_EQ(a.scenarios.size(), 3u);
  for (const scenario::Scenario& s : a.scenarios) {
    ASSERT_EQ(s.down_links.size(), 2u);
    // Links within a scenario are distinct, and every name resolves.
    const scenario::ResolvedScenario r = scenario::resolve(s, region_.network);
    EXPECT_EQ(r.links.size(), 2u);
  }
  const ScenarioSpec c = scenario::random_link_scenarios(region_.network, 3, 43, 2);
  EXPECT_NE(a.to_text(), c.to_text());
  EXPECT_THROW((void)scenario::random_link_scenarios(region_.network, 0, 1),
               ys::InvalidInputError);
}

TEST_F(ScenarioTest, TunnelEncapDecapRoundTripsConcretely) {
  ASSERT_EQ(state_.tunnels.size(), 2u);
  const topo::TunnelPlan& plan = state_.tunnels[0];
  EXPECT_EQ(plan.ingress, region_.tors[0]);
  EXPECT_EQ(plan.egress, region_.tors[1]);

  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, region_.network);
  const dataplane::Transfer transfer(index);
  const dataplane::ConcreteSimulator sim(transfer);

  packet::ConcretePacket pkt;
  pkt.dst_ip = plan.vip.address();
  const dataplane::ConcreteTrace trace =
      sim.run(plan.ingress, net::InterfaceId{}, pkt);
  ASSERT_EQ(trace.disposition, dataplane::Disposition::Delivered);
  // Decap restored the inner destination and delivered behind the egress.
  EXPECT_EQ(trace.final_packet.dst_ip, plan.inner_dst);
  EXPECT_EQ(region_.network.interface(trace.egress).device, plan.egress);
  // The encapped leg actually crossed the fabric.
  ASSERT_GE(trace.hops.size(), 3u);
  EXPECT_EQ(trace.hops.front().device, plan.ingress);
  EXPECT_EQ(trace.hops.back().device, plan.egress);
}

TEST_F(ScenarioTest, TransformChecksPassAndEngineCountsTunnelRules) {
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, region_.network);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  for (const nettest::TestResult& r : transform_suite().run_all(transfer, tracker)) {
    EXPECT_TRUE(r.passed()) << r.name << ": "
                            << (r.failure_messages.empty() ? ""
                                                           : r.failure_messages[0]);
    EXPECT_GT(r.checks, 0u) << r.name;
  }

  // Every tunnel and NAT rule the overlay installed is covered: the checks
  // flood exactly the headers those rules match.
  const ys::CoverageEngine engine(mgr, region_.network, tracker.trace());
  size_t transform_rules = 0;
  for (const net::Rule& rule : region_.network.rules()) {
    if (rule.kind != net::RouteKind::Tunnel && rule.kind != net::RouteKind::Nat) {
      continue;
    }
    ++transform_rules;
    EXPECT_GT(engine.rule_coverage(rule.id), 0.0)
        << to_string(rule.kind) << " rule on " << name(rule.device) << " untested";
    EXPECT_GT(engine.covered_sets().covered_size(rule.id), bdd::Uint128{0});
  }
  // 2 tunnels x (encap + decap) + 1 NAT rule on the single WAN.
  EXPECT_EQ(transform_rules, 5u);
}

TEST_F(ScenarioTest, EncapEcmpGroupRehashesUnderLinkFailure) {
  const topo::TunnelPlan& plan = state_.tunnels[0];
  const net::Rule* encap = encap_rule(plan);
  ASSERT_NE(encap, nullptr);
  ASSERT_EQ(region_.network.out_interfaces(encap->id).size(), 2u);  // both agg uplinks

  // Fail one ingress uplink: the group rehashes to the survivor.
  scenario::Scenario s;
  s.name = "uplink";
  s.down_links.emplace_back(name(plan.ingress), name(region_.aggs[0]));
  const scenario::ResolvedScenario r = scenario::resolve(s, region_.network);
  region_.routing.failed_links.insert(r.links.begin(), r.links.end());
  rebuild();
  encap = encap_rule(plan);
  ASSERT_NE(encap, nullptr);
  ASSERT_EQ(region_.network.out_interfaces(encap->id).size(), 1u);
  EXPECT_EQ(region_.network.neighbor(region_.network.out_interfaces(encap->id)[0]),
            region_.aggs[1]);

  // Fail the second uplink too: the encap blackholes rather than vanishing.
  s.down_links.emplace_back(name(plan.ingress), name(region_.aggs[1]));
  const scenario::ResolvedScenario r2 = scenario::resolve(s, region_.network);
  region_.routing.failed_links.insert(r2.links.begin(), r2.links.end());
  rebuild();
  encap = encap_rule(plan);
  ASSERT_NE(encap, nullptr);
  EXPECT_EQ(encap->action_type(), net::ActionType::Drop);
}

/// One rule as the data plane sees it: device, table, priority, match,
/// action and kind. The id is left out: it is only a position.
auto rule_fields(const net::Network& n, net::RuleId rid) {
  const net::Rule& r = n.rule(rid);
  const net::MatchSpec m = n.match_spec(rid);
  const net::Action a = n.action(rid);
  return std::tuple(r.device, r.table, r.priority, m.dst_prefix, m.src_prefix, m.proto,
                    m.src_port, m.dst_port, m.in_interfaces, a.type, a.out_interfaces,
                    a.rewrites, r.kind);
}

/// Every device's ACL and FIB rules, in table order.
auto rules_in_table_order(const net::Network& n) {
  std::vector<decltype(rule_fields(n, net::RuleId{}))> out;
  for (const net::Device& dev : n.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : n.table(dev.id, table)) {
        out.push_back(rule_fields(n, rid));
      }
    }
  }
  return out;
}

/// Spec used by the runner tests: a spine failure (sheds that device's
/// rules), a double link failure isolating tunnel 0's ingress uplinks (the
/// tunnel check goes dark), and the egress ToR failing outright (its decap
/// rule — covered at baseline — is lost, so ATUs become unreachable).
std::string runner_spec_text(const topo::RegionalNetwork& region) {
  const auto& n = region.network;
  std::string text;
  text += "scenario spine-loss\ndevice " + n.device(region.spines[0]).name + "\n\n";
  text += "scenario tor-uplink\n";
  text += "link " + n.device(region.tors[0]).name + " " +
          n.device(region.aggs[0]).name + "\n";
  text += "link " + n.device(region.tors[0]).name + " " +
          n.device(region.aggs[1]).name + "\n\n";
  text += "scenario egress-down\ndevice " + n.device(region.tors[1]).name + "\n";
  return text;
}

TEST_F(ScenarioTest, RunnerDiffsBaselineAgainstScenarios) {
  const ScenarioSpec spec = ScenarioSpec::parse(runner_spec_text(region_));
  const nettest::TestSuite suite = transform_suite();
  scenario::ScenarioRunner runner(region_.network, region_.routing, suite);
  runner.set_post_fib_hook([this](net::Network& network,
                                  const routing::RoutingConfig& routing) {
    topo::install_transform_rules(network, state_, routing);
  });
  const auto rules_before = rules_in_table_order(region_.network);
  const scenario::ScenarioReport report = runner.run(spec);
  // The runner restored the baseline forwarding state, rule for rule (the
  // re-run below cannot tell: every evaluation routes from scratch).
  ASSERT_FALSE(rules_before.empty());
  EXPECT_TRUE(rules_in_table_order(region_.network) == rules_before);

  EXPECT_TRUE(report.baseline_failing_tests.empty());
  EXPECT_GT(report.baseline_rule_count, 0u);
  ASSERT_EQ(report.scenarios.size(), 3u);

  const scenario::ScenarioDiff& spine = report.scenarios[0];
  EXPECT_EQ(spine.name, "spine-loss");
  EXPECT_GT(spine.rules_lost, 0u);  // the failed spine's FIB empties

  const scenario::ScenarioDiff& uplink = report.scenarios[1];
  EXPECT_EQ(uplink.name, "tor-uplink");
  // With both ingress uplinks down the tunnel blackholes: the round-trip
  // check passed at baseline and fails now — a dark test.
  ASSERT_EQ(uplink.dark_tests.size(), 1u);
  EXPECT_EQ(uplink.dark_tests[0], "tunnel-round-trip");

  const scenario::ScenarioDiff& egress = report.scenarios[2];
  EXPECT_EQ(egress.name, "egress-down");
  EXPECT_GT(egress.rules_lost, 0u);
  // The lost decap rule carried baseline test evidence.
  EXPECT_GT(egress.unreachable_atus, bdd::Uint128{0});
  EXPECT_FALSE(egress.top_deltas.empty());

  // The runner restored the baseline: a second run reproduces the report
  // byte for byte (text and JSON).
  scenario::ScenarioRunner again(region_.network, region_.routing, suite);
  again.set_post_fib_hook([this](net::Network& network,
                                 const routing::RoutingConfig& routing) {
    topo::install_transform_rules(network, state_, routing);
  });
  const scenario::ScenarioReport second = again.run(spec);
  EXPECT_EQ(second.to_text(), report.to_text());
  EXPECT_EQ(scenario::report_to_json(second), scenario::report_to_json(report));
}

TEST_F(ScenarioTest, RunnerReportIsBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = ScenarioSpec::parse(runner_spec_text(region_));
  const nettest::TestSuite suite = transform_suite();

  std::string baseline_text;
  std::string baseline_json;
  for (const unsigned threads : {1u, 4u, 8u}) {
    scenario::ScenarioRunnerOptions options;
    options.engine.threads = threads;
    scenario::ScenarioRunner runner(region_.network, region_.routing, suite, options);
    runner.set_post_fib_hook([this](net::Network& network,
                                    const routing::RoutingConfig& routing) {
      topo::install_transform_rules(network, state_, routing);
    });
    const scenario::ScenarioReport report = runner.run(spec);
    const std::string text = report.to_text();
    const std::string json = scenario::report_to_json(report);
    if (threads == 1) {
      baseline_text = text;
      baseline_json = json;
      EXPECT_NE(text.find("scenario"), std::string::npos);
      EXPECT_NE(json.find("\"unreachable_atus\""), std::string::npos);
    } else {
      EXPECT_EQ(text, baseline_text) << "threads=" << threads;
      EXPECT_EQ(json, baseline_json) << "threads=" << threads;
    }
  }
}

TEST_F(ScenarioTest, RunnerCapBoundsEachEvaluationNotTheirSum) {
  // Every evaluation builds its engine in a fresh manager, so a node cap
  // must bound each one alone: a dead evaluation's nodes hold no charge.
  const nettest::TestSuite suite = transform_suite();
  const auto run = [&](const ys::EngineOptions& engine, const ScenarioSpec& spec) {
    scenario::ScenarioRunner runner(region_.network, region_.routing, suite, {engine});
    runner.set_post_fib_hook([this](net::Network& network,
                                    const routing::RoutingConfig& routing) {
      topo::install_transform_rules(network, state_, routing);
    });
    return runner.run(spec);
  };
  // One evaluation's arena: an uncapped budget's peak over the baseline.
  ys::ResourceBudget probe;
  (void)run({&probe}, ScenarioSpec{});
  ASSERT_GT(probe.peak_bdd_nodes(), 0u);

  const ScenarioSpec spec = ScenarioSpec::parse(runner_spec_text(region_));
  ys::ResourceBudget cap;
  cap.with_max_bdd_nodes(2 * probe.peak_bdd_nodes());
  const scenario::ScenarioReport capped = run({&cap}, spec);
  const scenario::ScenarioReport uncapped = run({}, spec);
  EXPECT_FALSE(capped.truncated);
  ASSERT_EQ(capped.scenarios.size(), 3u);
  for (const scenario::ScenarioDiff& diff : capped.scenarios) {
    EXPECT_FALSE(diff.truncated) << diff.name;
  }
  EXPECT_EQ(scenario::report_to_json(capped), scenario::report_to_json(uncapped));
  EXPECT_EQ(cap.used_bdd_nodes(), 0u);
}

TEST_F(ScenarioTest, RunnerRejectsUnknownNamesBeforeTouchingState) {
  const size_t rules_before = region_.network.rule_count();
  const ScenarioSpec spec = ScenarioSpec::parse("scenario bad\ndevice absent-router\n");
  const nettest::TestSuite suite = transform_suite();
  scenario::ScenarioRunner runner(region_.network, region_.routing, suite);
  EXPECT_THROW((void)runner.run(spec), ys::InvalidInputError);
  EXPECT_EQ(region_.network.rule_count(), rules_before);
}

TEST_F(ScenarioTest, RunnerRestoresTheBaselineWhenAnEvaluationThrows) {
  const ScenarioSpec spec = ScenarioSpec::parse(runner_spec_text(region_));
  const nettest::TestSuite suite = transform_suite();
  const scenario::ScenarioRunner::PostFibHook install = [this](
      net::Network& network, const routing::RoutingConfig& routing) {
    topo::install_transform_rules(network, state_, routing);
  };
  // The baseline the string-keyed reference leaves behind: recomputed from
  // scratch, ids and tables included.
  net::Network recomputed = region_.network;
  (void)scenario::reference::run(recomputed, region_.routing, suite, {}, install, spec);
  const auto baseline = routing::reference::rule_store_rows(recomputed);
  ASSERT_FALSE(baseline.first.empty());

  scenario::ScenarioRunner runner(region_.network, region_.routing, suite);
  // A throw in the second scenario, after the baseline's rule store was
  // saved: the runner reinstates it without running the hook again.
  int calls = 0;
  runner.set_post_fib_hook([&](net::Network& network, const routing::RoutingConfig& routing) {
    if (++calls == 3) throw std::runtime_error("hook failed");
    install(network, routing);
  });
  EXPECT_THROW((void)runner.run(spec), std::runtime_error);
  EXPECT_EQ(calls, 3);
  EXPECT_TRUE(routing::reference::rule_store_rows(region_.network) == baseline);

  // A throw in the baseline's own hook, before anything was saved: the
  // runner recomputes the baseline, hook included.
  calls = 0;
  runner.set_post_fib_hook([&](net::Network& network, const routing::RoutingConfig& routing) {
    if (++calls == 1) throw std::runtime_error("hook failed");
    install(network, routing);
  });
  EXPECT_THROW((void)runner.run(spec), std::runtime_error);
  EXPECT_EQ(calls, 2);  // the restore ran the hook again
  EXPECT_TRUE(routing::reference::rule_store_rows(region_.network) == baseline);

  // And after a run that completes.
  runner.set_post_fib_hook(install);
  (void)runner.run(spec);
  EXPECT_TRUE(routing::reference::rule_store_rows(region_.network) == baseline);
}

/// The runner's report against the string-keyed reference's (text and JSON).
void expect_matches_reference(net::Network& network, const routing::RoutingConfig& routing,
                              const nettest::TestSuite& suite,
                              const scenario::ScenarioRunner::PostFibHook& hook,
                              const ScenarioSpec& spec, const std::string& what) {
  scenario::ScenarioRunner runner(network, routing, suite);
  runner.set_post_fib_hook(hook);
  const scenario::ScenarioReport got = runner.run(spec);
  const scenario::ScenarioReport want =
      scenario::reference::run(network, routing, suite, {}, hook, spec);
  EXPECT_EQ(scenario::report_to_json(got), scenario::report_to_json(want)) << what;
  EXPECT_EQ(got.to_text(), want.to_text()) << what;
}

/// Random link sweeps at seeds 0-9, one and three links per scenario.
void expect_sweeps_match_reference(net::Network& network,
                                   const routing::RoutingConfig& routing,
                                   const nettest::TestSuite& suite,
                                   const scenario::ScenarioRunner::PostFibHook& hook) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    for (const int links : {1, 3}) {
      expect_matches_reference(network, routing, suite, hook,
                               scenario::random_link_scenarios(network, 4, seed, links),
                               "seed " + std::to_string(seed) + ", " +
                                   std::to_string(links) + " link(s) per scenario");
    }
  }
}

TEST(ScenarioReferenceTest, FatTreeReportsMatchTheStringKeyedDiff) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  nettest::TestSuite suite("fattree");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>());
  suite.add(std::make_unique<nettest::ToRContract>());
  suite.add(std::make_unique<nettest::ToRReachability>());
  suite.add(std::make_unique<nettest::ToRPingmesh>());
  expect_sweeps_match_reference(tree.network, tree.routing, suite, {});

  const net::Network& n = tree.network;
  const ScenarioSpec devices = ScenarioSpec::parse(
      "scenario tor-down\ndevice " + n.device(tree.tors[0]).name +
      "\n\nscenario agg-and-core\ndevice " + n.device(tree.aggs[1]).name + "\ndevice " +
      n.device(tree.cores[0]).name + "\n");
  expect_matches_reference(tree.network, tree.routing, suite, {}, devices, "device failures");
}

/// The CLI's `regional --acl --transforms N --suite final` suite.
nettest::TestSuite regional_final_suite(const routing::RoutingConfig& routing) {
  const std::unordered_set<net::DeviceId> excluded(routing.no_default_devices.begin(),
                                                   routing.no_default_devices.end());
  nettest::TestSuite suite("final");
  suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
  suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  suite.add(std::make_unique<nettest::InternalRouteCheck>());
  suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  suite.add(std::make_unique<nettest::AclBlockCheck>());
  suite.add(std::make_unique<nettest::BlockedPortCheck>());
  suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
  suite.add(std::make_unique<nettest::NatTranslationCheck>());
  return suite;
}

TEST_F(ScenarioTest, RegionalReportsMatchTheStringKeyedDiff) {
  // The CLI's post-FIB state: ingress ACLs on the live ToRs, then the
  // transform overlay.
  const auto acl_and_transforms = [this](net::Network& network,
                                         const routing::RoutingConfig& routing) {
    std::vector<net::DeviceId> alive;
    for (const net::DeviceId tor : region_.tors) {
      if (!routing.failed_devices.contains(tor)) alive.push_back(tor);
    }
    topo::install_ingress_acls(network, alive);
    topo::install_transform_rules(network, state_, routing);
  };
  const nettest::TestSuite suite = regional_final_suite(region_.routing);
  expect_sweeps_match_reference(region_.network, region_.routing, suite, acl_and_transforms);
  const ScenarioSpec spec = ScenarioSpec::parse(runner_spec_text(region_));
  expect_matches_reference(region_.network, region_.routing, suite, acl_and_transforms, spec,
                           "device failures");

  // Twins and gained rules, which no generated network has: the baseline
  // carries two byte-identical copies of tor0's first ACL entry (lost as
  // `#2` and `#3` under every scenario), and spine-loss adds a new FIB rule
  // and a twin of one (gained).
  const net::DeviceId spine = region_.spines[0];
  const auto with_twins = [&](net::Network& network, const routing::RoutingConfig& routing) {
    acl_and_transforms(network, routing);
    const bool baseline = routing.failed_devices.empty() && routing.failed_links.empty();
    if (baseline) {
      const net::Rule acl = network.rule(network.table(region_.tors[0], net::TableKind::Acl)[0]);
      for (int copy = 0; copy < 2; ++copy) {
        (void)network.add_rule(acl.device, network.match_spec(acl.id), network.action(acl.id),
                               acl.kind, acl.priority, acl.table);
      }
    }
    if (routing.failed_devices.contains(spine)) {
      const net::DeviceId tor = region_.tors[1];
      const net::Rule fib = network.rule(network.table(tor)[0]);
      (void)network.add_rule(fib.device, network.match_spec(fib.id), network.action(fib.id),
                             fib.kind, fib.priority);
      (void)network.add_rule(
          tor, net::MatchSpec::for_dst(packet::Ipv4Prefix::parse("192.0.2.0/24")),
          net::Action::drop(), net::RouteKind::DropRule, 8);
    }
  };
  const ScenarioSpec links = scenario::random_link_scenarios(region_.network, 4, 0);
  expect_matches_reference(region_.network, region_.routing, suite, with_twins, spec, "twins");
  expect_matches_reference(region_.network, region_.routing, suite, with_twins, links, "twins");
  scenario::ScenarioRunner runner(region_.network, region_.routing, suite);
  runner.set_post_fib_hook(with_twins);
  const scenario::ScenarioReport report = runner.run(spec);
  ASSERT_EQ(report.scenarios.size(), 3u);
  EXPECT_EQ(report.scenarios[0].rules_gained, 2u);
  // A link failure loses few rules, so the twins' zero ATUs still rank.
  const std::string text = runner.run(links).to_text();
  EXPECT_NE(text.find("#2"), std::string::npos) << text;
  EXPECT_NE(text.find("#3"), std::string::npos) << text;
}

}  // namespace
}  // namespace yardstick
