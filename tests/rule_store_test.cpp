// The compact rule store (DESIGN.md §21): fixed rule records, interned
// next-hop groups and a side table of rare match fields. Every FIB-built
// rule is checked through its accessors against the reference install
// (tests/fib_reference.hpp); interning order never reaches content. The
// install's allocation count is pinned in obs_test.cpp, beside the
// allocation counter.
#include <filesystem>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "dataplane/match_sets.hpp"
#include "dataplane/transfer.hpp"
#include "fib_reference.hpp"
#include "netio/network_format.hpp"
#include "nettest/reachability.hpp"
#include "packet/fields.hpp"
#include "routing/fib_builder.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "yardstick/delta.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::net {
namespace {

using routing::reference::expect_fib_matches;
using routing::reference::rule_store_rows;

static_assert(sizeof(Rule) <= 40);

/// Runs the fixpoint on `network` under `config`, builds its FIBs and checks
/// every rule against the reference install.
void build_and_check(Network& network, const routing::RoutingConfig& config,
                     const std::string& label) {
  const std::vector<routing::SimRib> ribs =
      routing::FibBuilder::compute_and_build(network, config);
  const size_t built =
      expect_fib_matches(network, routing::reference::build(network, ribs, config), label);
  EXPECT_EQ(built, network.rule_count()) << label;
}

TEST(RuleStoreTest, FatTreeRulesMatchTheReferenceInstall) {
  for (const int k : {4, 8}) {
    for (const bool loopbacks : {false, true}) {
      topo::FatTree tree = topo::make_fat_tree({.k = k, .with_loopbacks = loopbacks});
      const std::string label =
          "k=" + std::to_string(k) + (loopbacks ? " with loopbacks" : "");
      build_and_check(tree.network, tree.routing, label);
      // Far fewer groups than rules, and a few dozen bytes per rule.
      EXPECT_LT(tree.network.group_count() * 2, tree.network.rule_count()) << label;
      EXPECT_LE(tree.network.rule_bytes(), 64 * tree.network.rule_count()) << label;
    }
  }
}

TEST(RuleStoreTest, EverySingleLinkFailureOfK4MatchesTheReferenceInstall) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  for (const Link& link : tree.network.links()) {
    routing::RoutingConfig config = tree.routing;
    config.failed_links.insert(link.id);
    build_and_check(tree.network, config, "link " + std::to_string(link.id.value) + " down");
  }
}

TEST(RuleStoreTest, RegionalAclAndTransformRulesRoundTripThroughTheirAccessors) {
  topo::RegionalNetwork region = topo::make_regional({});
  const topo::TransformState transforms =
      topo::plan_transforms(region, {.tunnels = 2, .nat_rules_per_wan = 2});
  Network& network = region.network;
  const std::vector<routing::SimRib> ribs =
      routing::FibBuilder::compute_and_build(network, region.routing);
  topo::install_ingress_acls(network, region.tors);
  topo::install_transform_rules(network, transforms, region.routing);
  const size_t built = expect_fib_matches(
      network, routing::reference::build(network, ribs, region.routing), "regional");
  ASSERT_LT(built, network.rule_count());

  // The ACL and transform rules carry what a FIB rule never does: rare
  // match fields and rewrites.
  size_t rare = 0, rewriting = 0;
  for (const Rule& r : network.rules()) {
    rare += r.has_rare_fields();
    rewriting += !network.rewrites(r.id).empty();
  }
  EXPECT_GT(rare, 0u);
  EXPECT_GT(rewriting, 0u);

  // Re-adding every rule from its accessors, in id order, rebuilds the same
  // store: ids, every field and every table.
  const auto before = rule_store_rows(network);
  Network copy = network;
  copy.clear_rules();
  for (const Rule& r : network.rules()) {
    (void)copy.add_rule(r.device, network.match_spec(r.id), network.action(r.id), r.kind,
                        r.priority, r.table);
  }
  EXPECT_TRUE(rule_store_rows(copy) == before);
}

TEST(RuleStoreTest, ExampleNetworksRoundTripThroughTheNetworkFormat) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(YS_SOURCE_DIR) + "/examples/networks")) {
    if (entry.path().extension() != ".net") continue;
    ++files;
    const std::string label = entry.path().filename().string();
    netio::LoadedNetwork loaded = netio::load_network_file(entry.path().string());
    std::vector<routing::SimRib> ribs;
    if (!loaded.has_forwarding_state) {
      ribs = routing::FibBuilder::compute_and_build(loaded.network, loaded.routing);
    }
    const std::string text = netio::format_network(loaded.network, loaded.routing);
    netio::LoadedNetwork reloaded = netio::parse_network(text);
    ASSERT_TRUE(reloaded.has_forwarding_state) << label;
    EXPECT_TRUE(rule_store_rows(reloaded.network) == rule_store_rows(loaded.network)) << label;
    EXPECT_EQ(netio::format_network(reloaded.network, reloaded.routing), text) << label;
    if (!ribs.empty()) {
      expect_fib_matches(reloaded.network,
                         routing::reference::build(loaded.network, ribs, loaded.routing),
                         label + " reloaded");
    }
  }
  EXPECT_GT(files, 0u);
}

TEST(RuleStoreTest, SetActionReinternsAndLeavesEveryOtherRule) {
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  Network& network = tree.network;
  const std::vector<routing::SimRib> ribs =
      routing::FibBuilder::compute_and_build(network, tree.routing);
  std::vector<std::vector<routing::reference::FibRule>> want =
      routing::reference::build(network, ribs, tree.routing);
  const size_t groups = network.group_count();

  // Edit a rule on every fourth device in four ways, keeping the reference
  // in step: locate a device's rules by their install position.
  const auto edit = [&](DeviceId dev, size_t position, const Action& action) {
    const RuleId rid = network.table(dev)[position];
    network.set_action(rid, action);
    want[dev.value][position].action = action;
  };
  for (const Device& dev : network.devices()) {
    if (dev.id.value % 4 != 0 || network.table(dev.id).size() < 4) continue;
    const auto table = network.table(dev.id);
    edit(dev.id, 0, Action::drop());
    Action reversed = network.action(table[1]);
    std::reverse(reversed.out_interfaces.begin(), reversed.out_interfaces.end());
    edit(dev.id, 1, reversed);
    Action rewriting = network.action(table[2]);
    rewriting.rewrites.push_back({packet::Field::DstIp, 0x0a0000ffu});
    edit(dev.id, 2, rewriting);
    // The last rule's action copied onto the third-to-last: an existing group.
    edit(dev.id, table.size() - 3, network.action(table.back()));
  }
  const size_t built = expect_fib_matches(network, want, "after set_action");
  EXPECT_EQ(built, network.rule_count());
  EXPECT_GT(network.group_count(), groups);  // reversals and rewrites are new groups

  // A rewrite is read back, and a forward cannot become a permit.
  const RuleId rewritten = network.table(DeviceId{0})[2];
  ASSERT_EQ(network.rewrites(rewritten).size(), 1u);
  EXPECT_EQ(network.rewrites(rewritten)[0].value, 0x0a0000ffu);
  EXPECT_THROW(network.set_action(rewritten, Action::permit()), ys::InvalidInputError);
}

TEST(RuleStoreTest, InterningOrderNeverReachesContent) {
  // Two networks with the same rules, whose group pools were filled in
  // opposite orders: `a` by the FIB build, `b` by adding every rule as a
  // drop and then giving the rules their actions from the last to the first.
  topo::FatTree tree = topo::make_fat_tree({.k = 4});
  routing::FibBuilder::compute_and_build(tree.network, tree.routing);
  topo::install_ingress_acls(tree.network, tree.tors);
  const Network& a = tree.network;
  Network b = a;
  b.clear_rules();
  for (const Rule& r : a.rules()) {
    const Action action = a.action(r.id);
    (void)b.add_rule(r.device, a.match_spec(r.id),
                     action.type == ActionType::Permit ? Action::permit() : Action::drop(),
                     r.kind, r.priority, r.table);
  }
  for (uint32_t i = static_cast<uint32_t>(a.rule_count()); i-- > 0;) {
    b.set_action(RuleId{i}, a.action(RuleId{i}));
  }

  // The premise: the pools hold the same groups in another order.
  const GroupPool& pa = a.rule_store().groups;
  const GroupPool& pb = b.rule_store().groups;
  ASSERT_EQ(pa.size(), pb.size());
  bool reordered = false;
  for (uint32_t g = 0; g < pa.size(); ++g) {
    reordered = reordered || !std::ranges::equal(pa.out_interfaces(g), pb.out_interfaces(g));
  }
  ASSERT_TRUE(reordered);

  EXPECT_TRUE(rule_store_rows(a) == rule_store_rows(b));
  for (const Rule& r : a.rules()) {
    EXPECT_EQ(a.rule_content(r.id), b.rule_content(r.id));
    EXPECT_EQ(rule_content_key(a, a.rule_content(r.id)),
              rule_content_key(b, b.rule_content(r.id)));
    EXPECT_EQ(a.rule_to_string(r.id), b.rule_to_string(r.id));
  }
  for (const Device& dev : a.devices()) {
    EXPECT_EQ(ys::hash_device_tables(a, dev.id), ys::hash_device_tables(b, dev.id));
  }
  EXPECT_EQ(netio::format_network(a, tree.routing), netio::format_network(b, tree.routing));

  // The cache keys, trace included.
  bdd::BddManager mgr(packet::kNumHeaderBits);
  const dataplane::MatchSetIndex index(mgr, a);
  const dataplane::Transfer transfer(index);
  ys::CoverageTracker tracker;
  ASSERT_TRUE(nettest::ToRPingmesh().run(transfer, tracker).passed());
  std::vector<ys::DeviceKeys> keys_a = ys::compute_table_keys(a);
  std::vector<ys::DeviceKeys> keys_b = ys::compute_table_keys(b);
  ys::add_trace_keys(a, tracker.trace(), keys_a);
  ys::add_trace_keys(b, tracker.trace(), keys_b);
  EXPECT_EQ(keys_a, keys_b);
}

}  // namespace
}  // namespace yardstick::net
