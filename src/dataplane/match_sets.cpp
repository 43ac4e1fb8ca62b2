#include "dataplane/match_sets.hpp"

#include "dataplane/sharded_build.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yardstick::dataplane {

using packet::Field;
using packet::PacketSet;

PacketSet MatchSetIndex::build_match_field(bdd::BddManager& mgr,
                                           const net::MatchSpec& spec) {
  PacketSet acc = PacketSet::all(mgr);
  if (spec.dst_prefix) acc = acc.intersect(PacketSet::dst_prefix(mgr, *spec.dst_prefix));
  if (spec.src_prefix) acc = acc.intersect(PacketSet::src_prefix(mgr, *spec.src_prefix));
  if (spec.proto) {
    acc = acc.intersect(PacketSet::field_equals(mgr, Field::Proto, *spec.proto));
  }
  if (spec.src_port) {
    acc = acc.intersect(
        PacketSet::field_range(mgr, Field::SrcPort, spec.src_port->lo, spec.src_port->hi));
  }
  if (spec.dst_port) {
    acc = acc.intersect(
        PacketSet::field_range(mgr, Field::DstPort, spec.dst_port->lo, spec.dst_port->hi));
  }
  return acc;
}

namespace {

/// Step 1 as the shard-and-merge driver sees it (sharded_build.hpp).
struct MatchBuild {
  using Slots = MatchSlots;
  static constexpr const char* kBuildSpan = "match_sets.build";
  static constexpr const char* kMergeSpan = "match_sets.merge";
  static constexpr const char* kActivity = "match-set computation";

  const net::Network& network;

  /// One device's table walk, building in `mgr`. Step 1 reads nothing from
  /// the primary manager.
  void build(bdd::BddManager& mgr, const net::Device& dev, MatchSlots& out,
             const PrimaryInput& /*input*/) const {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      // Walk the ordered table, giving each rule the part of its match
      // field not already claimed by an earlier rule.
      PacketSet claimed = PacketSet::none(mgr);
      PacketSet permitted = PacketSet::none(mgr);
      for (const net::RuleId rid : network.table(dev.id, table)) {
        const net::Rule& r = network.rule(rid);
        const PacketSet field = MatchSetIndex::build_match_field(mgr, r.match);
        PacketSet disjoint = field.minus(claimed);
        claimed = claimed.union_with(field);
        if (r.action.type == net::ActionType::Permit) {
          permitted = permitted.union_with(disjoint);
        }
        out.match_sets[rid.value] = std::move(disjoint);
      }
      if (table == net::TableKind::Acl) {
        // No ACL stage means everything is permitted (implicit deny only
        // applies when an ACL exists).
        out.acl_permitted[dev.id.value] =
            network.has_acl(dev.id) ? permitted : PacketSet::all(mgr);
      }
    }
  }
};

}  // namespace

MatchSetIndex::MatchSetIndex(bdd::BddManager& mgr, const net::Network& network,
                             unsigned threads, const MatchPrefill* prefill, double gc_threshold)
    : mgr_(mgr), network_(network) {
  ShardedBuildResult built =
      sharded_build(MatchBuild{network}, mgr, network, sets_, prefill, threads, gc_threshold);
  truncated_ = built.truncated;
  unreached_ = std::move(built.unreached);
  {
    obs::Span span("match_sets.prefix_index", "offline");
    prefixes_ = std::make_shared<const PrefixIndex>(network);
    span.arg("rules", prefixes_->entries());
    span.arg("bytes", prefixes_->bytes());
  }
  if (obs::enabled()) {
    static obs::Counter& built_devices = obs::metrics().counter(
        "ys.match_sets.devices_built", "devices whose tables were walked (step 1)");
    static obs::Counter& built_rules = obs::metrics().counter(
        "ys.match_sets.rules_built", "rules given disjoint match sets (step 1)");
    built_devices.add(built.built_devices);
    built_rules.add(network.rule_count());
  }
}

MatchSetIndex::MatchSetIndex(bdd::BddManager& dst, const MatchSetIndex& other)
    : mgr_(dst),
      network_(other.network_),
      prefixes_(other.prefixes_),
      unreached_(other.unreached_),
      truncated_(other.truncated_) {
  obs::Span span("match_sets.clone", "offline");
  clone_slots(dst, other.mgr_, other.sets_, sets_);
}

}  // namespace yardstick::dataplane
