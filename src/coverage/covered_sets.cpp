#include "coverage/covered_sets.hpp"

#include <optional>

#include "dataplane/sharded_build.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yardstick::coverage {

using packet::PacketSet;

namespace {

/// Algorithm 1 as the shard-and-merge driver sees it (sharded_build.hpp).
struct CoverBuild {
  using Slots = CoverSlots;
  static constexpr const char* kBuildSpan = "covered_sets.build";
  static constexpr const char* kMergeSpan = "covered_sets.merge";
  static constexpr const char* kActivity = "covered-set computation";

  /// Algorithm 1 reuses nothing across devices.
  struct Memo {
    explicit Memo(bdd::BddManager& /*mgr*/) {}
  };

  const dataplane::MatchSetIndex& index;
  const CoverageTrace& trace;

  /// Algorithm 1 for one device, intersecting in `mgr`; `input` brings the
  /// trace slices, match sets and ACL spaces over from the index's manager.
  /// A state-inspected rule gets M[r] itself, the index's handle, with no
  /// round trip through a shard: the merge keeps it.
  void build(bdd::BddManager& mgr, const net::Device& dev, CoverSlots& out,
             const dataplane::PrimaryInput& input, Memo& /*memo*/) const {
    const net::Network& network = index.network();
    // One device-level P_T slice shared by all rules of the device, and its
    // clip to the ACL-permitted space shared by all FIB rules, each computed
    // lazily (devices with no unmarked rules skip the unions).
    std::optional<PacketSet> at_device;
    const auto device_headers = [&]() -> const PacketSet& {
      if (!at_device) {
        PacketSet acc = PacketSet::none(mgr);
        const PacketSet local = trace.marked_packets().at(net::device_location(dev.id));
        if (local.valid()) acc = acc.union_with(input(local));
        for (const net::InterfaceId intf : network.device(dev.id).interfaces) {
          const PacketSet at = trace.marked_packets().at(net::to_location(intf));
          if (at.valid()) acc = acc.union_with(input(at));
        }
        at_device = acc;
      }
      return *at_device;
    };
    // Packets the ingress ACL denies never reach the forwarding table, so
    // they cannot exercise FIB rules behaviorally.
    std::optional<PacketSet> past_acl;
    const auto fib_headers = [&]() -> const PacketSet& {
      if (!past_acl) {
        past_acl = network.has_acl(dev.id)
                       ? device_headers().intersect(input(index.acl_permitted_space(dev.id)))
                       : device_headers();
      }
      return *past_acl;
    };
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(dev.id, table)) {
        if (trace.rule_marked(rid)) {
          out.covered[rid.value] = index.match_set(rid);
          continue;
        }
        const PacketSet& headers =
            table == net::TableKind::Fib ? fib_headers() : device_headers();
        out.covered[rid.value] = headers.intersect(input(index.match_set(rid)));
      }
    }
  }

  void annotate(obs::Span& /*span*/) const {}
};

}  // namespace

CoveredSets::CoveredSets(const dataplane::MatchSetIndex& index, const CoverageTrace& trace,
                         unsigned threads, const CoverPrefill* prefill)
    : index_(index), trace_(trace), truncated_(index.truncated()) {
  if (dataplane::sharded_build(CoverBuild{index, trace}, index.manager(), index.network(),
                               sets_, prefill, threads)
          .truncated) {
    truncated_ = true;
  }
  if (obs::enabled()) {
    static obs::Counter& covered_rules = obs::metrics().counter(
        "ys.covered_sets.rules_computed", "rules given covered sets T[r] (Algorithm 1)");
    covered_rules.add(index.network().rule_count());
  }
}

CoveredSets::CoveredSets(const dataplane::MatchSetIndex& index, const CoveredSets& other)
    : index_(index), trace_(other.trace_), truncated_(other.truncated_) {
  obs::Span span("covered_sets.clone", "offline");
  dataplane::clone_slots(index.manager(), other.manager(), other.sets_, sets_);
}

PacketSet CoveredSets::covered_on_interface(net::RuleId rule, net::InterfaceId intf) const {
  if (trace_.rule_marked(rule)) return index_.match_set(rule);
  PacketSet at = trace_.headers_at_interface(manager(), intf);
  const net::Rule& r = network().rule(rule);
  if (r.table == net::TableKind::Fib && network().has_acl(r.device)) {
    at = at.intersect(index_.acl_permitted_space(r.device));
  }
  return at.intersect(index_.match_set(rule));
}

}  // namespace yardstick::coverage
