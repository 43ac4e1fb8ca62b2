#include "coverage/covered_sets.hpp"

#include <optional>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yardstick::coverage {

using packet::PacketSet;

namespace {

constexpr const char* kActivity = "covered-set computation";

/// How Algorithm 1 decided the rules it walked (`covered_sets.build`'s args).
struct Decisions {
  uint64_t all = 0;          ///< the headers hold r's dst prefix: T[r] = M[r]
  uint64_t none = 0;         ///< the headers miss it: T[r] = ∅
  uint64_t intersected = 0;  ///< neither: one intersection below the prefix, or of
                             ///< the whole sets for a rule without one
  uint64_t marked = 0;       ///< state-inspected: T[r] = M[r]
};

/// p's bit for BDD variable v < p.length(); variable 0 is the address's
/// most significant bit (packet/fields.hpp).
bool prefix_bit(const packet::Ipv4Prefix& p, bdd::Var v) {
  return ((p.address() >> (31 - v)) & 1U) != 0;
}

/// f's cofactor at the cube of dst prefix p: walks f along p's bits,
/// stepping only at a node whose variable is the current bit. A level f
/// skips is a bit f does not test, and a node past p's last bit is the
/// cofactor.
bdd::NodeIndex cofactor(const bdd::BddManager& mgr, bdd::NodeIndex f,
                        const packet::Ipv4Prefix& p) {
  while (f > bdd::kTrue) {
    const bdd::BddNode& n = mgr.node(f);
    if (n.var >= p.length()) break;
    f = prefix_bit(p, n.var) ? n.high : n.low;
  }
  return f;
}

/// headers ∩ M[r] for a rule with dst prefix p (DESIGN.md §22). M[r] lies
/// inside p's cube, so the intersection is p ∧ (headers|p ∧ M[r]|p), and
/// the headers' cofactor decides it: all of it keeps M[r], the index's own
/// handle, with no BDD operation; none of it gives ∅; otherwise the two
/// cofactors are intersected and p's path is rebuilt on top, bottom up.
/// apply() would allocate the same nodes in the same order.
PacketSet clip(bdd::BddManager& mgr, const PacketSet& headers, const PacketSet& match,
               const packet::Ipv4Prefix& p, Decisions& decided) {
  const bdd::NodeIndex at_p = cofactor(mgr, headers.raw().index(), p);
  if (at_p == bdd::kTrue) {
    ++decided.all;
    return match;
  }
  if (at_p == bdd::kFalse) {
    ++decided.none;
    return PacketSet::none(mgr);
  }
  ++decided.intersected;
  bdd::NodeIndex t = mgr.apply(bdd::BddManager::Op::And, at_p,
                               cofactor(mgr, match.raw().index(), p));
  for (bdd::Var v = p.length(); v-- > 0;) {
    t = prefix_bit(p, v) ? mgr.make(v, bdd::kFalse, t) : mgr.make(v, t, bdd::kFalse);
  }
  return PacketSet(bdd::Bdd(&mgr, t));
}

/// Calls fn(rid) for every rule of `dev`: its ACL table, then its FIB, each
/// in table order.
template <typename Fn>
void for_each_rule(const net::Network& network, const net::Device& dev, Fn&& fn) {
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    for (const net::RuleId rid : network.table(dev.id, table)) fn(rid);
  }
}

/// Algorithm 1 for one device, writing each rule's T[r] into `covered`;
/// `marked` holds the trace's state-inspected rules, one byte per rule.
void cover_device(const dataplane::MatchSetIndex& index, const CoverageTrace& trace,
                  const std::vector<char>& marked, const net::Device& dev,
                  std::vector<PacketSet>& covered, Decisions& decided) {
  bdd::BddManager& mgr = index.manager();
  const net::Network& network = index.network();
  // One device-level P_T slice shared by all rules of the device, and its
  // clip to the ACL-permitted space shared by all FIB rules, each computed
  // lazily (devices with no unmarked rules skip the unions).
  std::optional<PacketSet> at_device;
  const auto device_headers = [&]() -> const PacketSet& {
    if (!at_device) {
      PacketSet acc = PacketSet::none(mgr);
      const PacketSet local = trace.marked_packets().at(net::device_location(dev.id));
      if (local.valid()) acc = acc.union_with(local);
      for (const net::InterfaceId intf : network.device(dev.id).interfaces) {
        const PacketSet at = trace.marked_packets().at(net::to_location(intf));
        if (at.valid()) acc = acc.union_with(at);
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
                     ? device_headers().intersect(index.acl_permitted_space(dev.id))
                     : device_headers();
    }
    return *past_acl;
  };
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    for (const net::RuleId rid : network.table(dev.id, table)) {
      if (marked[rid.value] != 0) {
        ++decided.marked;
        covered[rid.value] = index.match_set(rid);
        continue;
      }
      const PacketSet& headers = table == net::TableKind::Fib ? fib_headers() : device_headers();
      // A rule with no dst prefix matches the whole /0 cube: the walk is
      // empty and the intersection is the plain one.
      covered[rid.value] =
          clip(mgr, headers, index.match_set(rid),
               network.rule(rid).dst_prefix().value_or(packet::Ipv4Prefix(0, 0)), decided);
    }
  }
}

}  // namespace

CoveredSets::CoveredSets(const dataplane::MatchSetIndex& index, const CoverageTrace& trace,
                         const CoverPrefill* prefill)
    : index_(index), trace_(trace), truncated_(index.truncated()) {
  obs::Span span("covered_sets.build", "offline");
  const net::Network& network = index.network();
  bdd::BddManager& mgr = index.manager();
  covered_.resize(network.rule_count());
  // Devices a cache prefill hit are adopted as handle copies (no BDD
  // operation, no budget charge); only the rest are walked, in device
  // order, in the index's manager.
  std::vector<const net::Device*> work;
  size_t prefilled_rules = 0;
  for (const net::Device& dev : network.devices()) {
    if (prefill == nullptr || !prefill->hit(dev.id)) {
      work.push_back(&dev);
      continue;
    }
    for_each_rule(network, dev, [&](net::RuleId rid) {
      covered_[rid.value] = prefill->covered[rid.value];
      ++prefilled_rules;
    });
  }
  // A byte per rule, filled once: a hash lookup per rule took a third of
  // the walk at k=48.
  std::vector<char> marked(network.rule_count(), 0);
  for (const net::RuleId rid : trace.marked_rules()) {
    if (rid.value < marked.size()) marked[rid.value] = 1;
  }
  Decisions decided;
  const bool stopped = ys::exhausted_during([&] {
    for (const net::Device* dev : work) {
      if (mgr.budget() != nullptr) mgr.budget()->poll(kActivity);
      cover_device(index, trace, marked, *dev, covered_, decided);
    }
  });
  span.arg("devices", network.device_count());
  span.arg("prefilled", network.device_count() - work.size());
  span.arg("rules", network.rule_count());
  span.arg("all", decided.all);
  span.arg("none", decided.none);
  span.arg("intersected", decided.intersected);
  span.arg("marked", decided.marked);
  // Degraded completion: empty sets are terminal-only, so filling them in
  // cannot trip the budget again.
  if (stopped) {
    truncated_ = true;
    for (PacketSet& ps : covered_) {
      if (!ps.valid()) ps = PacketSet::none(mgr);
    }
  }
  if (obs::enabled()) {
    static obs::Counter& covered_rules = obs::metrics().counter(
        "ys.covered_sets.rules_computed", "rules of the devices Algorithm 1 walked");
    covered_rules.add(network.rule_count() - prefilled_rules);
  }
}

CoveredSets::CoveredSets(const dataplane::MatchSetIndex& index, const CoveredSets& other)
    : index_(index), trace_(other.trace_), truncated_(other.truncated_) {
  obs::Span span("covered_sets.clone", "offline");
  bdd::BddImporter imp(index.manager(), other.manager());
  covered_ = dataplane::import_sets(imp, other.covered_);
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
