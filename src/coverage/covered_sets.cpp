#include "coverage/covered_sets.hpp"

#include <memory>
#include <optional>

#include "common/budget.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yardstick::coverage {

using packet::PacketSet;

namespace {

constexpr const char* kActivity = "covered-set computation";

/// Calls fn(rid) for every rule of `dev`: its ACL table, then its FIB, each
/// in table order.
template <typename Fn>
void for_each_rule(const net::Network& network, const net::Device& dev, Fn&& fn) {
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    for (const net::RuleId rid : network.table(dev.id, table)) fn(rid);
  }
}

/// Algorithm 1, writing each rule's T[r] into `covered`, the owner's slots.
struct Algorithm1 {
  const dataplane::MatchSetIndex& index;
  const CoverageTrace& trace;
  std::vector<PacketSet>& covered;

  /// One device, intersecting in `mgr`. In a shard, `into_shard` brings the
  /// trace slices, match sets and ACL spaces over from the index's manager,
  /// which is quiescent while workers run. A state-inspected rule gets M[r]
  /// itself, the index's handle, with no round trip through a shard: the
  /// merge keeps it.
  void device(bdd::BddManager& mgr, const net::Device& dev,
              bdd::BddImporter* into_shard = nullptr) const {
    const auto input = [&](const PacketSet& ps) {
      return into_shard == nullptr ? ps : PacketSet(into_shard->import(ps.raw()));
    };
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
          covered[rid.value] = index.match_set(rid);
          continue;
        }
        const PacketSet& headers =
            table == net::TableKind::Fib ? fib_headers() : device_headers();
        covered[rid.value] = headers.intersect(input(index.match_set(rid)));
      }
    }
  }
};

struct Shard {
  explicit Shard(const bdd::BddManager& primary)
      : mgr(primary.num_vars()), charge(mgr, primary.budget()) {}

  bdd::BddManager mgr;
  bdd::ScopedBudget charge;  // released when the shard dies: after the merge, or unwinding
  bool truncated = false;
};

/// Runs Algorithm 1 over `work` in per-worker shard managers, worker w
/// taking items w, w+T, w+2T, ..., each writing its devices' slots, then
/// imports the shard handles into the primary in device order. Returns true
/// when the budget stopped a worker or the merge.
bool build_in_shards(const Algorithm1& algorithm, bdd::BddManager& primary,
                     const std::vector<const net::Device*>& work, unsigned workers) {
  std::vector<std::unique_ptr<Shard>> shards(workers);
  ys::run_workers(workers, [&](unsigned w) {
    Shard& shard = *(shards[w] = std::make_unique<Shard>(primary));
    bdd::BddImporter into_shard(shard.mgr, primary);
    shard.truncated = ys::exhausted_during([&] {
      for (size_t d = w; d < work.size(); d += workers) {
        if (shard.mgr.budget() != nullptr) shard.mgr.budget()->poll(kActivity);
        algorithm.device(shard.mgr, *work[d], &into_shard);
      }
    });
  });

  // Queue occupancy: worker w owns the work items ≡ w (mod workers).
  for (unsigned w = 0; w < workers; ++w) {
    ys::worker_items_histogram().observe(
        static_cast<double>((work.size() - w + workers - 1) / workers));
  }

  obs::Span merge_span("covered_sets.merge", "offline");
  bool truncated = false;
  std::vector<std::unique_ptr<bdd::BddImporter>> into_primary;
  into_primary.reserve(workers);
  for (const auto& shard : shards) {
    truncated = truncated || shard->truncated;
    into_primary.push_back(std::make_unique<bdd::BddImporter>(primary, shard->mgr));
  }
  // The importer copies a shard handle and passes a primary or invalid one
  // through. Once the budget stops the merge, every slot it did not reach
  // is cleared: a shard handle dies with its shard.
  bool stopped = false;
  for (size_t d = 0; d < work.size(); ++d) {
    bdd::BddImporter& import = *into_primary[d % workers];
    for_each_rule(algorithm.index.network(), *work[d], [&](net::RuleId rid) {
      PacketSet& slot = algorithm.covered[rid.value];
      if (!stopped) {
        stopped = ys::exhausted_during([&] { slot = PacketSet(import.import(slot.raw())); });
      }
      if (stopped) slot = {};
    });
  }
  if (obs::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    size_t imported_nodes = 0;
    for (const auto& imp : into_primary) imported_nodes += imp->imported_nodes();
    reg.counter("ys.bdd.imported_nodes", "nodes copied across BDD managers").add(imported_nodes);
    for (const auto& shard : shards) {
      const bdd::BddManager::Stats s = shard->mgr.stats();
      reg.counter("ys.bdd.shard_cache_hits", "apply-cache hits across shard managers")
          .add(s.cache_hits);
      reg.counter("ys.bdd.shard_cache_misses", "apply-cache misses across shard managers")
          .add(s.cache_misses);
    }
  }
  return truncated || stopped;
}

}  // namespace

CoveredSets::CoveredSets(const dataplane::MatchSetIndex& index, const CoverageTrace& trace,
                         unsigned threads, const CoverPrefill* prefill)
    : index_(index), trace_(trace), truncated_(index.truncated()) {
  obs::Span span("covered_sets.build", "offline");
  const net::Network& network = index.network();
  bdd::BddManager& primary = index.manager();
  // One slot set, sized before any worker starts: each device's slots are
  // written only by the worker that walks it, so workers share it lock-free.
  covered_.resize(network.rule_count());
  // Devices a cache prefill hit are adopted as handle copies (no BDD
  // operation, no budget charge); only the rest are walked.
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
  const unsigned workers = ys::resolve_threads(threads, work.size());
  span.arg("devices", network.device_count());
  span.arg("prefilled", network.device_count() - work.size());
  span.arg("rules", network.rule_count());
  span.arg("workers", workers);

  // One worker builds in the primary; more build in shards and merge.
  const Algorithm1 algorithm{index, trace, covered_};
  const bool stopped =
      workers > 1 ? build_in_shards(algorithm, primary, work, workers)
                  : ys::exhausted_during([&] {
                      for (const net::Device* dev : work) {
                        if (primary.budget() != nullptr) primary.budget()->poll(kActivity);
                        algorithm.device(primary, *dev);
                      }
                    });
  // Degraded completion: empty sets are terminal-only, so filling them in
  // cannot trip the budget again.
  if (stopped) {
    truncated_ = true;
    for (PacketSet& ps : covered_) {
      if (!ps.valid()) ps = PacketSet::none(primary);
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
