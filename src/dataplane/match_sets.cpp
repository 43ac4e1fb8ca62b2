#include "dataplane/match_sets.hpp"

#include <memory>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "packet/gc_roots.hpp"

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

/// One device's table walk — the unit of work both the serial and the
/// sharded parallel build share. Writes the device's rules into the
/// (rule/device-indexed) output vectors, building in `mgr`.
void build_device_tables(bdd::BddManager& mgr, const net::Network& network,
                         const net::Device& dev, std::vector<PacketSet>& match_fields,
                         std::vector<PacketSet>& match_sets,
                         std::vector<PacketSet>& matched_space,
                         std::vector<PacketSet>& acl_permitted) {
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    // Walk the ordered table, giving each rule the part of its match
    // field not already claimed by an earlier rule.
    PacketSet claimed = PacketSet::none(mgr);
    PacketSet permitted = PacketSet::none(mgr);
    for (const net::RuleId rid : network.table(dev.id, table)) {
      const net::Rule& r = network.rule(rid);
      PacketSet field = MatchSetIndex::build_match_field(mgr, r.match);
      PacketSet disjoint = field.minus(claimed);
      claimed = claimed.union_with(field);
      if (r.action.type == net::ActionType::Permit) {
        permitted = permitted.union_with(disjoint);
      }
      match_sets[rid.value] = std::move(disjoint);
      match_fields[rid.value] = std::move(field);
    }
    if (table == net::TableKind::Fib) {
      matched_space[dev.id.value] = claimed;
    } else {
      // No ACL stage means everything is permitted (implicit deny only
      // applies when an ACL exists).
      acl_permitted[dev.id.value] =
          network.has_acl(dev.id) ? permitted : PacketSet::all(mgr);
    }
  }
}

/// Per-worker shard of the parallel build: a private manager plus result
/// vectors for the devices this worker owns (strided assignment).
struct BuildShard {
  std::unique_ptr<bdd::BddManager> mgr;
  std::vector<PacketSet> match_fields;
  std::vector<PacketSet> match_sets;
  std::vector<PacketSet> matched_space;
  std::vector<PacketSet> acl_permitted;
  bool truncated = false;
};

}  // namespace

MatchSetIndex::MatchSetIndex(bdd::BddManager& mgr, const net::Network& network,
                             const ys::ResourceBudget* budget, unsigned threads,
                             const MatchPrefill* prefill, double gc_threshold)
    : mgr_(mgr), network_(network) {
  obs::Span build_span("match_sets.build", "offline");
  const size_t num_rules = network.rule_count();
  match_fields_.resize(num_rules);
  match_sets_.resize(num_rules);
  matched_space_.resize(network.device_count());
  acl_permitted_.resize(network.device_count());

  // Adopt cached devices up front; only the misses form the work list the
  // serial and sharded paths below walk. Prefilled sets already live in
  // mgr_, so adoption is handle copies — no BDD operations, no budget
  // charge.
  const std::vector<net::Device>& devices = network.devices();
  std::vector<const net::Device*> work;
  work.reserve(devices.size());
  for (const net::Device& dev : devices) {
    if (prefill != nullptr && prefill->hit(dev.id)) {
      for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
        for (const net::RuleId rid : network.table(dev.id, table)) {
          match_fields_[rid.value] = prefill->match_fields[rid.value];
          match_sets_[rid.value] = prefill->match_sets[rid.value];
        }
      }
      matched_space_[dev.id.value] = prefill->matched_space[dev.id.value];
      acl_permitted_[dev.id.value] = prefill->acl_permitted[dev.id.value];
    } else {
      work.push_back(&dev);
    }
  }

  const unsigned workers = ys::resolve_threads(threads, work.size());
  build_span.arg("devices", devices.size());
  build_span.arg("prefilled", devices.size() - work.size());
  build_span.arg("rules", num_rules);
  build_span.arg("workers", workers);

  // GC runs only on shard managers (the primary holds handles this builder
  // does not own), so an armed threshold routes even a one-thread build
  // through the sharded path — bit-identical to serial by construction.
  const bool sharded = workers > 1 || (gc_threshold > 0.0 && !work.empty());

  if (!sharded) {
    try {
      for (const net::Device* dev : work) {
        if (budget != nullptr) budget->poll("match-set computation");
        build_device_tables(mgr, network, *dev, match_fields_, match_sets_,
                            matched_space_, acl_permitted_);
      }
    } catch (const ys::StatusError& e) {
      if (!ys::is_resource_exhaustion(e.code())) throw;
      truncated_ = true;
    }
  } else {
    // Sharded build: worker w owns work items w, w+T, w+2T, ... and builds
    // them in a private manager; the main thread then merges every shard
    // into the primary manager by structural import, walking devices in
    // network order so the merge is deterministic.
    std::vector<BuildShard> shards(workers);
    ys::run_workers(workers, [&](unsigned w) {
      BuildShard& shard = shards[w];
      shard.mgr = std::make_unique<bdd::BddManager>(mgr_.num_vars());
      // Attached manually (not ScopedBudget): the charge must outlive the
      // worker and stay until the main thread finishes the merge below,
      // since the shard's nodes are alive until then.
      if (budget != nullptr) shard.mgr->set_budget(budget);
      shard.match_fields.resize(num_rules);
      shard.match_sets.resize(num_rules);
      shard.matched_space.resize(network.device_count());
      shard.acl_permitted.resize(network.device_count());
      // Result vectors are fully sized above and never reallocate, so the
      // tracker may hold raw pointers into them across the whole build.
      if (gc_threshold > 0.0) shard.mgr->set_gc_threshold(gc_threshold);
      packet::GcRootTracker gc_roots(*shard.mgr);
      try {
        for (size_t d = w; d < work.size(); d += workers) {
          if (budget != nullptr) budget->poll("match-set computation");
          const net::Device& dev = *work[d];
          build_device_tables(*shard.mgr, network, dev, shard.match_fields,
                              shard.match_sets, shard.matched_space,
                              shard.acl_permitted);
          if (gc_threshold > 0.0) {
            for (const net::TableKind table :
                 {net::TableKind::Acl, net::TableKind::Fib}) {
              for (const net::RuleId rid : network.table(dev.id, table)) {
                gc_roots.track(shard.match_fields[rid.value]);
                gc_roots.track(shard.match_sets[rid.value]);
              }
            }
            gc_roots.track(shard.matched_space[dev.id.value]);
            gc_roots.track(shard.acl_permitted[dev.id.value]);
            if (gc_roots.due()) {
              obs::Span gc_span("bdd.gc", "offline");
              const bdd::GcResult gc = gc_roots.collect();
              gc_span.arg("reclaimed", gc.reclaimed);
              gc_span.arg("live", gc.live_nodes);
            }
          }
        }
      } catch (const ys::StatusError& e) {
        if (!ys::is_resource_exhaustion(e.code())) throw;
        shard.truncated = true;
      }
    });

    // Queue occupancy: worker w owns the work items ≡ w (mod workers).
    for (unsigned w = 0; w < workers; ++w) {
      ys::worker_items_histogram().observe(
          static_cast<double>((work.size() - w + workers - 1) / workers));
    }

    obs::Span merge_span("match_sets.merge", "offline");
    std::vector<std::unique_ptr<bdd::BddImporter>> importers;
    importers.reserve(workers);
    for (BuildShard& shard : shards) {
      truncated_ = truncated_ || shard.truncated;
      importers.push_back(std::make_unique<bdd::BddImporter>(mgr_, *shard.mgr));
    }
    try {
      for (size_t d = 0; d < work.size(); ++d) {
        const net::Device& dev = *work[d];
        BuildShard& shard = shards[d % workers];
        bdd::BddImporter& imp = *importers[d % workers];
        const auto merged = [&imp](const PacketSet& src) {
          return src.valid() ? PacketSet(imp.import(src.raw())) : PacketSet{};
        };
        for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
          for (const net::RuleId rid : network.table(dev.id, table)) {
            match_fields_[rid.value] = merged(shard.match_fields[rid.value]);
            match_sets_[rid.value] = merged(shard.match_sets[rid.value]);
          }
        }
        matched_space_[dev.id.value] = merged(shard.matched_space[dev.id.value]);
        acl_permitted_[dev.id.value] = merged(shard.acl_permitted[dev.id.value]);
      }
    } catch (const ys::StatusError& e) {
      if (!ys::is_resource_exhaustion(e.code())) throw;
      truncated_ = true;
    }
    if (obs::enabled()) {
      static obs::Counter& imported = obs::metrics().counter(
          "ys.bdd.imported_nodes", "nodes copied across BDD managers");
      size_t total = 0;
      for (const auto& imp : importers) total += imp->imported_nodes();
      imported.add(total);
      static obs::Counter& gc_runs = obs::metrics().counter(
          "ys.bdd.gc.runs", "phase-boundary mark-compact collections");
      static obs::Counter& gc_reclaimed = obs::metrics().counter(
          "ys.bdd.gc.reclaimed_nodes", "dead BDD nodes reclaimed by GC");
      static obs::Counter& shard_hits = obs::metrics().counter(
          "ys.bdd.shard_cache_hits", "apply-cache hits across shard managers");
      static obs::Counter& shard_misses = obs::metrics().counter(
          "ys.bdd.shard_cache_misses", "apply-cache misses across shard managers");
      for (const BuildShard& shard : shards) {
        const bdd::BddManager::Stats s = shard.mgr->stats();
        gc_runs.add(s.gc_runs);
        gc_reclaimed.add(s.gc_reclaimed_nodes);
        shard_hits.add(s.cache_hits);
        shard_misses.add(s.cache_misses);
      }
    }
    // Release the shards' node accounting before their managers die.
    for (BuildShard& shard : shards) shard.mgr->set_budget(nullptr);
  }
  if (obs::enabled()) {
    static obs::Counter& built_devices = obs::metrics().counter(
        "ys.match_sets.devices_built", "devices whose tables were walked (step 1)");
    static obs::Counter& built_rules = obs::metrics().counter(
        "ys.match_sets.rules_built", "rules given disjoint match sets (step 1)");
    built_devices.add(work.size());
    built_rules.add(num_rules);
  }

  // Degraded completion: rules/devices never reached get well-formed empty
  // sets (terminal-only — constructing them cannot trip the budget again),
  // so every downstream query stays valid and merely under-reports.
  if (truncated_) {
    for (PacketSet& ps : match_fields_) {
      if (!ps.valid()) ps = PacketSet::none(mgr);
    }
    unreached_.assign(num_rules, 0);
    for (size_t i = 0; i < num_rules; ++i) {
      if (match_sets_[i].valid()) continue;
      unreached_[i] = 1;
      match_sets_[i] = PacketSet::none(mgr);
    }
    for (PacketSet& ps : matched_space_) {
      if (!ps.valid()) ps = PacketSet::none(mgr);
    }
    for (PacketSet& ps : acl_permitted_) {
      if (!ps.valid()) ps = PacketSet::none(mgr);
    }
  }
}

MatchSetIndex::MatchSetIndex(bdd::BddManager& dst, const MatchSetIndex& other)
    : mgr_(dst),
      network_(other.network_),
      unreached_(other.unreached_),
      truncated_(other.truncated_) {
  obs::Span span("match_sets.clone", "offline");
  bdd::BddImporter imp(dst, other.mgr_);
  const auto clone_all = [&imp](const std::vector<PacketSet>& src,
                                std::vector<PacketSet>& out) {
    out.reserve(src.size());
    for (const PacketSet& ps : src) {
      out.push_back(ps.valid() ? PacketSet(imp.import(ps.raw())) : PacketSet{});
    }
  };
  clone_all(other.match_fields_, match_fields_);
  clone_all(other.match_sets_, match_sets_);
  clone_all(other.matched_space_, matched_space_);
  clone_all(other.acl_permitted_, acl_permitted_);
  if (obs::enabled()) {
    obs::metrics()
        .counter("ys.bdd.imported_nodes", "nodes copied across BDD managers")
        .add(imp.imported_nodes());
  }
}

}  // namespace yardstick::dataplane
