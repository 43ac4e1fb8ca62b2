#include "dataplane/match_sets.hpp"

#include <atomic>
#include <optional>
#include <unordered_map>

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

/// A match field as a memo key: specs with equal keys build the same set.
/// An absent prefix or port range keys as the full one, which builds the
/// same set.
struct FieldKey {
  uint64_t addresses = 0;  // dst << 32 | src
  uint64_t ports = 0;      // src lo, src hi, dst lo, dst hi, 16 bits each
  uint32_t shape = 0;      // dst length, src length, proto + 1 (0: any)

  static FieldKey of(const net::MatchSpec& m) {
    const packet::Ipv4Prefix dst = m.dst_prefix.value_or(packet::Ipv4Prefix{});
    const packet::Ipv4Prefix src = m.src_prefix.value_or(packet::Ipv4Prefix{});
    const net::PortRange sport = m.src_port.value_or(net::PortRange{});
    const net::PortRange dport = m.dst_port.value_or(net::PortRange{});
    return {uint64_t{dst.address()} << 32 | src.address(),
            uint64_t{sport.lo} << 48 | uint64_t{sport.hi} << 32 | uint64_t{dport.lo} << 16 |
                dport.hi,
            uint32_t{dst.length()} | uint32_t{src.length()} << 8 |
                (m.proto ? uint32_t{*m.proto} + 1 : 0) << 16};
  }

  friend bool operator==(const FieldKey&, const FieldKey&) = default;
};

struct FieldKeyHash {
  size_t operator()(const FieldKey& k) const {
    uint64_t h = (k.addresses ^ (k.ports * 0x9e3779b97f4a7c15ULL) ^ uint64_t{k.shape} << 40) *
                 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

/// The dst prefixes of one table's rules so far, as a binary trie over the
/// address bits. Two prefixes nest or are disjoint, so a new one overlaps an
/// earlier one exactly when an earlier one ends on its path (and holds it)
/// or was inserted at or below its node (and lies in it). A rule without a
/// dst prefix is the root's /0: it overlaps every rule before it and after.
class PrefixOverlap {
 public:
  void clear() { nodes_.assign(1, Node{}); }

  /// Inserts `prefix` and returns whether it overlaps one inserted before.
  bool insert(const std::optional<packet::Ipv4Prefix>& prefix) {
    const uint32_t address = prefix ? prefix->address() : 0;
    const uint8_t length = prefix ? prefix->length() : 0;
    bool overlap = false;
    uint32_t at = 0;
    for (uint8_t i = 0; i < length; ++i) {
      overlap = overlap || nodes_[at].here;
      nodes_[at].below = true;
      const unsigned bit = (address >> (31 - i)) & 1;
      if (nodes_[at].child[bit] == 0) {
        nodes_[at].child[bit] = static_cast<uint32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      at = nodes_[at].child[bit];
    }
    overlap = overlap || nodes_[at].below;
    nodes_[at].here = nodes_[at].below = true;
    return overlap;
  }

 private:
  struct Node {
    uint32_t child[2] = {0, 0};  // 0: none (the root is nobody's child)
    bool here = false;           // a prefix ends at this node
    bool below = false;          // a prefix ends at or below this node
  };
  std::vector<Node> nodes_{1};
};

/// Step 1 as the shard-and-merge driver sees it (sharded_build.hpp).
struct MatchBuild {
  using Slots = MatchSlots;
  static constexpr const char* kBuildSpan = "match_sets.build";
  static constexpr const char* kMergeSpan = "match_sets.merge";
  static constexpr const char* kActivity = "match-set computation";

  /// What the walks in one manager reuse during one build: every distinct
  /// match field, built once, and one n-ary union memo, both naming that
  /// manager's nodes; the rest is per-table scratch kept for its capacity.
  struct Memo {
    explicit Memo(bdd::BddManager& mgr) : nary(mgr) {}

    std::unordered_map<FieldKey, bdd::NodeIndex, FieldKeyHash> fields;
    bdd::NaryUnion nary;
    PrefixOverlap earlier;
    std::vector<bdd::NodeIndex> since;    // fields after the last U
    std::vector<bdd::NodeIndex> permits;  // the ACL's permit match sets
  };

  const net::Network& network;
  // Work done, summed over workers: the build span's args.
  mutable std::atomic<size_t> fields_built{0};  // distinct fields built
  mutable std::atomic<size_t> differences{0};   // rules that paid a difference

  /// One device's table walk, building in `mgr`. Step 1 reads nothing from
  /// the primary manager.
  void build(bdd::BddManager& mgr, const net::Device& dev, MatchSlots& out,
             const PrimaryInput& /*input*/, Memo& memo) const {
    size_t built = 0;
    size_t paid = 0;
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      // M[r] is r's field minus U, the union of the table's earlier fields.
      // A field no earlier field overlaps is its own M[r]; for the others,
      // U is brought up to date from the last one built and the fields
      // since, in one n-ary union (DESIGN.md §20).
      bdd::NodeIndex u = bdd::kFalse;
      memo.earlier.clear();
      memo.since.clear();
      memo.permits.clear();
      for (const net::RuleId rid : network.table(dev.id, table)) {
        const net::Rule& r = network.rule(rid);
        const FieldKey key = FieldKey::of(r.match);
        auto it = memo.fields.find(key);
        if (it == memo.fields.end()) {
          const PacketSet field = MatchSetIndex::build_match_field(mgr, r.match);
          it = memo.fields.emplace(key, field.raw().index()).first;
          ++built;
        }
        const bdd::NodeIndex field = it->second;
        bdd::NodeIndex disjoint = field;
        if (memo.earlier.insert(r.match.dst_prefix)) {
          memo.since.push_back(u);
          u = memo.nary.unite(memo.since);
          memo.since.clear();
          disjoint = mgr.apply(bdd::BddManager::Op::Diff, field, u);
          ++paid;
        }
        memo.since.push_back(field);
        if (r.action.type == net::ActionType::Permit) memo.permits.push_back(disjoint);
        out.match_sets[rid.value] = PacketSet(bdd::Bdd(&mgr, disjoint));
      }
      if (table == net::TableKind::Acl) {
        // No ACL stage means everything is permitted (implicit deny only
        // applies when an ACL exists).
        out.acl_permitted[dev.id.value] =
            network.has_acl(dev.id)
                ? PacketSet(bdd::Bdd(&mgr, memo.nary.unite(memo.permits)))
                : PacketSet::all(mgr);
      }
    }
    fields_built.fetch_add(built, std::memory_order_relaxed);
    differences.fetch_add(paid, std::memory_order_relaxed);
  }

  void annotate(obs::Span& span) const {
    span.arg("fields", fields_built.load(std::memory_order_relaxed));
    span.arg("differences", differences.load(std::memory_order_relaxed));
  }
};

}  // namespace

MatchSetIndex::MatchSetIndex(bdd::BddManager& mgr, const net::Network& network,
                             unsigned threads, const MatchPrefill* prefill, double gc_threshold)
    : mgr_(mgr), network_(network) {
  MatchBuild builder{network};
  ShardedBuildResult built =
      sharded_build(builder, mgr, network, sets_, prefill, threads, gc_threshold);
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
    static obs::Counter& fields_built = obs::metrics().counter(
        "ys.match_sets.fields_built",
        "distinct match fields built, summed over the managers that built them (step 1)");
    static obs::Counter& differences = obs::metrics().counter(
        "ys.match_sets.differences",
        "rules whose dst prefix overlaps an earlier rule's, each paying one difference (step 1)");
    built_devices.add(built.built_devices);
    built_rules.add(network.rule_count());
    fields_built.add(builder.fields_built.load(std::memory_order_relaxed));
    differences.add(builder.differences.load(std::memory_order_relaxed));
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
