#include "dataplane/match_sets.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <unordered_map>

#include "common/budget.hpp"
#include "common/status.hpp"
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
  void clear() {
    nodes_.assign(1, Node{});
    last_address_ = 0;
    last_length_ = 0;
  }

  /// Inserts `prefix` and returns whether it overlaps one inserted before.
  bool insert(const std::optional<packet::Ipv4Prefix>& prefix) {
    const uint32_t address = prefix ? prefix->address() : 0;
    const uint8_t length = prefix ? prefix->length() : 0;
    // A table's consecutive prefixes mostly share their leading bits, so the
    // walk resumes where this path leaves the last one: the nodes above are
    // marked `below` already, and no prefix has ended on them since the last
    // walk read them (one ends only at the end of its own walk).
    const uint32_t differ = address ^ last_address_;
    const uint8_t shared = differ == 0 ? 32 : static_cast<uint8_t>(std::countl_zero(differ));
    const uint8_t from = std::min({length, last_length_, shared});
    bool overlap = path_[from].overlap;
    uint32_t at = path_[from].node;
    for (uint8_t i = from; i < length; ++i) {
      overlap = overlap || nodes_[at].here;
      nodes_[at].below = true;
      const unsigned bit = (address >> (31 - i)) & 1;
      if (nodes_[at].child[bit] == 0) {
        nodes_[at].child[bit] = static_cast<uint32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      at = nodes_[at].child[bit];
      path_[i + 1] = {at, overlap};
    }
    overlap = overlap || nodes_[at].below;
    nodes_[at].here = nodes_[at].below = true;
    last_address_ = address;
    last_length_ = length;
    return overlap;
  }

 private:
  struct Node {
    uint32_t child[2] = {0, 0};  // 0: none (the root is nobody's child)
    bool here = false;           // a prefix ends at this node
    bool below = false;          // a prefix ends at or below this node
  };
  /// The last walk's node at each depth, and whether a prefix ended above it.
  struct Step {
    uint32_t node = 0;
    bool overlap = false;
  };
  std::vector<Node> nodes_{1};
  std::array<Step, 33> path_{};
  uint32_t last_address_ = 0;
  uint8_t last_length_ = 0;
};

/// Step 1's table walk over one build, in one manager. Its memo holds every
/// distinct match field, built once, and one n-ary union memo, both naming
/// that manager's nodes, which live until it dies; the rest is per-table
/// scratch kept for its capacity.
struct TableWalk {
  TableWalk(bdd::BddManager& m, const net::Network& n, MatchSlots& o)
      : mgr(m), network(n), out(o), nary(m) {}

  bdd::BddManager& mgr;
  const net::Network& network;
  MatchSlots& out;
  std::unordered_map<FieldKey, bdd::NodeIndex, FieldKeyHash> fields;
  bdd::NaryUnion nary;
  PrefixOverlap earlier;
  std::vector<bdd::NodeIndex> since;    // fields after the last U
  std::vector<bdd::NodeIndex> permits;  // the ACL's permit match sets
  size_t differences = 0;               // rules that paid a difference

  /// Walks one device's tables, writing its slots.
  void device(const net::Device& dev) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      // M[r] is r's field minus U, the union of the table's earlier fields.
      // A field no earlier field overlaps is its own M[r]; for the others,
      // U is brought up to date from the last one built and the fields
      // since, in one n-ary union (DESIGN.md §20).
      bdd::NodeIndex u = bdd::kFalse;
      earlier.clear();
      since.clear();
      permits.clear();
      for (const net::RuleId rid : network.table(dev.id, table)) {
        const net::MatchSpec match = network.match_spec(rid);
        const FieldKey key = FieldKey::of(match);
        auto it = fields.find(key);
        if (it == fields.end()) {
          const PacketSet field = MatchSetIndex::build_match_field(mgr, match);
          it = fields.emplace(key, field.raw().index()).first;
        }
        const bdd::NodeIndex field = it->second;
        bdd::NodeIndex disjoint = field;
        if (earlier.insert(match.dst_prefix)) {
          since.push_back(u);
          u = nary.unite(since);
          since.clear();
          disjoint = mgr.apply(bdd::BddManager::Op::Diff, field, u);
          ++differences;
        }
        since.push_back(field);
        if (network.rule(rid).action_type() == net::ActionType::Permit) {
          permits.push_back(disjoint);
        }
        out.match_sets[rid.value] = PacketSet(bdd::Bdd(&mgr, disjoint));
      }
      if (table == net::TableKind::Acl) {
        // No ACL stage means everything is permitted (implicit deny only
        // applies when an ACL exists).
        out.acl_permitted[dev.id.value] =
            network.has_acl(dev.id) ? PacketSet(bdd::Bdd(&mgr, nary.unite(permits)))
                                    : PacketSet::all(mgr);
      }
    }
  }
};

/// Step 1 into `out`, sized here. Adopts every device `prefill` hits as
/// handle copies (no BDD operation, no budget charge), then walks the rest
/// in device order in `mgr`, polling its budget before each device. Returns
/// true when the budget stopped the walk: every slot it never wrote is then
/// an empty set, and `unreached` marks those rules.
bool build(bdd::BddManager& mgr, const net::Network& network, const MatchPrefill* prefill,
           MatchSlots& out, std::vector<char>& unreached) {
  obs::Span span("match_sets.build", "offline");
  out.match_sets.resize(network.rule_count());
  out.acl_permitted.resize(network.device_count());
  std::vector<const net::Device*> work;
  size_t prefilled_rules = 0;
  for (const net::Device& dev : network.devices()) {
    if (prefill == nullptr || !prefill->hit(dev.id)) {
      work.push_back(&dev);
      continue;
    }
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(dev.id, table)) {
        out.match_sets[rid.value] = prefill->match_sets[rid.value];
        ++prefilled_rules;
      }
    }
    out.acl_permitted[dev.id.value] = prefill->acl_permitted[dev.id.value];
  }
  span.arg("devices", network.device_count());
  span.arg("prefilled", network.device_count() - work.size());
  span.arg("rules", network.rule_count());

  TableWalk walk(mgr, network, out);
  const bool truncated = ys::exhausted_during([&] {
    for (const net::Device* dev : work) {
      if (mgr.budget() != nullptr) mgr.budget()->poll("match-set computation");
      walk.device(*dev);
    }
  });
  span.arg("fields", walk.fields.size());
  span.arg("differences", walk.differences);
  if (obs::enabled()) {
    static obs::Counter& built_devices = obs::metrics().counter(
        "ys.match_sets.devices_built", "devices whose tables were walked (step 1)");
    static obs::Counter& built_rules = obs::metrics().counter(
        "ys.match_sets.rules_built", "rules of the devices walked (step 1)");
    static obs::Counter& fields_built = obs::metrics().counter(
        "ys.match_sets.fields_built", "distinct match fields built (step 1)");
    static obs::Counter& differences = obs::metrics().counter(
        "ys.match_sets.differences",
        "rules whose dst prefix overlaps an earlier rule's, each paying one difference (step 1)");
    built_devices.add(work.size());
    built_rules.add(network.rule_count() - prefilled_rules);
    fields_built.add(walk.fields.size());
    differences.add(walk.differences);
  }

  // Degraded completion: empty sets are terminal-only, so filling them in
  // cannot trip the budget again.
  if (truncated) {
    unreached.assign(network.rule_count(), 0);
    for (size_t r = 0; r < out.match_sets.size(); ++r) {
      if (out.match_sets[r].valid()) continue;
      out.match_sets[r] = PacketSet::none(mgr);
      unreached[r] = 1;
    }
    for (PacketSet& ps : out.acl_permitted) {
      if (!ps.valid()) ps = PacketSet::none(mgr);
    }
  }
  return truncated;
}

}  // namespace

MatchSetIndex::MatchSetIndex(bdd::BddManager& mgr, const net::Network& network,
                             const MatchPrefill* prefill)
    : mgr_(mgr), network_(network) {
  truncated_ = build(mgr, network, prefill, sets_, unreached_);
  obs::Span span("match_sets.prefix_index", "offline");
  prefixes_ = std::make_shared<const PrefixIndex>(network);
  span.arg("rules", prefixes_->entries());
  span.arg("bytes", prefixes_->bytes());
}

MatchSetIndex::MatchSetIndex(bdd::BddManager& dst, const MatchSetIndex& other)
    : mgr_(dst),
      network_(other.network_),
      prefixes_(other.prefixes_),
      unreached_(other.unreached_),
      truncated_(other.truncated_) {
  obs::Span span("match_sets.clone", "offline");
  bdd::BddImporter imp(dst, other.mgr_);
  sets_.match_sets = import_sets(imp, other.sets_.match_sets);
  sets_.acl_permitted = import_sets(imp, other.sets_.acl_permitted);
}

std::vector<PacketSet> import_sets(bdd::BddImporter& imp, const std::vector<PacketSet>& from) {
  const size_t before = imp.imported_nodes();
  std::vector<PacketSet> to;
  to.reserve(from.size());
  for (const PacketSet& ps : from) to.emplace_back(imp.import(ps.raw()));
  if (obs::enabled()) {
    obs::metrics()
        .counter("ys.bdd.imported_nodes", "nodes copied across BDD managers")
        .add(imp.imported_nodes() - before);
  }
  return to;
}

}  // namespace yardstick::dataplane
