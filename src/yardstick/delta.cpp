#include "yardstick/delta.hpp"

#include <array>
#include <unordered_map>
#include <utility>

namespace yardstick::ys {

using packet::PacketSet;

void ContentHasher::bytes(const void* data, size_t size) { h_ = fnv1a64(data, size, h_); }

void ContentHasher::u64(uint64_t v) {
  // Explicit little-endian bytes: the hash must not depend on host layout
  // of wider stores (the cache is local, but tests compare hashes).
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(buf, sizeof(buf));
}

namespace {

void hash_prefix(ContentHasher& h, const packet::Ipv4Prefix& p) {
  h.u64(p.address());
  h.u64(p.length());
}

void hash_match_spec(ContentHasher& h, const net::MatchSpec& spec) {
  h.maybe(spec.dst_prefix, [&](const packet::Ipv4Prefix& p) { hash_prefix(h, p); });
  h.maybe(spec.src_prefix, [&](const packet::Ipv4Prefix& p) { hash_prefix(h, p); });
  h.maybe(spec.proto, [&](uint8_t v) { h.u64(v); });
  h.maybe(spec.src_port, [&](const net::PortRange& r) {
    h.u64(r.lo);
    h.u64(r.hi);
  });
  h.maybe(spec.dst_port, [&](const net::PortRange& r) {
    h.u64(r.lo);
    h.u64(r.hi);
  });
  h.u64(spec.in_interfaces.size());
  for (const net::InterfaceId intf : spec.in_interfaces) h.u64(intf.value);
}

/// The action by value: its type, interfaces and rewrites, never its group
/// id (group ids follow insertion order and differ between networks).
void hash_action(ContentHasher& h, const net::Network& network, net::RuleId rid) {
  h.u64(static_cast<uint64_t>(network.rule(rid).action_type()));
  const std::span<const net::InterfaceId> outs = network.out_interfaces(rid);
  h.u64(outs.size());
  for (const net::InterfaceId intf : outs) h.u64(intf.value);
  const std::span<const net::Rewrite> rewrites = network.rewrites(rid);
  h.u64(rewrites.size());
  for (const net::Rewrite& rw : rewrites) {
    h.u64(static_cast<uint64_t>(rw.field));
    h.u64(rw.value);
  }
}

}  // namespace

uint64_t hash_device_tables(const net::Network& network, net::DeviceId dev) {
  ContentHasher h;
  for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
    const std::span<const net::RuleId> rules = network.table(dev, table);
    h.u64(rules.size());
    for (const net::RuleId rid : rules) {
      h.u64(network.rule(rid).priority);
      hash_match_spec(h, network.match_spec(rid));
      hash_action(h, network, rid);
    }
  }
  return h.value();
}

namespace {

/// Bottom-up structural hash of one BDD node: a pure function of
/// (var, low-subgraph, high-subgraph), never of arena layout — two sets
/// with the same logical content hash alike in any manager. The memo is a
/// dense arena-indexed vector (0 = not yet hashed) shared across every
/// slice of one key pass: one allocation amortized over the whole trace,
/// and subgraphs shared between locations hash exactly once.
uint64_t structural_hash(const bdd::BddManager& mgr, bdd::NodeIndex root,
                         std::vector<uint64_t>& memo) {
  constexpr uint64_t kFalseHash = 0x61c8864680b583ebULL;
  constexpr uint64_t kTrueHash = 0x3c79ac492ba7b653ULL;
  const auto mix = [](uint64_t var, uint64_t lo, uint64_t hi) {
    uint64_t h = kFnv1aOffsetBasis;
    h = (h ^ var) * kFnv1aPrime;
    h = (h ^ lo) * kFnv1aPrime;
    h = (h ^ hi) * kFnv1aPrime;
    return h;
  };
  if (memo.size() < mgr.arena_size()) memo.resize(mgr.arena_size(), 0);
  const auto known = [&](bdd::NodeIndex n, uint64_t& out) {
    if (n == bdd::kFalse) return out = kFalseHash, true;
    if (n == bdd::kTrue) return out = kTrueHash, true;
    // A subgraph genuinely hashing to 0 (p = 2^-64) is re-walked per
    // visit — same value every time, so merely redundant work.
    return memo[n] == 0 ? false : (out = memo[n], true);
  };
  uint64_t h = 0;
  if (known(root, h)) return h;
  std::vector<bdd::NodeIndex> stack{root};
  while (!stack.empty()) {
    const bdd::NodeIndex n = stack.back();
    const bdd::BddNode& node = mgr.node(n);
    uint64_t lo = 0, hi = 0;
    const bool lo_done = known(node.low, lo);
    const bool hi_done = known(node.high, hi);
    if (lo_done && hi_done) {
      stack.pop_back();
      memo[n] = mix(node.var, lo, hi);
      continue;
    }
    if (!lo_done) stack.push_back(node.low);
    if (!hi_done) stack.push_back(node.high);
  }
  (void)known(root, h);
  return h;
}

}  // namespace

std::vector<DeviceKeys> compute_table_keys(const net::Network& network) {
  std::vector<DeviceKeys> out(network.device_count());
  for (const net::Device& dev : network.devices()) {
    out[dev.id.value].fib_hash = hash_device_tables(network, dev.id);
  }
  return out;
}

void add_trace_keys(const net::Network& network, const coverage::CoverageTrace& trace,
                    std::vector<DeviceKeys>& out) {
  // One memo for the whole key pass: every trace slice lives in the same
  // manager, so structurally shared subgraphs across locations hash once.
  std::vector<uint64_t> memo;
  for (const net::Device& dev : network.devices()) {
    DeviceKeys& keys = out[dev.id.value];
    ContentHasher h;
    h.u64(keys.fib_hash);
    // The trace slice Algorithm 1 reads for this device: the device-local
    // injection location plus every interface location. Absent and empty
    // sets hash alike — both contribute nothing to the union.
    const auto add_location = [&](packet::LocationId loc) {
      const PacketSet at = trace.marked_packets().at(loc);
      h.u64(loc);
      if (at.valid() && !at.empty()) {
        h.u64(1);
        h.u64(structural_hash(*at.raw().manager(), at.raw().index(), memo));
      } else {
        h.u64(0);
      }
    };
    add_location(net::device_location(dev.id));
    for (const net::InterfaceId intf : dev.interfaces) {
      add_location(net::to_location(intf));
    }
    // State-inspection bits by table position (positions are stable under
    // the fib_hash gate; global rule ids are not and never enter a key).
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network.table(dev.id, table)) {
        h.u64(trace.rule_marked(rid) ? 1 : 0);
      }
    }
    keys.cov_hash = h.value();
  }
}

}  // namespace yardstick::ys
