#include "netio/frame.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/status.hpp"

namespace yardstick::netio {

namespace {

using bdd::BddManager;
using bdd::kFalse;
using bdd::kTrue;
using bdd::NodeIndex;

using Detail = ys::CorruptTraceError::Detail;

[[noreturn]] void truncated(const std::string& why) {
  throw ys::CorruptTraceError(Detail::Truncated, why, {.source = "trace delta"});
}

[[noreturn]] void corrupted(const std::string& why) {
  throw ys::CorruptTraceError(Detail::Corrupted, why, {.source = "trace delta"});
}

/// Bounds-checked cursor over an untrusted byte buffer. Underruns raise
/// Truncated — the delta was cut off — never a read past the end.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<uint8_t>(bytes_[off_++]);
  }
  uint32_t u32(const char* what) {
    need(4, what);
    const uint32_t v = get_u32(bytes_.data() + off_);
    off_ += 4;
    return v;
  }
  /// A section count must fit in the bytes that remain, or a flipped bit
  /// would drive reserve() into a memory bomb before one element is read.
  size_t count(const char* what, size_t element_bytes) {
    const uint32_t n = u32(what);
    if (static_cast<uint64_t>(n) * element_bytes > remaining()) {
      corrupted("implausible " + std::string(what) + " count " + std::to_string(n));
    }
    return n;
  }
  [[nodiscard]] size_t remaining() const { return bytes_.size() - off_; }

 private:
  void need(size_t n, const char* what) {
    if (bytes_.size() - off_ < n) {
      truncated(std::string("input ends inside ") + what);
    }
  }
  std::string_view bytes_;
  size_t off_ = 0;
};

/// Emits the BDD behind each root into a shared file-local node table,
/// children before parents. Reference maps are keyed per source manager so
/// one delta may carry sets from several managers (client-side batches
/// union caller-owned sets without importing them first).
class DeltaEmitter {
 public:
  uint32_t emit(const bdd::Bdd& root, std::vector<std::array<uint32_t, 3>>& out) {
    if (root.index() == kFalse || !root.valid()) return 0;
    if (root.index() == kTrue) return 1;
    const BddManager& mgr = *root.manager();
    auto& refs = refs_[&mgr];
    std::vector<std::pair<NodeIndex, bool>> stack{{root.index(), false}};
    while (!stack.empty()) {
      auto [n, expanded] = stack.back();
      stack.pop_back();
      if (n <= kTrue || refs.contains(n)) continue;
      const bdd::BddNode& node = mgr.node(n);
      if (!expanded) {
        stack.push_back({n, true});
        stack.push_back({node.low, false});
        stack.push_back({node.high, false});
        continue;
      }
      out.push_back({node.var, ref(refs, node.low), ref(refs, node.high)});
      refs.emplace(n, static_cast<uint32_t>(out.size() - 1) + 2);
    }
    return refs.at(root.index());
  }

 private:
  using RefMap = std::unordered_map<NodeIndex, uint32_t>;

  [[nodiscard]] static uint32_t ref(const RefMap& refs, NodeIndex n) {
    if (n == kFalse) return 0;
    if (n == kTrue) return 1;
    return refs.at(n);
  }

  std::unordered_map<const BddManager*, RefMap> refs_;
};

}  // namespace

void put_u8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint32_t get_u32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

uint64_t get_u64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "hello";
    case FrameType::HelloAck: return "hello-ack";
    case FrameType::Batch: return "batch";
    case FrameType::Ack: return "ack";
    case FrameType::Busy: return "busy";
    case FrameType::Bye: return "bye";
    case FrameType::ByeAck: return "bye-ack";
    case FrameType::Error: return "error";
  }
  return "?";
}

std::string encode_frame(FrameType type, uint64_t seq, std::string_view body) {
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size());
  put_u32(out, kFrameMagic);
  put_u8(out, kFrameVersion);
  put_u8(out, static_cast<uint8_t>(type));
  put_u64(out, seq);
  put_u32(out, static_cast<uint32_t>(body.size()));
  put_u64(out, ys::fnv1a64(body.data(), body.size()));
  out.append(body);
  return out;
}

DecodeResult decode_frame(std::string_view buffer) {
  DecodeResult r;
  if (buffer.size() < kFrameHeaderBytes) return r;  // NeedMore
  const char* p = buffer.data();
  if (get_u32(p) != kFrameMagic) {
    r.status = DecodeStatus::Corrupt;
    r.error = "bad frame magic (stream out of sync or not a yardstickd peer)";
    return r;
  }
  const auto version = static_cast<uint8_t>(p[4]);
  if (version != kFrameVersion) {
    r.status = DecodeStatus::Corrupt;
    r.error = "unsupported frame version " + std::to_string(version);
    return r;
  }
  const auto type = static_cast<uint8_t>(p[5]);
  if (type < static_cast<uint8_t>(FrameType::Hello) ||
      type > static_cast<uint8_t>(FrameType::Error)) {
    r.status = DecodeStatus::Corrupt;
    r.error = "unknown frame type " + std::to_string(type);
    return r;
  }
  const uint32_t body_len = get_u32(p + 14);
  if (body_len > kMaxFrameBody) {
    r.status = DecodeStatus::Corrupt;
    r.error = "implausible frame body length " + std::to_string(body_len);
    return r;
  }
  if (buffer.size() < kFrameHeaderBytes + body_len) return r;  // NeedMore
  const std::string_view body = buffer.substr(kFrameHeaderBytes, body_len);
  if (ys::fnv1a64(body.data(), body.size()) != get_u64(p + 18)) {
    r.status = DecodeStatus::Corrupt;
    r.error = "frame body checksum mismatch";
    return r;
  }
  r.status = DecodeStatus::Ok;
  r.frame.type = static_cast<FrameType>(type);
  r.frame.seq = get_u64(p + 6);
  r.frame.body.assign(body);
  r.consumed = kFrameHeaderBytes + body_len;
  return r;
}

std::string encode_trace_delta(const coverage::CoverageTrace& trace) {
  DeltaEmitter emitter;
  std::vector<std::array<uint32_t, 3>> nodes;
  std::vector<std::pair<packet::LocationId, uint32_t>> roots;
  for (const auto& [loc, ps] : trace.marked_packets().entries()) {
    roots.emplace_back(loc, emitter.emit(ps.raw(), nodes));
  }
  // Rules sorted so a delta's bytes are a canonical function of its
  // content (the in-memory set iterates in hash order).
  std::vector<uint32_t> rules;
  rules.reserve(trace.marked_rules().size());
  for (const net::RuleId rid : trace.marked_rules()) rules.push_back(rid.value);
  std::sort(rules.begin(), rules.end());

  std::string out;
  out.reserve(16 + nodes.size() * 9 + rules.size() * 4 + roots.size() * 8);
  put_u32(out, static_cast<uint32_t>(nodes.size()));
  for (const auto& [var, low, high] : nodes) {
    put_u8(out, static_cast<uint8_t>(var));
    put_u32(out, low);
    put_u32(out, high);
  }
  put_u32(out, static_cast<uint32_t>(rules.size()));
  for (const uint32_t rid : rules) put_u32(out, rid);
  put_u32(out, static_cast<uint32_t>(roots.size()));
  for (const auto& [loc, root] : roots) {
    put_u32(out, loc);
    put_u32(out, root);
  }
  return out;
}

coverage::CoverageTrace decode_trace_delta(std::string_view bytes, BddManager& mgr) {
  Reader in(bytes);
  const size_t node_count = in.count("node", 9);
  std::vector<NodeIndex> by_ref;  // file ref -> manager node index
  by_ref.reserve(node_count + 2);
  by_ref.push_back(kFalse);
  by_ref.push_back(kTrue);
  for (size_t i = 0; i < node_count; ++i) {
    const uint8_t var = in.u8("node list");
    const uint32_t low = in.u32("node list");
    const uint32_t high = in.u32("node list");
    if (var >= mgr.num_vars()) {
      corrupted("node variable " + std::to_string(var) + " out of range");
    }
    if (low >= by_ref.size() || high >= by_ref.size()) {
      // References may only point backwards; anything else could knit
      // cycles or dangling structure into the arena.
      corrupted("forward/out-of-range node reference at node " + std::to_string(i));
    }
    const auto level = [&](NodeIndex n) {
      return n <= kTrue ? mgr.num_vars() : mgr.node(n).var;
    };
    if (var >= level(by_ref[low]) || var >= level(by_ref[high])) {
      corrupted("variable-ordering violation at node " + std::to_string(i));
    }
    by_ref.push_back(mgr.make(var, by_ref[low], by_ref[high]));
  }

  coverage::CoverageTrace trace;
  const size_t rule_count = in.count("rule", 4);
  for (size_t i = 0; i < rule_count; ++i) {
    trace.mark_rule(net::RuleId{in.u32("rule list")});
  }
  const size_t loc_count = in.count("location", 8);
  for (size_t i = 0; i < loc_count; ++i) {
    const uint32_t loc = in.u32("location list");
    const uint32_t root = in.u32("location list");
    if (root >= by_ref.size()) {
      corrupted("location root reference " + std::to_string(root) + " out of range");
    }
    trace.mark_packet(loc, packet::PacketSet(bdd::Bdd(&mgr, by_ref[root])));
  }
  if (in.remaining() != 0) corrupted("trailing garbage after locations section");
  return trace;
}

uint64_t delta_event_count(std::string_view bytes) {
  Reader in(bytes);
  const size_t node_count = in.count("node", 9);
  for (size_t i = 0; i < node_count; ++i) {
    in.u8("node list");
    in.u32("node list");
    in.u32("node list");
  }
  const size_t rule_count = in.count("rule", 4);
  for (size_t i = 0; i < rule_count; ++i) in.u32("rule list");
  const size_t loc_count = in.count("location", 8);
  return rule_count + loc_count;
}

}  // namespace yardstick::netio
