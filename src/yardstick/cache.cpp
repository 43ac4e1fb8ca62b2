#include "yardstick/cache.hpp"

#include <sys/stat.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"
#include "yardstick/persist.hpp"

namespace yardstick::ys {

using packet::PacketSet;

namespace {

constexpr const char* kHeader = "yardstick-cache v2";
constexpr const char* kSource = "yardstick cache";

/// mkdir -p: create every missing component, tolerate the existing ones.
void mkdir_p(const std::string& dir) {
  if (dir.empty() || dir == "." || dir == "/") return;
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    const size_t slash = dir.find('/', pos);
    partial = slash == std::string::npos ? dir : dir.substr(0, slash);
    if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      throw IoError("cannot create cache directory", {.source = partial});
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
}

/// One "<16-hex>" hash token.
uint64_t read_hash(FormatReader& reader, const char* what) {
  const std::string_view tok = reader.token();
  if (tok.empty()) {
    reader.fail_truncated(std::string("input ends inside ") + what);
  }
  if (tok.size() != 16 || tok.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    reader.fail_corrupted(std::string("malformed hash '") + std::string(tok) + "' in " +
                          what);
  }
  return std::strtoull(std::string(tok).c_str(), nullptr, 16);
}

struct MatchRecord {
  uint32_t acl_permitted = 0;
  std::vector<uint32_t> sets;  // set_ref per position
};

size_t device_rule_count(const net::Network& network, net::DeviceId dev) {
  return network.table(dev, net::TableKind::Acl).size() +
         network.table(dev, net::TableKind::Fib).size();
}

}  // namespace

uint64_t options_fingerprint(unsigned threads, size_t max_bdd_nodes, bool has_deadline) {
  ContentHasher h;
  h.u64(1);  // fingerprint schema version
  h.u64(threads);
  h.u64(max_bdd_nodes);
  h.u64(has_deadline ? 1 : 0);
  return h.value();
}

IncrementalSession::IncrementalSession(bdd::BddManager& mgr, const net::Network& network,
                                       std::string cache_dir, uint64_t options_hash)
    : mgr_(mgr),
      network_(network),
      path_(std::move(cache_dir) + "/coverage.cache"),
      options_hash_(options_hash) {
  obs::Span span("cache.load", "offline");
  {
    obs::Span keys_span("cache.load.keys", "offline");
    keys_ = compute_table_keys(network);
  }
  stats_.devices = network.device_count();
  load();
  span.arg("match_hits", stats_.match_hits);
}

void IncrementalSession::add_trace(const coverage::CoverageTrace& trace) {
  obs::Span span("cache.trace_keys", "offline");
  add_trace_keys(network_, trace, keys_);
  if (!stats_.loaded) return;
  // Same reuse rule as the match records: key match AND positional shape.
  auto prefill = std::make_unique<coverage::CoverPrefill>();
  prefill->device_hit.assign(network_.device_count(), 0);
  prefill->covered.resize(network_.rule_count());
  for (const net::Device& dev : network_.devices()) {
    const auto it = cover_records_.find(keys_[dev.id.value].cov_hash);
    if (it == cover_records_.end() || it->second.size() != device_rule_count(network_, dev.id)) {
      continue;
    }
    size_t pos = 0;
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      for (const net::RuleId rid : network_.table(dev.id, table)) {
        prefill->covered[rid.value] = it->second[pos++];
      }
    }
    prefill->device_hit[dev.id.value] = 1;
    ++stats_.cover_hits;
  }
  cover_records_.clear();
  stats_.invalidated = stats_.cover_misses();
  if (stats_.cover_hits > 0) cover_prefill_ = std::move(prefill);
  span.arg("cover_hits", stats_.cover_hits);
}

void IncrementalSession::load() {
  try {
    std::string text;
    try {
      text = read_text_file(path_);
    } catch (const IoError&) {
      stats_.fallback_reason = "no cache file";
      return;
    }
    const size_t header_end = text.find('\n');
    if (header_end == std::string::npos || text.substr(0, header_end) != kHeader) {
      stats_.fallback_reason = "unrecognized cache header (format version mismatch)";
      return;
    }
    obs::Span parse_span("cache.load.parse", "offline");
    const std::string body = checked_body(text, kSource);
    // Scan past the validated header line.
    FormatReader reader(std::string_view(body).substr(header_end + 1), kSource);

    reader.keyword("options");
    if (read_hash(reader, "options fingerprint") != options_hash_) {
      stats_.fallback_reason = "engine options changed";
      return;
    }
    reader.keyword("vars");
    if (reader.u32("variable count") != mgr_.num_vars()) {
      stats_.fallback_reason = "BDD variable universe changed";
      return;
    }

    // Everything below materializes nodes into the engine's manager; a
    // parse failure past this point leaves orphan (unreferenced) nodes in
    // the arena, which is safe — this engine has no GC and the rebuild
    // proceeds as if the cache were absent.
    const coverage::NodeList nodes = [&] {
      obs::Span nodes_span("cache.load.nodes", "offline");
      return reader.node_section(mgr_);
    }();
    const auto checked_ref = [&](uint32_t ref, const char* what) {
      if (ref >= nodes.size()) {
        reader.fail_corrupted(std::string("node reference out of range in ") + what);
      }
      return nodes[ref];
    };

    reader.keyword("match-records");
    std::unordered_map<uint64_t, MatchRecord> match_records;
    const size_t match_count = reader.count("match-record");
    for (size_t i = 0; i < match_count; ++i) {
      const uint64_t hash = read_hash(reader, "match-record key");
      MatchRecord rec;
      rec.sets.resize(reader.count("match-record rule"));
      rec.acl_permitted = reader.u32("match-record space");
      for (uint32_t& set : rec.sets) set = reader.u32("match-record refs");
      match_records.emplace(hash, std::move(rec));
    }

    reader.keyword("cover-records");
    std::unordered_map<uint64_t, std::vector<PacketSet>> cover_records;
    const size_t cover_count = reader.count("cover-record");
    for (size_t i = 0; i < cover_count; ++i) {
      const uint64_t hash = read_hash(reader, "cover-record key");
      const size_t rules = reader.count("cover-record rule");
      std::vector<PacketSet> sets(rules);
      for (PacketSet& set : sets) {
        set = PacketSet(
            bdd::Bdd(&mgr_, checked_ref(reader.u32("cover-record refs"), "cover-record")));
      }
      cover_records.emplace(hash, std::move(sets));
    }
    reader.expect_end("cover-records");

    // Key lookup: a device reuses a record iff its content hash matches
    // AND the positional shape agrees (a hash collision across different
    // rule counts would otherwise misassign sets).
    const size_t num_rules = network_.rule_count();
    auto match_prefill = std::make_unique<dataplane::MatchPrefill>();
    match_prefill->device_hit.assign(network_.device_count(), 0);
    match_prefill->match_sets.resize(num_rules);
    match_prefill->acl_permitted.resize(network_.device_count());

    for (const net::Device& dev : network_.devices()) {
      const auto mit = match_records.find(keys_[dev.id.value].fib_hash);
      if (mit == match_records.end() ||
          mit->second.sets.size() != device_rule_count(network_, dev.id)) {
        continue;
      }
      const MatchRecord& rec = mit->second;
      size_t pos = 0;
      for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
        for (const net::RuleId rid : network_.table(dev.id, table)) {
          match_prefill->match_sets[rid.value] =
              PacketSet(bdd::Bdd(&mgr_, checked_ref(rec.sets[pos++], "match-record")));
        }
      }
      match_prefill->acl_permitted[dev.id.value] =
          PacketSet(bdd::Bdd(&mgr_, checked_ref(rec.acl_permitted, "match-record")));
      match_prefill->device_hit[dev.id.value] = 1;
      ++stats_.match_hits;
    }

    stats_.loaded = true;
    if (stats_.match_hits > 0) match_prefill_ = std::move(match_prefill);
    cover_records_ = std::move(cover_records);
  } catch (const StatusError& e) {
    // Corrupt/truncated cache, I/O failure, or a resource budget tripping
    // while materializing nodes: all degrade to a full rebuild.
    match_prefill_.reset();
    cover_records_.clear();
    stats_ = CacheStats{};
    stats_.devices = network_.device_count();
    stats_.fallback_reason = e.what();
  }
}

void IncrementalSession::save(const dataplane::MatchSetIndex& index,
                              const coverage::CoveredSets& covered) {
  if (index.truncated() || covered.truncated()) {
    // A truncated run holds partial sets; caching them would poison every
    // future incremental run with silent under-reporting.
    stats_.save_error = "run truncated by resource budget; cache not written";
    return;
  }
  if (stats_.loaded && stats_.match_hits == stats_.devices &&
      stats_.cover_hits == stats_.devices) {
    return;  // every device hit: the file on disk is already current
  }
  obs::Span span("cache.save", "offline");
  try {
    NodeEmitter emitter(mgr_);
    std::vector<std::array<uint32_t, 3>> nodes;
    const auto ref_of = [&](const PacketSet& ps) {
      return ps.valid() ? emitter.emit(ps.raw().index(), nodes) : 0u;
    };

    obs::Span emit_span("cache.save.emit", "offline");
    // Content-addressed record streams, deduplicated by key: devices with
    // identical inputs (every ToR of a homogeneous pod) share one record.
    std::string match_out, cover_out;
    size_t match_count = 0, cover_count = 0;
    std::unordered_set<uint64_t> match_seen, cover_seen;
    for (const net::Device& dev : network_.devices()) {
      const DeviceKeys& keys = keys_[dev.id.value];
      if (match_seen.insert(keys.fib_hash).second) {
        match_out += hash_hex(keys.fib_hash);
        match_out += ' ';
        append_uint(match_out, device_rule_count(network_, dev.id));
        match_out += ' ';
        append_uint(match_out, ref_of(index.acl_permitted_space(dev.id)));
        match_out += '\n';
        for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
          for (const net::RuleId rid : network_.table(dev.id, table)) {
            append_uint(match_out, ref_of(index.match_set(rid)));
            match_out += '\n';
          }
        }
        ++match_count;
      }
      if (cover_seen.insert(keys.cov_hash).second) {
        cover_out += hash_hex(keys.cov_hash);
        cover_out += ' ';
        append_uint(cover_out, device_rule_count(network_, dev.id));
        cover_out += '\n';
        for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
          for (const net::RuleId rid : network_.table(dev.id, table)) {
            append_uint(cover_out, ref_of(covered.covered(rid)));
            cover_out += '\n';
          }
        }
        ++cover_count;
      }
    }

    std::string out;
    out += kHeader;
    out += '\n';
    out += "options ";
    out += hash_hex(options_hash_);
    out += '\n';
    out += "vars ";
    append_uint(out, mgr_.num_vars());
    out += '\n';
    write_node_section(out, nodes);
    out += "match-records ";
    append_uint(out, match_count);
    out += '\n';
    out += match_out;
    out += "cover-records ";
    append_uint(out, cover_count);
    out += '\n';
    out += cover_out;

    const size_t slash = path_.find_last_of('/');
    if (slash != std::string::npos) mkdir_p(path_.substr(0, slash));
    {
      obs::Span write_span("cache.save.write", "offline");
      atomic_write_file(path_, with_checksum(std::move(out)));
    }
    stats_.saved = true;
  } catch (const std::exception& e) {
    // The engine's results are valid regardless; a failed save only costs
    // the next run its warm start.
    stats_.save_error = e.what();
  }
}

}  // namespace yardstick::ys
