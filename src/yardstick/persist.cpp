#include "yardstick/persist.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <utility>

#include "common/fault.hpp"
#include "common/fnv1a.hpp"

namespace yardstick::ys {

namespace {

using bdd::Bdd;
using bdd::BddManager;
using bdd::kFalse;
using bdd::kTrue;
using bdd::NodeIndex;

using Detail = CorruptTraceError::Detail;

constexpr const char* kHeaderV1 = "yardstick-trace v1";
constexpr const char* kHeaderV2 = "yardstick-trace v2";
constexpr const char* kTraceSource = "yardstick trace";

}  // namespace

std::string hash_hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string with_checksum(std::string body) {
  body += "checksum " + hash_hex(fnv1a64(body.data(), body.size())) + "\n";
  return body;
}

std::string checked_body(const std::string& text, const char* source) {
  // Integrity trailer: "checksum <16-hex>" over every preceding byte.
  const size_t pos = text.rfind("\nchecksum ");
  if (pos == std::string::npos) {
    throw CorruptTraceError(Detail::Truncated,
                            "missing checksum trailer (file cut off before the end)",
                            {.source = source});
  }
  const size_t covered = pos + 1;  // includes the newline before "checksum"
  std::istringstream trailer(text.substr(covered));
  std::string keyword, hex;
  trailer >> keyword >> hex;
  if (hex.size() != 16 || hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw CorruptTraceError(Detail::Corrupted, "malformed checksum trailer '" + hex + "'",
                            {.source = source});
  }
  std::string rest;
  if (trailer >> rest) {
    throw CorruptTraceError(Detail::Corrupted, "trailing garbage after checksum trailer",
                            {.source = source});
  }
  if (hash_hex(fnv1a64(text.data(), covered)) != hex) {
    throw CorruptTraceError(Detail::Corrupted,
                            "checksum mismatch (content was altered after writing)",
                            {.source = source});
  }
  return text.substr(0, covered);
}

uint32_t NodeEmitter::emit(NodeIndex root, std::vector<std::array<uint32_t, 3>>& out) {
  if (root == kFalse) return 0;
  if (root == kTrue) return 1;
  // Emitted refs start at 2, so 0 doubles as the "not yet emitted" mark.
  if (refs_.size() < mgr_.arena_size()) refs_.resize(mgr_.arena_size(), 0);
  if (refs_[root] != 0) return refs_[root];
  // Iterative post-order so children are always emitted first.
  std::vector<std::pair<NodeIndex, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    if (n <= kTrue || refs_[n] != 0) continue;
    const bdd::BddNode& node = mgr_.node(n);
    if (!expanded) {
      stack.push_back({n, true});
      stack.push_back({node.low, false});
      stack.push_back({node.high, false});
      continue;
    }
    out.push_back({node.var, ref(node.low), ref(node.high)});
    refs_[n] = static_cast<uint32_t>(out.size() - 1) + 2;
  }
  return refs_[root];
}

uint32_t NodeEmitter::ref(NodeIndex n) const {
  if (n == kFalse) return 0;
  if (n == kTrue) return 1;
  return refs_[n];
}

void FormatReader::fail_truncated(const std::string& why) const {
  throw CorruptTraceError(Detail::Truncated, why, {.source = source_});
}

void FormatReader::fail_corrupted(const std::string& why) const {
  throw CorruptTraceError(Detail::Corrupted, why, {.source = source_});
}

void FormatReader::skip_ws() {
  while (pos_ < body_.size()) {
    const char c = body_[pos_];
    if (c != ' ' && c != '\n' && c != '\t' && c != '\r') break;
    ++pos_;
  }
}

std::string_view FormatReader::token() {
  skip_ws();
  const size_t start = pos_;
  while (pos_ < body_.size()) {
    const char c = body_[pos_];
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') break;
    ++pos_;
  }
  return body_.substr(start, pos_ - start);
}

uint64_t FormatReader::u64(const char* what) {
  const std::string_view tok = token();
  if (tok.empty()) fail_truncated(std::string("input ends inside ") + what);
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    fail_corrupted(std::string("non-numeric value in ") + what);
  }
  return value;
}

uint32_t FormatReader::u32(const char* what) {
  const uint64_t v = u64(what);
  if (v > UINT32_MAX) fail_corrupted(std::string("value out of 32-bit range in ") + what);
  return static_cast<uint32_t>(v);
}

size_t FormatReader::count(const char* what) {
  // Two bytes per element ("0 " etc.) is the tightest possible encoding.
  const uint64_t n = u64(what);
  if (n > body_.size() / 2 + 1) {
    fail_corrupted(std::string("implausible ") + what + " count " + std::to_string(n));
  }
  return static_cast<size_t>(n);
}

void FormatReader::keyword(const char* kw) {
  const std::string_view word = token();
  if (word.empty()) fail_truncated(std::string("missing '") + kw + "' section");
  if (word != kw) {
    fail_corrupted("expected '" + std::string(kw) + "' section, found '" +
                   std::string(word) + "'");
  }
}

void FormatReader::expect_end(const char* what) {
  if (!token().empty()) {
    fail_corrupted(std::string("trailing garbage after ") + what);
  }
}

coverage::NodeList FormatReader::node_section(BddManager& mgr) {
  keyword("nodes");
  const size_t node_count = count("node");
  // The header announces the section size: pre-grow the arena and unique
  // table once instead of rehash-doubling through a bulk rebuild.
  mgr.reserve_nodes(node_count);
  coverage::NodeList nodes(mgr, node_count, source_);
  for (size_t i = 0; i < node_count; ++i) {
    const uint32_t var = u32("node list");
    const uint32_t low = u32("node list");
    const uint32_t high = u32("node list");
    nodes.add(var, low, high);
  }
  return nodes;
}

void append_uint(std::string& out, uint64_t v) {
  char buf[20];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<size_t>(ptr - buf));
}

void write_node_section(std::string& out,
                        const std::vector<std::array<uint32_t, 3>>& nodes) {
  // ~4 digits per field at realistic arena sizes; reserving once keeps the
  // append loop allocation-free on multi-megabyte sections.
  out.reserve(out.size() + 16 + nodes.size() * 18);
  out += "nodes ";
  append_uint(out, nodes.size());
  out += '\n';
  for (const auto& [var, low, high] : nodes) {
    append_uint(out, var);
    out += ' ';
    append_uint(out, low);
    out += ' ';
    append_uint(out, high);
    out += '\n';
  }
}

std::string serialize_trace(const coverage::CoverageTrace& trace, BddManager& mgr) {
  NodeEmitter emitter(mgr);
  std::vector<std::array<uint32_t, 3>> nodes;
  std::vector<std::pair<packet::LocationId, uint32_t>> roots;
  for (const auto& [loc, ps] : trace.marked_packets().entries()) {
    roots.emplace_back(loc, emitter.emit(ps.raw().index(), nodes));
  }

  std::string out;
  out += kHeaderV2;
  out += '\n';
  write_node_section(out, nodes);
  // Rules are kept in an unordered_set; emit them sorted so the same
  // trace always serializes to the same bytes. Canonical output is what
  // lets crash-recovery checks compare snapshot files directly.
  std::vector<uint32_t> rules;
  rules.reserve(trace.marked_rules().size());
  for (const net::RuleId rid : trace.marked_rules()) rules.push_back(rid.value);
  std::sort(rules.begin(), rules.end());
  out += "rules ";
  append_uint(out, rules.size());
  out += '\n';
  for (const uint32_t rid : rules) {
    append_uint(out, rid);
    out += '\n';
  }
  out += "locations ";
  append_uint(out, roots.size());
  out += '\n';
  for (const auto& [loc, root] : roots) {
    append_uint(out, static_cast<uint64_t>(loc));
    out += ' ';
    append_uint(out, root);
    out += '\n';
  }

  return with_checksum(std::move(out));
}

coverage::CoverageTrace deserialize_trace(const std::string& text, BddManager& mgr) {
  if (text.empty()) {
    throw CorruptTraceError(Detail::Truncated, "empty input", {.source = kTraceSource});
  }
  const size_t header_end = text.find('\n');
  const std::string header =
      text.substr(0, header_end == std::string::npos ? text.size() : header_end);
  const bool v2 = header == kHeaderV2;
  if (!v2 && header != kHeaderV1) {
    throw CorruptTraceError(Detail::Corrupted, "unrecognized header '" + header + "'",
                            {.source = kTraceSource});
  }

  const std::string body = v2 ? checked_body(text, kTraceSource) : text;
  // Scan past the (validated) header line.
  std::string_view rest(body);
  rest = header_end == std::string::npos ? std::string_view{}
                                         : rest.substr(header_end + 1);
  FormatReader reader(rest, kTraceSource);

  const coverage::NodeList nodes = reader.node_section(mgr);

  coverage::CoverageTrace trace;
  reader.keyword("rules");
  const size_t rule_count = reader.count("rule");
  for (size_t i = 0; i < rule_count; ++i) {
    trace.mark_rule(net::RuleId{reader.u32("rule list")});
  }

  reader.keyword("locations");
  const size_t location_count = reader.count("location");
  for (size_t i = 0; i < location_count; ++i) {
    const packet::LocationId loc = reader.u32("location list");
    const uint32_t root = reader.u32("location list");
    trace.mark_packet(loc, packet::PacketSet(Bdd(&mgr, nodes.root(root))));
  }

  if (v2) reader.expect_end("locations section");
  return trace;
}

namespace {

/// write(2) the whole buffer, retrying short writes and EINTR.
bool write_all(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// Directory containing `path` ("." for a bare filename) — the directory
/// whose entry the rename mutates, and therefore the one to fsync.
std::string parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Open a staging file that no concurrent saver can be holding: the name
/// carries the pid plus a process-wide sequence number, and O_EXCL makes
/// even a recycled-pid collision (stale file from a crashed process) pick
/// the next suffix instead of truncating someone's in-flight write.
int open_exclusive_temp(const std::string& path, std::string& tmp_out) {
  static std::atomic<uint64_t> sequence{0};
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint64_t seq = sequence.fetch_add(1, std::memory_order_relaxed);
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(seq);
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd >= 0) {
      tmp_out = std::move(tmp);
      return fd;
    }
    if (errno != EEXIST) {
      throw IoError("cannot open for writing", {.source = tmp});
    }
  }
  throw IoError("cannot create unique temp file (64 collisions)", {.source = path});
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  // Crash-safe commit: write + fsync a sibling temp file, rename it over
  // the destination, then fsync the parent directory. rename(2) is atomic
  // within a filesystem, so `path` either keeps its old content or holds
  // the complete new bytes; the two fsyncs make that also hold across
  // power loss — without them the rename can hit disk before the data
  // (leaving a committed-but-empty file), or evaporate entirely.
  std::string tmp;
  int fd = open_exclusive_temp(path, tmp);
  try {
    const bool wrote = write_all(fd, content.data(), content.size());
    if (fault::active()) fault::fire("persist.save.write");
    if (!wrote) throw IoError("write failed", {.source = tmp});
    if (fault::active()) fault::fire("persist.save.fsync");
    if (::fsync(fd) != 0) throw IoError("fsync failed", {.source = tmp});
    if (::close(fd) != 0) {
      fd = -1;  // closed even on error; do not close twice
      throw IoError("close failed", {.source = tmp});
    }
    fd = -1;
    if (fault::active()) fault::fire("persist.save.commit");
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw IoError("cannot rename temp file into place", {.source = path});
    }
  } catch (...) {
    if (fd >= 0) ::close(fd);
    std::remove(tmp.c_str());
    throw;
  }
  // Past the rename: the destination is committed, so a durability
  // failure below must not delete anything — report it and let the
  // caller decide (the daemon treats it like any other failed save).
  const std::string dir = parent_dir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) throw IoError("cannot open parent directory for fsync", {.source = dir});
  bool dir_ok = true;
  try {
    if (fault::active()) fault::fire("persist.save.dirsync");
    dir_ok = ::fsync(dfd) == 0;
  } catch (...) {
    ::close(dfd);
    throw;
  }
  ::close(dfd);
  if (!dir_ok) throw IoError("directory fsync failed", {.source = dir});
}

void save_trace(const std::string& path, const coverage::CoverageTrace& trace,
                BddManager& mgr) {
  // Serialize before touching the filesystem: an exhausted budget or a
  // bad trace must not cost us the temp file dance.
  atomic_write_file(path, serialize_trace(trace, mgr));
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open", {.source = path});
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw IoError("read failed", {.source = path});
  return buffer.str();
}

coverage::CoverageTrace load_trace(const std::string& path, BddManager& mgr) {
  const std::string text = read_text_file(path);
  try {
    return deserialize_trace(text, mgr);
  } catch (const CorruptTraceError& e) {
    // Re-raise with the file path as the input source.
    throw CorruptTraceError(e.detail(), e.bare_message(), {.source = path});
  }
}

}  // namespace yardstick::ys
