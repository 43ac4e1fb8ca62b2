#include "service/wal.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.hpp"
#include "common/fnv1a.hpp"
#include "common/status.hpp"
#include "netio/frame.hpp"

namespace yardstick::service {

namespace {

constexpr const char* kHeader = "yardstick-wal v1\n";
constexpr size_t kHeaderBytes = 17;
constexpr size_t kRecordHeaderBytes = 12;  // u32 len + u64 checksum

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw ys::IoError(what + ": " + std::strerror(errno), {.source = path});
}

}  // namespace

void Wal::open_for_append() {
  Fd fd(::open(opts_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644));
  if (!fd.valid()) io_fail("cannot open journal", opts_.path);
  struct stat st = {};
  if (::fstat(fd.get(), &st) != 0) io_fail("cannot stat journal", opts_.path);
  if (st.st_size == 0) {
    if (!io_write_full(fd.get(), kHeader, kHeaderBytes, "wal.write")) {
      io_fail("cannot write journal header", opts_.path);
    }
    if (::fsync(fd.get()) != 0) io_fail("cannot fsync journal header", opts_.path);
    bytes_ = kHeaderBytes;
  } else {
    bytes_ = static_cast<uint64_t>(st.st_size);
  }
  fd_ = std::move(fd);
}

void Wal::append(std::string_view payload) {
  if (!fd_.valid()) throw ys::IoError("journal not open", {.source = opts_.path});
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  netio::put_u32(record, static_cast<uint32_t>(payload.size()));
  netio::put_u64(record, ys::fnv1a64(payload.data(), payload.size()));
  record.append(payload);
  // One write_full for the whole record: a crash (or injected fault)
  // mid-way leaves a torn tail that replay() detects and discards.
  if (!io_write_full(fd_.get(), record.data(), record.size(), "wal.write")) {
    io_fail("journal append failed", opts_.path);
  }
  if (opts_.fsync) {
    if (fault::active()) fault::fire("wal.append.fsync");
    if (::fsync(fd_.get()) != 0) io_fail("journal fsync failed", opts_.path);
  }
  bytes_ += record.size();
}

void Wal::reset() {
  fd_.reset();
  Fd fd(::open(opts_.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  if (!fd.valid()) io_fail("cannot truncate journal", opts_.path);
  if (!io_write_full(fd.get(), kHeader, kHeaderBytes, "wal.write")) {
    io_fail("cannot rewrite journal header", opts_.path);
  }
  if (::fsync(fd.get()) != 0) io_fail("cannot fsync truncated journal", opts_.path);
  fd_ = std::move(fd);
  bytes_ = kHeaderBytes;
}

Wal::ReplayStats Wal::replay(const std::string& path,
                             const std::function<void(std::string_view)>& apply) {
  ReplayStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (::access(path.c_str(), F_OK) != 0) return stats;  // no journal yet
    throw ys::IoError("cannot open journal for replay", {.source = path});
  }
  char header[kHeaderBytes];
  if (!in.read(header, kHeaderBytes) ||
      std::memcmp(header, kHeader, kHeaderBytes) != 0) {
    // Not a journal (or torn before the header finished): nothing usable.
    stats.torn_tail = true;
    return stats;
  }
  std::string payload;
  for (;;) {
    char rec_header[kRecordHeaderBytes];
    in.read(rec_header, kRecordHeaderBytes);
    if (in.gcount() == 0 && in.eof()) break;  // clean end
    if (in.gcount() < static_cast<std::streamsize>(kRecordHeaderBytes)) {
      stats.torn_tail = true;  // crash mid record-header
      break;
    }
    const uint32_t len = netio::get_u32(rec_header);
    const uint64_t checksum = netio::get_u64(rec_header + 4);
    if (len > netio::kMaxFrameBody) {
      stats.bad_tail = true;  // a flipped length bit must not drive resize()
      break;
    }
    payload.resize(len);
    in.read(payload.data(), len);
    if (in.gcount() < static_cast<std::streamsize>(len)) {
      stats.torn_tail = true;  // crash mid payload
      break;
    }
    if (ys::fnv1a64(payload.data(), payload.size()) != checksum) {
      stats.bad_tail = true;  // bit rot or a torn rewrite; stop trusting
      break;
    }
    apply(payload);
    ++stats.records;
    stats.bytes += kRecordHeaderBytes + len;
  }
  if (in.bad()) throw ys::IoError("journal read failed", {.source = path});
  return stats;
}

}  // namespace yardstick::service
