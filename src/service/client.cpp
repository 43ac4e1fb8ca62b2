#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "netio/frame.hpp"

namespace yardstick::service {

namespace {

using netio::DecodeStatus;
using netio::Frame;
using netio::FrameType;

/// Upper bound on one retry's backoff, before jitter.
constexpr uint64_t kBackoffCapMs = 2000;

void sleep_ms(uint64_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

IngestClient::IngestClient(ClientOptions opts)
    : opts_(std::move(opts)),
      jitter_state_(opts_.jitter_seed != 0 ? opts_.jitter_seed : 1) {}

IngestClient::~IngestClient() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; the pending delta is simply lost, as
    // it would be if the process died here.
  }
}

uint64_t IngestClient::jitter_next() {
  // xorshift64: deterministic per seed, no global RNG state.
  uint64_t x = jitter_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  jitter_state_ = x;
  return x;
}

void IngestClient::backoff(uint32_t attempt) {
  const uint32_t shift = std::min(attempt, 16u);
  const uint64_t base =
      std::min<uint64_t>(kBackoffCapMs,
                         static_cast<uint64_t>(opts_.backoff_base_ms) << shift);
  // Up to +50% jitter so retrying shards do not stampede in lockstep.
  sleep_ms(base + (base > 0 ? jitter_next() % (base / 2 + 1) : 0));
}

void IngestClient::mark_packet(packet::LocationId location,
                               const packet::PacketSet& packets) {
  pending_.mark_packet(location, packets);
  ++pending_events_;
  maybe_autoflush();
}

void IngestClient::mark_packet(const packet::LocatedPacketSet& packets) {
  pending_.mark_packet(packets);
  ++pending_events_;
  maybe_autoflush();
}

void IngestClient::mark_rule(net::RuleId rule) {
  pending_.mark_rule(rule);
  ++pending_events_;
  maybe_autoflush();
}

void IngestClient::maybe_autoflush() {
  if (opts_.batch_events > 0 && pending_events_ >= opts_.batch_events) flush();
}

void IngestClient::drop_connection() {
  fd_.reset();
  greeted_ = false;
  recv_buf_.clear();
}

bool IngestClient::ensure_connected() {
  if (fd_.valid() && greeted_) return true;
  drop_connection();
  Fd fd = opts_.socket_path.empty()
              ? connect_tcp(opts_.tcp_host, opts_.tcp_port)
              : connect_unix(opts_.socket_path);
  if (!fd.valid()) return false;
  fd_ = std::move(fd);
  ++stats_.reconnects;
  std::string body;
  netio::put_u64(body, opts_.session_id);
  netio::put_u32(body, opts_.num_vars);
  const std::string hello = netio::encode_frame(FrameType::Hello, seq_, body);
  if (!io_write_full(fd_.get(), hello.data(), hello.size(), "net.write")) {
    drop_connection();
    return false;
  }
  Frame reply;
  if (!read_frame(reply) || reply.type != FrameType::HelloAck) {
    // An Error reply here (version or universe mismatch) is permanent,
    // but surfacing that is flush()'s job once attempts run out.
    drop_connection();
    return false;
  }
  greeted_ = true;
  return true;
}

bool IngestClient::read_frame(netio::Frame& out) {
  std::vector<char> chunk(64 * 1024);
  for (;;) {
    const netio::DecodeResult r = netio::decode_frame(recv_buf_);
    if (r.status == DecodeStatus::Ok) {
      recv_buf_.erase(0, r.consumed);
      out = r.frame;
      return true;
    }
    if (r.status == DecodeStatus::Corrupt) return false;
    const int ready = io_poll_in(fd_.get(), static_cast<int>(opts_.ack_timeout_ms));
    if (ready <= 0) return false;  // timeout or poll failure
    const ssize_t n = io_read(fd_.get(), chunk.data(), chunk.size(), "net.read");
    if (n <= 0) return false;  // daemon went away mid-reply
    recv_buf_.append(chunk.data(), static_cast<size_t>(n));
  }
}

IngestClient::SendOutcome IngestClient::send_batch(const std::string& payload,
                                                   uint32_t& retry_ms) {
  const std::string wire = netio::encode_frame(FrameType::Batch, seq_, payload);
  if (!io_write_full(fd_.get(), wire.data(), wire.size(), "net.write")) {
    return SendOutcome::Failed;
  }
  Frame reply;
  if (!read_frame(reply)) return SendOutcome::Failed;
  switch (reply.type) {
    case FrameType::Ack:
      return reply.seq == seq_ ? SendOutcome::Acked : SendOutcome::Failed;
    case FrameType::Busy:
      retry_ms = reply.body.size() >= 4 ? netio::get_u32(reply.body.data())
                                        : opts_.backoff_base_ms;
      return SendOutcome::Busy;
    default:
      return SendOutcome::Failed;  // Error frame or protocol confusion
  }
}

void IngestClient::flush() {
  if (pending_events_ == 0) return;
  const std::string payload = netio::encode_trace_delta(pending_);
  const size_t events = pending_events_;
  for (uint32_t attempt = 0; attempt < opts_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (!ensure_connected()) {
      backoff(attempt);
      continue;
    }
    uint32_t retry_ms = 0;
    switch (send_batch(payload, retry_ms)) {
      case SendOutcome::Acked:
        ++seq_;
        ++stats_.flushes;
        stats_.events_sent += events;
        pending_.clear();
        pending_events_ = 0;
        return;
      case SendOutcome::Busy:
        // The daemon's queue is full; honor its hint (plus jitter) and
        // resend on the same connection. Deliberately cheaper than the
        // failure backoff: the daemon is alive, just behind.
        ++stats_.busy_backoffs;
        sleep_ms(retry_ms + jitter_next() % (retry_ms / 2 + 1));
        break;
      case SendOutcome::Failed:
        // Ambiguous: the batch may or may not have been journaled before
        // the connection died. Resending is safe — the merge is a union.
        drop_connection();
        backoff(attempt);
        break;
    }
  }
  throw ys::IoError("batch not acknowledged after " +
                        std::to_string(opts_.max_attempts) + " attempts",
                    {.source = opts_.socket_path.empty()
                                   ? opts_.tcp_host + ":" + std::to_string(opts_.tcp_port)
                                   : opts_.socket_path});
}

void IngestClient::close() {
  flush();
  if (fd_.valid() && greeted_) {
    const std::string bye = netio::encode_frame(FrameType::Bye, seq_);
    if (io_write_full(fd_.get(), bye.data(), bye.size(), "net.write")) {
      Frame reply;
      (void)read_frame(reply);  // best-effort ByeAck; we are leaving anyway
    }
  }
  drop_connection();
}

}  // namespace yardstick::service
