// IngestClient — the test tool's side of yardstickd.
//
// Mirrors the CoverageTrace online API (mark_packet/mark_rule) but
// accumulates events into a pending delta and ships it to the daemon in
// batched frames. The client owns the full unreliable-transport policy:
//   * batches auto-flush at a size threshold (amortizes framing + RTT);
//   * an unacknowledged batch is kept and retried — with a fresh
//     connection if needed — under capped attempts and exponential
//     backoff with deterministic jitter (seeded xorshift, so tests
//     replay);
//   * a Busy (backpressure) frame sleeps for the daemon's retry-after
//     hint and resends;
//   * re-delivery after an ambiguous failure (e.g. the ack was lost, not
//     the batch) is safe because the daemon merges by union.
// Only when the attempt cap is exhausted does flush() throw ys::IoError —
// the pending delta stays intact, so the caller may retry later or fall
// back to the in-process CoverageTrace path.
#pragma once

#include <cstdint>
#include <string>

#include "coverage/trace.hpp"
#include "netio/frame.hpp"
#include "netmodel/network.hpp"
#include "packet/fields.hpp"
#include "packet/located_packet_set.hpp"
#include "service/io.hpp"

namespace yardstick::service {

struct ClientOptions {
  /// Unix-domain daemon socket ("" = use TCP instead).
  std::string socket_path;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;
  /// Session identity; shards of one logical test run that must merge
  /// deterministically use distinct ids (the daemon merges in id order).
  uint64_t session_id = 1;
  /// Auto-flush once this many mark events are pending (0 = manual
  /// flush only).
  size_t batch_events = 1024;
  /// How long to wait for the daemon's reply to one frame.
  uint32_t ack_timeout_ms = 5000;
  /// Attempts per batch before flush() gives up with ys::IoError.
  uint32_t max_attempts = 8;
  /// Exponential backoff: min(2 s, base << attempt) plus jitter.
  uint32_t backoff_base_ms = 10;
  /// Seed for the jitter PRNG (deterministic for tests; vary per shard).
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Must match the daemon's variable universe (checked at Hello).
  bdd::Var num_vars = packet::kNumHeaderBits;
};

struct ClientStats {
  uint64_t flushes = 0;        ///< Successful batch deliveries.
  uint64_t events_sent = 0;    ///< Mark events in acknowledged batches.
  uint64_t retries = 0;        ///< Re-sends after failure or lost ack.
  uint64_t busy_backoffs = 0;  ///< Busy frames honored.
  uint64_t reconnects = 0;     ///< Connections (re)established.
};

class IngestClient {
 public:
  explicit IngestClient(ClientOptions opts);
  /// Best-effort close(); never throws.
  ~IngestClient();

  IngestClient(const IngestClient&) = delete;
  IngestClient& operator=(const IngestClient&) = delete;

  /// Online API — identical shape to CoverageTrace. May flush (and thus
  /// throw ys::IoError) when the pending batch reaches batch_events.
  void mark_packet(packet::LocationId location, const packet::PacketSet& packets);
  void mark_packet(const packet::LocatedPacketSet& packets);
  void mark_rule(net::RuleId rule);

  /// Deliver the pending delta. Retries per the backoff policy; throws
  /// ys::IoError once max_attempts is exhausted (pending events are
  /// preserved for a later retry).
  void flush();

  /// flush() + polite Bye. Safe to call repeatedly.
  void close();

  [[nodiscard]] size_t pending_events() const { return pending_events_; }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }

 private:
  enum class SendOutcome : uint8_t { Acked, Busy, Failed };

  void maybe_autoflush();
  bool ensure_connected();  ///< connect + Hello/HelloAck; false on failure
  SendOutcome send_batch(const std::string& payload, uint32_t& retry_ms);
  bool read_frame(netio::Frame& out);
  void drop_connection();
  void backoff(uint32_t attempt);
  [[nodiscard]] uint64_t jitter_next();

  ClientOptions opts_;
  Fd fd_;
  bool greeted_ = false;
  std::string recv_buf_;
  coverage::CoverageTrace pending_;
  size_t pending_events_ = 0;
  uint64_t seq_ = 1;
  uint64_t jitter_state_;
  ClientStats stats_;
};

}  // namespace yardstick::service
