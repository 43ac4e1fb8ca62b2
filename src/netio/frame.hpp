// Binary wire frames for the trace-ingestion daemon (yardstickd).
//
// The online phase's two calls, markPacket/markRule, become *events*
// batched into compact trace deltas and shipped to a long-running daemon
// (src/service) over a Unix-domain or TCP socket. The framing layer is
// engineered for hostile transport conditions: every frame is
// length-prefixed (a reader never trusts the peer for buffer sizes),
// versioned (a stale client fails loudly, not subtly) and checksummed
// with the same FNV-1a 64 trailer idiom as persist-v2 (a torn or
// bit-flipped frame is detected before one byte of it is interpreted).
//
// Frame layout (little-endian, 26-byte header):
//   u32 magic "YSF1"   u8 version   u8 type   u64 seq
//   u32 body_len       u64 fnv1a(body)        body bytes
//
// Frame types:
//   Hello/HelloAck  session handshake (body: u64 session id, u32 num_vars)
//   Batch           one trace delta (body: binary delta, see below)
//   Ack             daemon accepted + journaled the batch (body: u64 seq)
//   Busy            explicit backpressure: ingress queue full; body carries
//                   a u32 retry-after hint in ms. The client backs off and
//                   resends — safe because delta merge is a union.
//   Bye/ByeAck      graceful session close
//   Error           peer rejected the frame (body: reason text); the
//                   connection is closed and the client reconnects.
//
// Batch body — binary trace delta (the wire twin of persist-v2):
//   u32 node_count     node_count x (u8 var, u32 low, u32 high)
//   u32 rule_count     rule_count x u32 rule_id
//   u32 loc_count      loc_count  x (u32 location, u32 root_ref)
// Node references are file-local: 0/1 are the terminals, n>=2 is emitted
// node n-2. The decoder validates exactly like the persist reader —
// plausible counts before any reserve(), backwards-only references,
// strict variable ordering — because the peer is untrusted by design.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "coverage/trace.hpp"

namespace yardstick::netio {

// --- integer packing, shared with the WAL (checksums: common/fnv1a.hpp) ---

void put_u8(std::string& out, uint8_t v);
void put_u32(std::string& out, uint32_t v);
void put_u64(std::string& out, uint64_t v);
[[nodiscard]] uint32_t get_u32(const char* p);
[[nodiscard]] uint64_t get_u64(const char* p);

// --- frames ------------------------------------------------------------

enum class FrameType : uint8_t {
  Hello = 1,
  HelloAck = 2,
  Batch = 3,
  Ack = 4,
  Busy = 5,
  Bye = 6,
  ByeAck = 7,
  Error = 8,
};

[[nodiscard]] const char* to_string(FrameType t);

inline constexpr uint32_t kFrameMagic = 0x31465359;  // "YSF1" little-endian
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 26;
/// Upper bound on a frame body; anything larger is treated as corruption
/// (a flipped length bit must not drive the reader into a memory bomb).
inline constexpr uint32_t kMaxFrameBody = 64u << 20;

struct Frame {
  FrameType type = FrameType::Error;
  uint64_t seq = 0;
  std::string body;
};

/// One complete frame, ready to write to a socket.
[[nodiscard]] std::string encode_frame(FrameType type, uint64_t seq,
                                       std::string_view body = {});

enum class DecodeStatus : uint8_t {
  Ok,        ///< One frame decoded; `consumed` bytes may be discarded.
  NeedMore,  ///< The buffer holds only a frame prefix (short read so far).
  Corrupt,   ///< Bad magic/version/length/checksum; close the connection.
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::NeedMore;
  Frame frame;
  size_t consumed = 0;
  std::string error;  ///< Set when status == Corrupt.
};

/// Try to decode the first frame in `buffer`. Never throws: torn input is
/// NeedMore (wait for more bytes), wrong input is Corrupt.
[[nodiscard]] DecodeResult decode_frame(std::string_view buffer);

// --- trace deltas ------------------------------------------------------

/// Encode a trace as a binary delta. Each located packet set is walked
/// through its own BddManager, so a trace whose sets span managers (e.g. a
/// client batching caller-owned sets) encodes without an import step.
[[nodiscard]] std::string encode_trace_delta(const coverage::CoverageTrace& trace);

/// Decode and validate a delta, rebuilding its BDDs inside `mgr`. Throws
/// CorruptTraceError (Truncated for input that ran out, Corrupted for
/// input whose bytes are wrong) exactly like the persist reader.
[[nodiscard]] coverage::CoverageTrace decode_trace_delta(std::string_view bytes,
                                                         bdd::BddManager& mgr);

}  // namespace yardstick::netio
