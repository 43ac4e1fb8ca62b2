// Wire-frame and trace-delta codec tests (src/netio/frame.*).
//
// The framing layer fronts an untrusted transport: these tests drive the
// decoder through every hostile shape — torn prefixes byte by byte, bit
// flips in header and body, implausible lengths — and pin down the
// canonical-bytes property the crash-recovery story depends on.
#include <gtest/gtest.h>

#include <string>

#include "common/status.hpp"
#include "netio/frame.hpp"
#include "packet/fields.hpp"
#include "packet/packet_set.hpp"
#include "yardstick/persist.hpp"

namespace yardstick {
namespace {

using netio::DecodeResult;
using netio::DecodeStatus;
using netio::FrameType;
using packet::Ipv4Prefix;
using packet::PacketSet;

TEST(FrameTest, RoundTripsEveryFrameType) {
  for (const FrameType type :
       {FrameType::Hello, FrameType::HelloAck, FrameType::Batch, FrameType::Ack,
        FrameType::Busy, FrameType::Bye, FrameType::ByeAck, FrameType::Error}) {
    const std::string wire = netio::encode_frame(type, 42, "payload bytes");
    const DecodeResult r = netio::decode_frame(wire);
    ASSERT_EQ(r.status, DecodeStatus::Ok) << netio::to_string(type);
    EXPECT_EQ(r.frame.type, type);
    EXPECT_EQ(r.frame.seq, 42u);
    EXPECT_EQ(r.frame.body, "payload bytes");
    EXPECT_EQ(r.consumed, wire.size());
  }
}

TEST(FrameTest, EmptyBodyRoundTrips) {
  const std::string wire = netio::encode_frame(FrameType::Bye, 7);
  const DecodeResult r = netio::decode_frame(wire);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_TRUE(r.frame.body.empty());
  EXPECT_EQ(r.consumed, netio::kFrameHeaderBytes);
}

TEST(FrameTest, EveryTornPrefixIsNeedMoreNeverCorrupt) {
  // A short read can stop at any byte; the decoder must ask for more
  // rather than misreading a partial frame as garbage.
  const std::string wire = netio::encode_frame(FrameType::Batch, 9, "abcdef");
  for (size_t len = 0; len < wire.size(); ++len) {
    const DecodeResult r = netio::decode_frame(std::string_view(wire).substr(0, len));
    EXPECT_EQ(r.status, DecodeStatus::NeedMore) << "prefix length " << len;
    EXPECT_EQ(r.consumed, 0u);
  }
}

TEST(FrameTest, DecodeConsumesOnlyTheFirstFrame) {
  const std::string a = netio::encode_frame(FrameType::Ack, 1);
  const std::string b = netio::encode_frame(FrameType::Ack, 2);
  const DecodeResult r = netio::decode_frame(a + b);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.frame.seq, 1u);
  EXPECT_EQ(r.consumed, a.size());
}

TEST(FrameTest, BadMagicIsCorrupt) {
  std::string wire = netio::encode_frame(FrameType::Ack, 1);
  wire[0] ^= 0x40;
  EXPECT_EQ(netio::decode_frame(wire).status, DecodeStatus::Corrupt);
}

TEST(FrameTest, WrongVersionIsCorrupt) {
  std::string wire = netio::encode_frame(FrameType::Ack, 1);
  wire[4] = char(netio::kFrameVersion + 1);
  EXPECT_EQ(netio::decode_frame(wire).status, DecodeStatus::Corrupt);
}

TEST(FrameTest, UnknownTypeIsCorrupt) {
  std::string wire = netio::encode_frame(FrameType::Ack, 1);
  wire[5] = 0x7f;
  EXPECT_EQ(netio::decode_frame(wire).status, DecodeStatus::Corrupt);
}

TEST(FrameTest, OversizeLengthIsCorruptNotAMemoryBomb) {
  // A flipped bit in body_len must not drive the reader into reserving
  // gigabytes; anything over kMaxFrameBody is rejected up front.
  std::string wire = netio::encode_frame(FrameType::Batch, 1, "x");
  wire[14] = char(0xff);
  wire[15] = char(0xff);
  wire[16] = char(0xff);
  wire[17] = char(0x7f);
  EXPECT_EQ(netio::decode_frame(wire).status, DecodeStatus::Corrupt);
}

TEST(FrameTest, FlippedBodyBitFailsTheChecksum) {
  std::string wire = netio::encode_frame(FrameType::Batch, 1, "payload");
  wire[netio::kFrameHeaderBytes + 3] ^= 0x01;
  const DecodeResult r = netio::decode_frame(wire);
  EXPECT_EQ(r.status, DecodeStatus::Corrupt);
  EXPECT_NE(r.error.find("checksum"), std::string::npos);
}

TEST(FrameTest, FlippedChecksumBitIsCorrupt) {
  std::string wire = netio::encode_frame(FrameType::Batch, 1, "payload");
  wire[18] ^= 0x10;  // checksum field
  EXPECT_EQ(netio::decode_frame(wire).status, DecodeStatus::Corrupt);
}

// --- trace deltas -------------------------------------------------------

class TraceDeltaTest : public ::testing::Test {
 protected:
  [[nodiscard]] PacketSet prefix(const char* cidr) {
    return PacketSet::dst_prefix(mgr_, Ipv4Prefix::parse(cidr));
  }

  [[nodiscard]] coverage::CoverageTrace sample_trace() {
    coverage::CoverageTrace t;
    t.mark_packet(3, prefix("10.0.0.0/8"));
    t.mark_packet(5, prefix("10.1.0.0/16").union_with(prefix("192.168.0.0/24")));
    t.mark_rule(net::RuleId{11});
    t.mark_rule(net::RuleId{4});
    t.mark_rule(net::RuleId{900});
    return t;
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
};

TEST_F(TraceDeltaTest, RoundTripPreservesTheTrace) {
  const coverage::CoverageTrace original = sample_trace();
  const std::string delta = netio::encode_trace_delta(original);

  bdd::BddManager other(packet::kNumHeaderBits);
  const coverage::CoverageTrace decoded = netio::decode_trace_delta(delta, other);
  // Canonical persist-v2 bytes are equal iff the traces hold the same sets.
  EXPECT_EQ(ys::serialize_trace(decoded, other), ys::serialize_trace(original, mgr_));
}

TEST_F(TraceDeltaTest, EncodingIsCanonicalAcrossInsertionOrder) {
  coverage::CoverageTrace forward;
  forward.mark_rule(net::RuleId{1});
  forward.mark_rule(net::RuleId{2});
  forward.mark_rule(net::RuleId{3});
  forward.mark_packet(1, prefix("10.0.0.0/8"));
  coverage::CoverageTrace reverse;
  reverse.mark_packet(1, prefix("10.0.0.0/8"));
  reverse.mark_rule(net::RuleId{3});
  reverse.mark_rule(net::RuleId{1});
  reverse.mark_rule(net::RuleId{2});
  EXPECT_EQ(netio::encode_trace_delta(forward), netio::encode_trace_delta(reverse));
}

TEST_F(TraceDeltaTest, EmptyTraceRoundTrips) {
  const coverage::CoverageTrace empty;
  const std::string delta = netio::encode_trace_delta(empty);
  const coverage::CoverageTrace decoded = netio::decode_trace_delta(delta, mgr_);
  EXPECT_TRUE(decoded.marked_rules().empty());
  EXPECT_TRUE(decoded.marked_packets().empty());
}

TEST_F(TraceDeltaTest, TruncatedDeltaNeverDecodes) {
  // Cuts inside the fixed-size prefix are reported as Truncated; cuts
  // deeper in may instead trip the node-count plausibility guard
  // (Corrupted) — either way the decoder must refuse, never misread.
  const std::string delta = netio::encode_trace_delta(sample_trace());
  for (const size_t keep : {size_t{0}, size_t{2}}) {
    try {
      (void)netio::decode_trace_delta(std::string_view(delta).substr(0, keep), mgr_);
      FAIL() << "accepted truncation at " << keep;
    } catch (const ys::CorruptTraceError& e) {
      EXPECT_EQ(e.detail(), ys::CorruptTraceError::Detail::Truncated) << keep;
    }
  }
  for (size_t keep = 3; keep < delta.size(); keep += 7) {
    EXPECT_THROW(
        (void)netio::decode_trace_delta(std::string_view(delta).substr(0, keep), mgr_),
        ys::CorruptTraceError)
        << keep;
  }
}

TEST_F(TraceDeltaTest, TrailingGarbageIsCorrupt) {
  std::string delta = netio::encode_trace_delta(sample_trace());
  delta += "extra";
  try {
    (void)netio::decode_trace_delta(delta, mgr_);
    FAIL() << "accepted trailing garbage";
  } catch (const ys::CorruptTraceError& e) {
    EXPECT_EQ(e.detail(), ys::CorruptTraceError::Detail::Corrupted);
  }
}

TEST_F(TraceDeltaTest, OutOfRangeVariableIsCorrupt) {
  // Hand-craft a node whose variable lies outside the 104-bit universe.
  std::string delta;
  netio::put_u32(delta, 1);    // node_count
  netio::put_u8(delta, 200);   // var 200 >= num_vars
  netio::put_u32(delta, 0);    // low -> false
  netio::put_u32(delta, 1);    // high -> true
  netio::put_u32(delta, 0);    // rules
  netio::put_u32(delta, 0);    // locations
  EXPECT_THROW((void)netio::decode_trace_delta(delta, mgr_), ys::CorruptTraceError);
}

TEST_F(TraceDeltaTest, ImplausibleNodeCountIsRejectedBeforeAllocation) {
  std::string delta;
  netio::put_u32(delta, 0x40000000u);  // node_count far beyond the bytes present
  EXPECT_THROW((void)netio::decode_trace_delta(delta, mgr_), ys::CorruptTraceError);
}

TEST_F(TraceDeltaTest, ForwardNodeReferenceIsCorrupt) {
  // Hand-craft: one node whose low ref points at itself (ref 2).
  std::string delta;
  netio::put_u32(delta, 1);  // node_count
  netio::put_u8(delta, 0);   // var
  netio::put_u32(delta, 2);  // low -> forward reference
  netio::put_u32(delta, 1);  // high -> true
  netio::put_u32(delta, 0);  // rules
  netio::put_u32(delta, 0);  // locations
  try {
    (void)netio::decode_trace_delta(delta, mgr_);
    FAIL() << "accepted forward reference";
  } catch (const ys::CorruptTraceError& e) {
    EXPECT_EQ(e.detail(), ys::CorruptTraceError::Detail::Corrupted);
  }
}

TEST_F(TraceDeltaTest, VariableOrderingViolationIsCorrupt) {
  // Parent at var 5 pointing to a child at var 3: not a valid ROBDD.
  std::string delta;
  netio::put_u32(delta, 2);  // node_count
  netio::put_u8(delta, 3);   // child: var 3
  netio::put_u32(delta, 0);
  netio::put_u32(delta, 1);
  netio::put_u8(delta, 5);   // parent: var 5 — deeper than its child
  netio::put_u32(delta, 2);  // low -> child
  netio::put_u32(delta, 1);
  netio::put_u32(delta, 0);  // rules
  netio::put_u32(delta, 0);  // locations
  EXPECT_THROW((void)netio::decode_trace_delta(delta, mgr_), ys::CorruptTraceError);
}

}  // namespace
}  // namespace yardstick
