// Tests for PacketSet — the Figure 5 operations and field builders.
#include <gtest/gtest.h>

#include "bdd/uint128.hpp"
#include "packet/packet_set.hpp"

namespace yardstick::packet {
namespace {

using bdd::pow2;
using bdd::Uint128;

class PacketSetTest : public ::testing::Test {
 protected:
  bdd::BddManager mgr{kNumHeaderBits};
};

TEST_F(PacketSetTest, AllAndNoneCounts) {
  EXPECT_EQ(PacketSet::all(mgr).count(), pow2(104));
  EXPECT_EQ(PacketSet::none(mgr).count(), Uint128{0});
  EXPECT_TRUE(PacketSet::none(mgr).empty());
  EXPECT_TRUE(PacketSet::all(mgr).full());
}

TEST_F(PacketSetTest, DstPrefixCount) {
  const auto p24 = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.1.0/24"));
  // 2^8 destination addresses x 2^72 other header bits.
  EXPECT_EQ(p24.count(), pow2(80));
  const auto p0 = PacketSet::dst_prefix(mgr, default_route_prefix());
  EXPECT_TRUE(p0.full());
}

TEST_F(PacketSetTest, PrefixNesting) {
  const auto outer = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"));
  const auto inner = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.1.0.0/16"));
  EXPECT_TRUE(inner.raw().implies(outer.raw()));
  EXPECT_EQ(inner.intersect(outer), inner);
  EXPECT_EQ(inner.union_with(outer), outer);
}

TEST_F(PacketSetTest, DisjointPrefixes) {
  const auto a = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"));
  const auto b = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("11.0.0.0/8"));
  EXPECT_TRUE(a.intersect(b).empty());
  EXPECT_EQ(a.union_with(b).count(), a.count() + b.count());
}

TEST_F(PacketSetTest, NegateComplementsCount) {
  const auto a = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/9"));
  EXPECT_EQ(a.count() + a.negate().count(), pow2(104));
  EXPECT_TRUE(a.intersect(a.negate()).empty());
}

TEST_F(PacketSetTest, MinusIsRelativeComplement) {
  const auto a = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"));
  const auto b = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/9"));
  EXPECT_EQ(a.minus(b).count(), a.count() - b.count());
  EXPECT_TRUE(a.minus(a).empty());
}

TEST_F(PacketSetTest, FieldEquals) {
  const auto tcp = PacketSet::field_equals(mgr, Field::Proto, 6);
  EXPECT_EQ(tcp.count(), pow2(96));
  const auto port = PacketSet::field_equals(mgr, Field::DstPort, 443);
  EXPECT_EQ(port.count(), pow2(88));
  EXPECT_EQ(tcp.intersect(port).count(), pow2(80));
}

TEST_F(PacketSetTest, SrcPrefix) {
  const auto s = PacketSet::src_prefix(mgr, Ipv4Prefix::parse("192.168.0.0/16"));
  EXPECT_EQ(s.count(), pow2(88));
  ConcretePacket in;
  in.src_ip = 0xc0a80005u;
  EXPECT_TRUE(s.contains(in));
  in.src_ip = 0x0a000001u;
  EXPECT_FALSE(s.contains(in));
}

TEST_F(PacketSetTest, FieldRangeExactCount) {
  // [100, 4099] spans 4000 port values.
  const auto r = PacketSet::field_range(mgr, Field::DstPort, 100, 4099);
  EXPECT_EQ(r.count(), Uint128{4000} * pow2(88));
}

TEST_F(PacketSetTest, FieldRangeFullAndSingleton) {
  EXPECT_TRUE(PacketSet::field_range(mgr, Field::DstPort, 0, 65535).full());
  EXPECT_EQ(PacketSet::field_range(mgr, Field::SrcPort, 80, 80),
            PacketSet::field_equals(mgr, Field::SrcPort, 80));
  // Top-of-field ranges must not overflow.
  const auto top = PacketSet::field_range(mgr, Field::SrcPort, 65535, 65535);
  EXPECT_EQ(top.count(), pow2(88));
}

TEST_F(PacketSetTest, FieldRangeMembership) {
  const auto r = PacketSet::field_range(mgr, Field::DstPort, 1000, 2000);
  ConcretePacket p;
  for (const uint16_t port : {999, 1000, 1500, 2000, 2001}) {
    p.dst_port = port;
    EXPECT_EQ(r.contains(p), port >= 1000 && port <= 2000) << port;
  }
}

TEST_F(PacketSetTest, FromPacketSingleton) {
  ConcretePacket p;
  p.dst_ip = 0x0a000102u;
  p.src_ip = 0xc0a80001u;
  p.proto = 6;
  p.src_port = 1234;
  p.dst_port = 80;
  const auto s = PacketSet::from_packet(mgr, p);
  EXPECT_EQ(s.count(), Uint128{1});
  EXPECT_TRUE(s.contains(p));
  EXPECT_EQ(s.sample(), p);
  // One flipped bit anywhere leaves the set.
  ConcretePacket q = p;
  q.src_port ^= 1;
  EXPECT_FALSE(s.contains(q));
  q = p;
  q.dst_ip ^= 0x80000000u;
  EXPECT_FALSE(s.contains(q));
  // The cube is canonical: the same node as one exact match per field.
  PacketSet fields = PacketSet::all(mgr);
  fields = fields.intersect(PacketSet::field_equals(mgr, Field::DstIp, p.dst_ip));
  fields = fields.intersect(PacketSet::field_equals(mgr, Field::SrcIp, p.src_ip));
  fields = fields.intersect(PacketSet::field_equals(mgr, Field::Proto, p.proto));
  fields = fields.intersect(PacketSet::field_equals(mgr, Field::SrcPort, p.src_port));
  fields = fields.intersect(PacketSet::field_equals(mgr, Field::DstPort, p.dst_port));
  EXPECT_EQ(s, fields);
}

TEST_F(PacketSetTest, SampleIsMember) {
  const auto s = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.3.0.0/16"))
                     .intersect(PacketSet::field_equals(mgr, Field::Proto, 17));
  const ConcretePacket p = s.sample();
  EXPECT_TRUE(s.contains(p));
  EXPECT_TRUE(Ipv4Prefix::parse("10.3.0.0/16").contains(p.dst_ip));
  EXPECT_EQ(p.proto, 17);
}

TEST_F(PacketSetTest, RewriteFieldImage) {
  const auto s = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"));
  const auto rewritten = s.rewrite_field(Field::DstIp, 0x0b000001u);
  EXPECT_EQ(rewritten, PacketSet::field_equals(mgr, Field::DstIp, 0x0b000001u));
}

TEST_F(PacketSetTest, RewritePreservesOtherFields) {
  const auto s = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"))
                     .intersect(PacketSet::field_equals(mgr, Field::DstPort, 80));
  const auto rewritten = s.rewrite_field(Field::DstIp, 0x0b000001u);
  ConcretePacket p;
  p.dst_ip = 0x0b000001u;
  p.dst_port = 80;
  EXPECT_TRUE(rewritten.contains(p));
  p.dst_port = 81;
  EXPECT_FALSE(rewritten.contains(p));
}

TEST_F(PacketSetTest, RewritePreimageInvertsImage) {
  const auto s = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"))
                     .intersect(PacketSet::field_equals(mgr, Field::Proto, 6));
  // Image then pre-image: the pre-image of "rewrite dst to c" of a set
  // containing dst==c with proto 6 is all packets with proto 6.
  const auto image = s.rewrite_field(Field::DstIp, 0x0a000001u);
  const auto pre = image.rewrite_field_preimage(Field::DstIp, 0x0a000001u);
  EXPECT_EQ(pre, PacketSet::field_equals(mgr, Field::Proto, 6));
}

TEST_F(PacketSetTest, RewritePreimageOfMissTargetIsEmpty) {
  const auto s = PacketSet::field_equals(mgr, Field::DstIp, 0x0a000001u);
  // Rewriting to an address outside the set can never land inside it.
  EXPECT_TRUE(s.rewrite_field_preimage(Field::DstIp, 0x0b000001u).empty());
}

TEST_F(PacketSetTest, ForgetField) {
  const auto s = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"))
                     .intersect(PacketSet::field_equals(mgr, Field::DstPort, 80));
  const auto forgotten = s.forget_field(Field::DstPort);
  EXPECT_EQ(forgotten, PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8")));
}

TEST_F(PacketSetTest, EqualIsSemanticEquality) {
  const auto a = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/7"));
  const auto b = PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("10.0.0.0/8"))
                     .union_with(PacketSet::dst_prefix(mgr, Ipv4Prefix::parse("11.0.0.0/8")));
  EXPECT_TRUE(a.equal(b));
}

TEST_F(PacketSetTest, ConcretePacketAssignmentRoundTrip) {
  ConcretePacket p;
  p.dst_ip = 0xdeadbeefu;
  p.src_ip = 0x01020304u;
  p.proto = 255;
  p.src_port = 65535;
  p.dst_port = 1;
  EXPECT_EQ(ConcretePacket::from_assignment(p.to_assignment()), p);
}

}  // namespace
}  // namespace yardstick::packet
