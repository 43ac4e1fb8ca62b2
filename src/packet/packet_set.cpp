#include "packet/packet_set.hpp"

#include <cassert>
#include <vector>

namespace yardstick::packet {

using bdd::Bdd;
using bdd::BddManager;
using bdd::Var;

namespace {

/// `below`, a function of variables deeper than the field's, conjoined
/// with "the top `bits` bits of field `s` equal those of `value`". Bit i of
/// the field (MSB-first) is BDD variable s.offset + i; the MSB of `value`
/// within the field is bit (s.width - 1). The cube is built bottom up,
/// deepest variable first, one make() per bit and no allocation.
bdd::NodeIndex prefix_cube(BddManager& mgr, FieldSpec s, uint64_t value, uint8_t bits,
                           bdd::NodeIndex below) {
  assert(bits <= s.width);
  for (uint8_t i = bits; i-- > 0;) {
    const Var v = s.offset + i;
    below = ((value >> (s.width - 1 - i)) & 1) != 0 ? mgr.make(v, bdd::kFalse, below)
                                                     : mgr.make(v, below, bdd::kFalse);
  }
  return below;
}

}  // namespace

PacketSet PacketSet::field_prefix(BddManager& mgr, Field f, uint64_t value,
                                  uint8_t bits) {
  return PacketSet(Bdd(&mgr, prefix_cube(mgr, spec(f), value, bits, bdd::kTrue)));
}

PacketSet PacketSet::field_range(BddManager& mgr, Field f, uint64_t lo, uint64_t hi) {
  const FieldSpec s = spec(f);
  assert(lo <= hi);
  // Classic trick: a range decomposes into O(width) aligned power-of-two
  // blocks, i.e. prefixes of the field.
  Bdd acc = mgr.zero();
  uint64_t cursor = lo;
  const uint64_t end = hi;
  while (cursor <= end) {
    // Largest aligned block starting at cursor that fits within [cursor, end].
    uint8_t block = 0;  // log2 of block size
    while (block < s.width) {
      const uint64_t size = uint64_t{1} << (block + 1);
      const bool aligned = (cursor & (size - 1)) == 0;
      const bool fits = cursor + size - 1 <= end;
      if (!aligned || !fits) break;
      ++block;
    }
    const uint8_t prefix_bits = static_cast<uint8_t>(s.width - block);
    acc = acc | field_prefix(mgr, f, cursor, prefix_bits).raw();
    const uint64_t size = uint64_t{1} << block;
    if (end - cursor < size) break;  // avoid overflow at the top of the field
    cursor += size;
  }
  return PacketSet(acc);
}

PacketSet PacketSet::from_packet(BddManager& mgr, const ConcretePacket& p) {
  // Every field in full, deepest field first: 104 make() calls.
  bdd::NodeIndex acc = bdd::kTrue;
  acc = prefix_cube(mgr, kDstPort, p.dst_port, kDstPort.width, acc);
  acc = prefix_cube(mgr, kSrcPort, p.src_port, kSrcPort.width, acc);
  acc = prefix_cube(mgr, kProto, p.proto, kProto.width, acc);
  acc = prefix_cube(mgr, kSrcIp, p.src_ip, kSrcIp.width, acc);
  acc = prefix_cube(mgr, kDstIp, p.dst_ip, kDstIp.width, acc);
  return PacketSet(Bdd(&mgr, acc));
}

PacketSet PacketSet::rewrite_field(Field f, uint64_t value) const {
  if (empty()) return *this;
  BddManager& mgr = *bdd_.manager();
  // Image = (exists field. S) AND field == value.
  return forget_field(f).intersect(field_equals(mgr, f, value));
}

PacketSet PacketSet::rewrite_field_preimage(Field f, uint64_t value) const {
  if (empty()) return *this;
  BddManager& mgr = *bdd_.manager();
  // Pre-image: if the slice of S at field == value is non-empty, then every
  // packet whose other fields lie in that slice maps into S.
  const PacketSet slice = intersect(field_equals(mgr, f, value));
  return slice.forget_field(f);
}

PacketSet PacketSet::forget_field(Field f) const {
  BddManager& mgr = *bdd_.manager();
  const FieldSpec s = spec(f);
  std::vector<bool> quantified(mgr.num_vars(), false);
  for (uint8_t i = 0; i < s.width; ++i) quantified[s.offset + i] = true;
  return PacketSet(mgr.exists(bdd_, quantified));
}

std::string PacketSet::to_string() const {
  if (!valid()) return "packets(invalid)";
  if (empty()) return "packets(empty)";
  return "packets(count=" + bdd::to_string(count()) + ", e.g. " + sample().to_string() +
         ")";
}

}  // namespace yardstick::packet
