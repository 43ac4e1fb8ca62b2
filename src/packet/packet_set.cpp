#include "packet/packet_set.hpp"

#include <cassert>
#include <vector>

namespace yardstick::packet {

using bdd::Bdd;
using bdd::BddManager;
using bdd::Var;

PacketSet PacketSet::field_prefix(BddManager& mgr, Field f, uint64_t value,
                                  uint8_t bits) {
  const FieldSpec s = spec(f);
  assert(bits <= s.width);
  // Bit i of the field (MSB-first) is BDD variable s.offset + i; the MSB of
  // `value` within the field is bit (s.width - 1). The cube is built bottom
  // up, deepest variable first: the make() sequence BddManager::cube runs,
  // without its two vectors and its sort.
  bdd::NodeIndex acc = bdd::kTrue;
  for (uint8_t i = bits; i-- > 0;) {
    const Var v = s.offset + i;
    acc = ((value >> (s.width - 1 - i)) & 1) != 0 ? mgr.make(v, bdd::kFalse, acc)
                                                   : mgr.make(v, acc, bdd::kFalse);
  }
  return PacketSet(Bdd(&mgr, acc));
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
  const std::vector<bool> bits = p.to_assignment();
  std::vector<Var> vars(kNumHeaderBits);
  for (Var v = 0; v < kNumHeaderBits; ++v) vars[v] = v;
  return PacketSet(mgr.cube(vars, bits));
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
