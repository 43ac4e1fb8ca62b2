// Packet header bit layout.
//
// Packets are finite bit vectors (the property the paper leans on to make
// input-space quantification tractable). We model the classic stateless
// 5-tuple: destination/source IPv4 address, IP protocol, and L4 ports —
// 104 bits total. BDD variable 0 is the most significant bit of the
// destination address; destination bits come first because longest-prefix
// match sets then have linear-size BDDs.
#pragma once

#include <cstdint>

#include "bdd/bdd.hpp"

namespace yardstick::packet {

enum class Field : uint8_t { DstIp, SrcIp, Proto, SrcPort, DstPort };

struct FieldSpec {
  bdd::Var offset;  // BDD variable of the field's most significant bit
  uint8_t width;    // number of bits
};

inline constexpr FieldSpec kDstIp{0, 32};
inline constexpr FieldSpec kSrcIp{32, 32};
inline constexpr FieldSpec kProto{64, 8};
inline constexpr FieldSpec kSrcPort{72, 16};
inline constexpr FieldSpec kDstPort{88, 16};

inline constexpr bdd::Var kNumHeaderBits = 104;

inline constexpr FieldSpec spec(Field f) {
  switch (f) {
    case Field::DstIp: return kDstIp;
    case Field::SrcIp: return kSrcIp;
    case Field::Proto: return kProto;
    case Field::SrcPort: return kSrcPort;
    case Field::DstPort: return kDstPort;
  }
  return kDstIp;  // unreachable
}

}  // namespace yardstick::packet
