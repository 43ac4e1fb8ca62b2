// A fully concrete packet header (one point of the 104-bit header space).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "packet/fields.hpp"
#include "packet/prefix.hpp"

namespace yardstick::packet {

struct ConcretePacket {
  uint32_t dst_ip = 0;
  uint32_t src_ip = 0;
  uint8_t proto = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;

  friend auto operator<=>(const ConcretePacket&, const ConcretePacket&) = default;

  void set_field(Field f, uint64_t value) {
    switch (f) {
      case Field::DstIp: dst_ip = static_cast<uint32_t>(value); break;
      case Field::SrcIp: src_ip = static_cast<uint32_t>(value); break;
      case Field::Proto: proto = static_cast<uint8_t>(value); break;
      case Field::SrcPort: src_port = static_cast<uint16_t>(value); break;
      case Field::DstPort: dst_port = static_cast<uint16_t>(value); break;
    }
  }

  /// Full 104-bit assignment in BDD variable order.
  [[nodiscard]] std::vector<bool> to_assignment() const {
    std::vector<bool> bits(kNumHeaderBits, false);
    const auto emit = [&](FieldSpec s, uint64_t value) {
      for (uint8_t i = 0; i < s.width; ++i) {
        bits[s.offset + i] = (value >> (s.width - 1 - i)) & 1;
      }
    };
    emit(kDstIp, dst_ip);
    emit(kSrcIp, src_ip);
    emit(kProto, proto);
    emit(kSrcPort, src_port);
    emit(kDstPort, dst_port);
    return bits;
  }

  /// Reconstruct a packet from a 104-bit assignment.
  static ConcretePacket from_assignment(const std::vector<bool>& bits) {
    ConcretePacket p;
    const auto read = [&](FieldSpec s) {
      uint64_t value = 0;
      for (uint8_t i = 0; i < s.width; ++i) {
        value = (value << 1) | static_cast<uint64_t>(bits[s.offset + i]);
      }
      return value;
    };
    p.dst_ip = static_cast<uint32_t>(read(kDstIp));
    p.src_ip = static_cast<uint32_t>(read(kSrcIp));
    p.proto = static_cast<uint8_t>(read(kProto));
    p.src_port = static_cast<uint16_t>(read(kSrcPort));
    p.dst_port = static_cast<uint16_t>(read(kDstPort));
    return p;
  }

  [[nodiscard]] std::string to_string() const {
    return "pkt(dst=" + ipv4_to_string(dst_ip) + ", src=" + ipv4_to_string(src_ip) +
           ", proto=" + std::to_string(proto) + ", sport=" + std::to_string(src_port) +
           ", dport=" + std::to_string(dst_port) + ")";
  }
};

}  // namespace yardstick::packet
