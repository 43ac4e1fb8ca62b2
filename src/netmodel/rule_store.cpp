#include "netmodel/rule_store.hpp"

#include <algorithm>

namespace yardstick::net {

uint32_t GroupPool::hash(std::span<const InterfaceId> out_interfaces,
                         std::span<const Rewrite> rewrites) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (uint64_t{out_interfaces.size()} << 32 | rewrites.size());
  const auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  };
  for (const InterfaceId intf : out_interfaces) mix(intf.value);
  for (const Rewrite& rw : rewrites) {
    mix(static_cast<uint64_t>(rw.field));
    mix(rw.value);
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

uint32_t GroupPool::intern(std::span<const InterfaceId> out_interfaces,
                           std::span<const Rewrite> rewrites) {
  if (out_interfaces.empty() && rewrites.empty()) return kEmpty;
  const uint32_t h = hash(out_interfaces, rewrites);
  const size_t mask = slots_.size() - 1;
  size_t at = h & mask;
  for (; slots_[at] != 0; at = (at + 1) & mask) {
    if (static_cast<uint32_t>(slots_[at] >> 32) != h) continue;
    const uint32_t group = static_cast<uint32_t>(slots_[at]) - 1;
    if (std::ranges::equal(this->out_interfaces(group), out_interfaces) &&
        std::ranges::equal(this->rewrites(group), rewrites)) {
      return group;
    }
  }
  const auto group = static_cast<uint32_t>(out_end_.size());
  outs_.insert(outs_.end(), out_interfaces.begin(), out_interfaces.end());
  rewrites_.insert(rewrites_.end(), rewrites.begin(), rewrites.end());
  out_end_.push_back(static_cast<uint32_t>(outs_.size()));
  rewrite_end_.push_back(static_cast<uint32_t>(rewrites_.size()));
  slots_[at] = uint64_t{h} << 32 | (group + 1);
  if (2 * size() > slots_.size()) rehash(2 * slots_.size());
  return group;
}

void GroupPool::rehash(size_t slots) {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (const uint64_t slot : old) {
    if (slot == 0) continue;
    size_t at = (slot >> 32) & mask;
    while (slots_[at] != 0) at = (at + 1) & mask;
    slots_[at] = slot;
  }
}

size_t GroupPool::bytes() const {
  return out_end_.capacity() * sizeof(uint32_t) + outs_.capacity() * sizeof(InterfaceId) +
         rewrite_end_.capacity() * sizeof(uint32_t) + rewrites_.capacity() * sizeof(Rewrite) +
         slots_.capacity() * sizeof(uint64_t);
}

void GroupPool::clear() {
  out_end_.assign(1, 0);
  rewrite_end_.assign(1, 0);
  outs_.clear();
  rewrites_.clear();
  slots_.assign(16, 0);
}

size_t RuleStore::bytes() const {
  size_t total = rules.capacity() * sizeof(Rule) +
                 tables.capacity() * sizeof(tables.front()) + groups.bytes() +
                 rare.capacity() * sizeof(RareMatch);
  for (const auto& per_device : tables) {
    for (const std::vector<RuleId>& table : per_device) {
      total += table.capacity() * sizeof(RuleId);
    }
  }
  for (const RareMatch& r : rare) total += r.in_interfaces.capacity() * sizeof(InterfaceId);
  return total;
}

}  // namespace yardstick::net
