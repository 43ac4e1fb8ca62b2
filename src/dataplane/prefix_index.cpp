#include "dataplane/prefix_index.hpp"

#include <algorithm>
#include <utility>

namespace yardstick::dataplane {

namespace {

uint64_t key_of(const packet::Ipv4Prefix& prefix) {
  return (uint64_t{prefix.length()} << 32) | prefix.address();
}

}  // namespace

PrefixIndex::PrefixIndex(const net::Network& network) {
  size_t indexed = 0;
  for (const net::Device& dev : network.devices()) {
    for (const net::RuleId rid : network.table(dev.id)) {
      if (network.rule(rid).dst_prefix()) ++indexed;
    }
  }
  offsets_.reserve(network.device_count() + 1);
  keys_.reserve(indexed);
  rules_.reserve(indexed);
  offsets_.push_back(0);

  // Per device: sort (key, table position) pairs, then keep the first
  // position of every key — the rule a table scan would have returned.
  std::vector<std::pair<uint64_t, uint32_t>> by_key;
  for (const net::Device& dev : network.devices()) {
    const std::span<const net::RuleId> table = network.table(dev.id);
    by_key.clear();
    for (uint32_t pos = 0; pos < table.size(); ++pos) {
      if (const auto dst = network.rule(table[pos]).dst_prefix()) {
        by_key.emplace_back(key_of(*dst), pos);
      }
    }
    std::sort(by_key.begin(), by_key.end());
    for (size_t i = 0; i < by_key.size(); ++i) {
      if (i > 0 && by_key[i].first == by_key[i - 1].first) continue;
      keys_.push_back(by_key[i].first);
      rules_.push_back(table[by_key[i].second]);
    }
    offsets_.push_back(static_cast<uint32_t>(keys_.size()));
  }
}

net::RuleId PrefixIndex::find(net::DeviceId device, const packet::Ipv4Prefix& prefix) const {
  const auto begin = keys_.begin() + offsets_[device.value];
  const auto end = keys_.begin() + offsets_[device.value + 1];
  const uint64_t key = key_of(prefix);
  const auto it = std::lower_bound(begin, end, key);
  if (it == end || *it != key) return net::RuleId{};
  return rules_[static_cast<size_t>(it - keys_.begin())];
}

size_t PrefixIndex::bytes() const {
  return offsets_.size() * sizeof(uint32_t) + keys_.size() * sizeof(uint64_t) +
         rules_.size() * sizeof(net::RuleId);
}

}  // namespace yardstick::dataplane
