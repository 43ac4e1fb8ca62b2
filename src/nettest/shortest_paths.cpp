#include "nettest/shortest_paths.hpp"

#include <algorithm>

namespace yardstick::nettest {

FabricDistances::FabricDistances(const net::Network& network)
    : network_(network),
      dist_(network.device_count(), kUnreachable),
      queue_(network.device_count()) {
  offsets_.reserve(network.device_count() + 1);
  peers_.reserve(network.interface_count());
  offsets_.push_back(0);
  for (const net::Device& dev : network.devices()) {
    for (const net::InterfaceId intf : dev.interfaces) {
      const net::DeviceId peer = network.neighbor(intf);
      if (peer.valid()) peers_.push_back(peer);
    }
    offsets_.push_back(static_cast<uint32_t>(peers_.size()));
  }
}

void FabricDistances::from(net::DeviceId origin) {
  std::fill(dist_.begin(), dist_.end(), kUnreachable);
  dist_[origin.value] = 0;
  // Every device enters the queue at most once, so a flat array of
  // device_count slots holds the whole BFS.
  size_t head = 0;
  size_t tail = 0;
  queue_[tail++] = origin;
  while (head < tail) {
    const net::DeviceId v = queue_[head++];
    for (uint32_t i = offsets_[v.value]; i < offsets_[v.value + 1]; ++i) {
      const net::DeviceId peer = peers_[i];
      if (dist_[peer.value] == kUnreachable) {
        dist_[peer.value] = dist_[v.value] + 1;
        queue_[tail++] = peer;
      }
    }
  }
}

bool FabricDistances::toward_origin(net::DeviceId device, net::InterfaceId out) const {
  const int d = dist_[device.value];
  if (d <= 0 || out.value >= network_.interface_count()) return false;
  if (network_.interface(out).device != device) return false;
  const net::DeviceId peer = network_.neighbor(out);
  return peer.valid() && dist_[peer.value] == d - 1;
}

bool FabricDistances::is_contract_next_hops(net::DeviceId device,
                                            std::span<const net::InterfaceId> outs) const {
  const int d = dist_[device.value];
  if (d <= 0) return false;
  // Every interface faces one peer, so counting the peers at d-1 counts
  // the expected next hops.
  size_t expected = 0;
  for (uint32_t i = offsets_[device.value]; i < offsets_[device.value + 1]; ++i) {
    if (dist_[peers_[i].value] == d - 1) ++expected;
  }
  if (outs.size() != expected) return false;
  // As many distinct next hops as expected, each one expected, is the
  // expected set. Generated FIBs list next hops ascending, which rules out
  // a repeat without a search; a network file may list them in any order.
  bool ascending = true;
  for (size_t i = 0; i < outs.size(); ++i) {
    if (!toward_origin(device, outs[i])) return false;
    if (i > 0 && !(outs[i - 1] < outs[i])) ascending = false;
    if (!ascending && std::find(outs.begin(), outs.begin() + i, outs[i]) != outs.begin() + i) {
      return false;
    }
  }
  return true;
}

}  // namespace yardstick::nettest
