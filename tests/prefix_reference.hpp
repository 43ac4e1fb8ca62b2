// Reference exact-prefix lookup for differential tests: the linear FIB scan
// the state-inspection and local contract tests ran before each snapshot got
// its PrefixIndex (DESIGN.md §18). Slow on purpose and kept verbatim in its
// semantics; Transfer::rule_for_prefix must return the same rule for every
// (device, prefix).
#pragma once

#include "netmodel/network.hpp"

namespace yardstick::dataplane::reference {

/// The first rule in `network.table(device)` order whose dst prefix equals
/// `prefix` (any kind); an invalid id when none does.
inline net::RuleId rule_for_prefix(const net::Network& network, net::DeviceId device,
                                   const packet::Ipv4Prefix& prefix) {
  for (const net::RuleId rid : network.table(device)) {
    if (network.rule(rid).dst_prefix() == prefix) return rid;
  }
  return net::RuleId{};
}

}  // namespace yardstick::dataplane::reference
