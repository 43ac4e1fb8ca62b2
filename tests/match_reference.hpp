// Reference step 1 for differential tests: the table walk MatchSetIndex ran
// before it built each match field once and subtracted only where an
// earlier rule overlaps (DESIGN.md §20). Every rule builds its field afresh,
// pays one difference against `claimed`, the running union of the earlier
// fields of its table, and one union into it. Slow on purpose and kept
// verbatim in its semantics; the index must give the same sets.
#pragma once

#include "dataplane/match_sets.hpp"

namespace yardstick::dataplane::reference {

/// Every rule's M[r] and every device's ACL-permitted space, built in `mgr`.
inline MatchSlots match_slots(bdd::BddManager& mgr, const net::Network& network) {
  using packet::PacketSet;
  MatchSlots out;
  out.match_sets.resize(network.rule_count());
  out.acl_permitted.resize(network.device_count());
  for (const net::Device& dev : network.devices()) {
    for (const net::TableKind table : {net::TableKind::Acl, net::TableKind::Fib}) {
      PacketSet claimed = PacketSet::none(mgr);
      PacketSet permitted = PacketSet::none(mgr);
      for (const net::RuleId rid : network.table(dev.id, table)) {
        const net::Rule& r = network.rule(rid);
        const PacketSet field = MatchSetIndex::build_match_field(mgr, r.match);
        PacketSet disjoint = field.minus(claimed);
        claimed = claimed.union_with(field);
        if (r.action.type == net::ActionType::Permit) {
          permitted = permitted.union_with(disjoint);
        }
        out.match_sets[rid.value] = std::move(disjoint);
      }
      if (table == net::TableKind::Acl) {
        out.acl_permitted[dev.id.value] =
            network.has_acl(dev.id) ? permitted : PacketSet::all(mgr);
      }
    }
  }
  return out;
}

}  // namespace yardstick::dataplane::reference
