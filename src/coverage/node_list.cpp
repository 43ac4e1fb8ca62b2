#include "coverage/node_list.hpp"

#include <string>
#include <utility>

#include "common/status.hpp"

namespace yardstick::coverage {

using bdd::kFalse;
using bdd::kTrue;
using bdd::NodeIndex;

NodeList::NodeList(bdd::BddManager& mgr, size_t count, const char* source)
    : mgr_(&mgr), source_(source) {
  by_ref_.reserve(count + 2);
  by_ref_.push_back(kFalse);
  by_ref_.push_back(kTrue);
}

void NodeList::fail(const std::string& why) const {
  ys::ErrorContext context;
  context.source = source_;
  throw ys::CorruptTraceError(ys::CorruptTraceError::Detail::Corrupted, why, std::move(context));
}

void NodeList::add(uint32_t var, uint32_t low, uint32_t high) {
  const size_t i = by_ref_.size() - 2;
  if (var >= mgr_->num_vars()) {
    fail("node variable " + std::to_string(var) + " out of range");
  }
  if (low >= by_ref_.size() || high >= by_ref_.size()) {
    fail("forward/out-of-range node reference at node " + std::to_string(i));
  }
  const auto level = [&](NodeIndex n) {
    return n <= kTrue ? mgr_->num_vars() : mgr_->node(n).var;
  };
  if (var >= level(by_ref_[low]) || var >= level(by_ref_[high])) {
    fail("variable-ordering violation at node " + std::to_string(i));
  }
  by_ref_.push_back(mgr_->make(var, by_ref_[low], by_ref_[high]));
}

NodeIndex NodeList::root(uint32_t ref) const {
  if (ref >= by_ref_.size()) {
    fail("location root reference " + std::to_string(ref) + " out of range");
  }
  return by_ref_[ref];
}

}  // namespace yardstick::coverage
