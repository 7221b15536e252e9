// Per-sub-pipeline occupancy tracking shared by the schedulers.
#pragma once

#include <vector>

#include "core/connection.h"

namespace resccl {

// Tracks the links and serializing resources (NICs, trunks) the current
// sub-pipeline already occupies — the communication-dependency state of
// Algorithm 1's inner loop.
class WaveOccupancy {
 public:
  explicit WaveOccupancy(const ConnectionTable& connections)
      : connections_(connections),
        used_resource_(connections.topology().resources().size(), false),
        used_link_(static_cast<std::size_t>(connections.count()), false) {}

  [[nodiscard]] bool ConflictsWith(LinkId link) const {
    if (used_link_[static_cast<std::size_t>(link.value)]) return true;
    for (ResourceId r : connections_.serializing(link)) {
      if (used_resource_[static_cast<std::size_t>(r.value)]) return true;
    }
    return false;
  }

  void Occupy(LinkId link) {
    used_link_[static_cast<std::size_t>(link.value)] = true;
    touched_links_.push_back(static_cast<std::size_t>(link.value));
    for (ResourceId r : connections_.serializing(link)) {
      const auto i = static_cast<std::size_t>(r.value);
      if (!used_resource_[i]) {
        used_resource_[i] = true;
        touched_.push_back(i);
      }
    }
  }

  void Clear() {
    for (std::size_t i : touched_) used_resource_[i] = false;
    for (std::size_t i : touched_links_) used_link_[i] = false;
    touched_.clear();
    touched_links_.clear();
  }

 private:
  const ConnectionTable& connections_;
  std::vector<bool> used_resource_;
  std::vector<bool> used_link_;
  std::vector<std::size_t> touched_;
  std::vector<std::size_t> touched_links_;
};

}  // namespace resccl
