// Connection table: maps each (src, dst) GPU pair an algorithm uses to a
// dense connection id and caches its topology path.
//
// Two tasks have a *communication dependency* (§3) when their connections
// share any path resource — the same NVSwitch port pair, or, crucially, the
// same NIC uplink even when the GPU pairs differ (two GPUs share each NIC on
// the testbed). HPDS consults this table to keep conflicting tasks out of
// the same sub-pipeline.
#pragma once

#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "topology/topology.h"

namespace resccl {

class ConnectionTable {
 public:
  explicit ConnectionTable(const Topology& topo) : topo_(topo) {}

  // Dense id for the directed pair; registers it on first use.
  [[nodiscard]] LinkId Resolve(Rank src, Rank dst);

  [[nodiscard]] int count() const { return static_cast<int>(paths_.size()); }
  [[nodiscard]] const Path& path(LinkId id) const;
  [[nodiscard]] Rank src(LinkId id) const;
  [[nodiscard]] Rank dst(LinkId id) const;

  // The serializing resources (NICs, trunks, spine links) on the
  // connection's path, each once, in path order. Computed once in Resolve;
  // the conflict rule, the schedulers' wave occupancy and ValidateSchedule
  // all read this list.
  [[nodiscard]] const std::vector<ResourceId>& serializing(LinkId id) const;

  // True if the two connections are the same GPU pair or share a
  // serializing resource.
  [[nodiscard]] bool Conflicts(LinkId a, LinkId b) const;

  [[nodiscard]] const Topology& topology() const { return topo_; }

 private:
  const Topology& topo_;
  // (src, dst) -> id. A hash lookup costs the same however many peers a
  // rank has; one-shot AllGather gives every rank n-1 of them.
  FlatMap64 index_;
  std::vector<const Path*> paths_;
  std::vector<std::vector<ResourceId>> serializing_;
  std::vector<Rank> srcs_, dsts_;
};

}  // namespace resccl
