// The algorithm catalog: one table naming every library algorithm by the
// Algorithm::name its generator stamps, with its collective and the fabric
// shape it needs. The CLI's `--algo`, the selector's candidates, the
// backends' defaults and the test sweeps all read it; a new algorithm is
// one more row in catalog.cc. Composed entries stamp their name plus the
// resolved levels, e.g. "hc_allreduce[m.r.t]"; hc_allreduce_coarse stamps
// "hc_allreduce[...]-c<gpus_per_node>".
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/status.h"
#include "core/algorithm.h"
#include "topology/topology.h"

namespace resccl::algorithms {

enum class Requirement : std::uint8_t {
  kTwoRanks,
  kPowerOfTwoRanks,  // 2, 4, 8, ...
  kComposable,       // an exact node/rack/pod hierarchy (ComposableTopology)
};

[[nodiscard]] const char* RequirementName(Requirement r);

struct CatalogEntry {
  std::string_view name;
  CollectiveOp op;
  Algorithm (*make)(const Topology&);  // asserts the requirement
  Requirement requirement = Requirement::kTwoRanks;
};

// AllGather, ReduceScatter and AllReduce entries first, then rooted ones.
[[nodiscard]] std::span<const CatalogEntry> Catalog();

// The entry named `name`, or nullptr.
[[nodiscard]] const CatalogEntry* FindAlgorithm(std::string_view name);

// InvalidArgument for an unknown name or a topology that misses the
// entry's requirement; no generator check is reachable through it.
[[nodiscard]] Result<Algorithm> MakeAlgorithm(std::string_view name,
                                              const Topology& topo);

}  // namespace resccl::algorithms
