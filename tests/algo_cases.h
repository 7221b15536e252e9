// Shared algorithm and topology tables for the property suites. The
// algorithm table is the catalog's AllGather, ReduceScatter and AllReduce
// entries (algorithms/catalog.h; 21 entries), every one of which runs on
// each TopoCases() fabric. Used by the end-to-end correctness sweep
// (test_collective_property.cc, which appends two composed variants), the
// analyzer soundness sweep (test_analysis_property.cc), the
// fault-injection sweep (test_faults_property.cc), the observability sweep
// (test_obs_property.cc), the bound soundness sweep
// (test_bounds_property.cc), the fluid reference sweep
// (test_fluid_reference.cc), the plan digest (test_compiler.cc), the plan
// round trip (test_plan_io.cc) and makespan_golden, so all cover the
// identical algorithm library. Several also share the topology table.
#pragma once

#include <string>
#include <vector>

#include "algorithms/catalog.h"
#include "topology/topology.h"

namespace resccl::tests {

using AlgoCase = algorithms::CatalogEntry;

inline std::vector<AlgoCase> AlgorithmCases() {
  std::vector<AlgoCase> cases;
  for (const algorithms::CatalogEntry& e : algorithms::Catalog()) {
    if (e.op == CollectiveOp::kAllGather ||
        e.op == CollectiveOp::kReduceScatter ||
        e.op == CollectiveOp::kAllReduce) {
      cases.push_back(e);
    }
  }
  return cases;
}

struct TopoCase {
  std::string label;
  TopologySpec (*make)();
};

// The paper testbed shape, a single homogeneous node, and an oversubscribed
// rail-aligned Clos — the binding resource is a NIC pool, the GPU fabric,
// or a thinned trunk respectively.
inline std::vector<TopoCase> TopoCases() {
  return {
      {"a100_2x4", [] { return presets::A100(2, 4); }},
      {"a100_1x8", [] { return presets::A100(1, 8); }},
      {"railclos_8x2",
       [] { return presets::RailClos(8, 2, 2, 4, /*oversubscription=*/2.0); }},
  };
}

}  // namespace resccl::tests
