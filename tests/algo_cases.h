// Shared labeled algorithm-factory table for the property suites: every
// library algorithm that runs on an arbitrary topology (20 entries). Used
// by the fault-injection sweep (test_faults_property.cc), the
// observability sweep (test_obs_property.cc), the bound soundness sweep
// (test_bounds_property.cc) and the fluid reference sweep
// (test_fluid_reference.cc) so all cover the identical algorithm library.
// The last two also share the topology table below.
#pragma once

#include <string>
#include <vector>

#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "algorithms/recursive.h"
#include "algorithms/ring.h"
#include "algorithms/synthesized.h"
#include "algorithms/tree.h"
#include "topology/topology.h"

namespace resccl::tests {

struct AlgoCase {
  std::string label;
  Algorithm (*make)(const Topology&);
};

inline std::vector<AlgoCase> AlgorithmCases() {
  return {
      {"ring_ag",
       [](const Topology& t) { return algorithms::RingAllGather(t.nranks()); }},
      {"ring_rs",
       [](const Topology& t) {
         return algorithms::RingReduceScatter(t.nranks());
       }},
      {"ring_ar",
       [](const Topology& t) { return algorithms::RingAllReduce(t.nranks()); }},
      {"mc_ring_ag",
       [](const Topology& t) {
         return algorithms::MultiChannelRingAllGather(t, t.CommChannels());
       }},
      {"mc_ring_rs",
       [](const Topology& t) {
         return algorithms::MultiChannelRingReduceScatter(t, t.CommChannels());
       }},
      {"mc_ring_ar",
       [](const Topology& t) {
         return algorithms::MultiChannelRingAllReduce(t, t.CommChannels());
       }},
      {"tree_ar",
       [](const Topology& t) {
         return algorithms::DoubleBinaryTreeAllReduce(t.nranks());
       }},
      {"rhd_ar",
       [](const Topology& t) {
         return algorithms::RecursiveHalvingDoublingAllReduce(t.nranks());
       }},
      {"rd_ag",
       [](const Topology& t) {
         return algorithms::RecursiveDoublingAllGather(t.nranks());
       }},
      {"oneshot_ag",
       [](const Topology& t) {
         return algorithms::OneShotAllGather(t.nranks());
       }},
      {"hm_ag", algorithms::HierarchicalMeshAllGather},
      {"hm_rs", algorithms::HierarchicalMeshReduceScatter},
      {"hm_ar", algorithms::HierarchicalMeshAllReduce},
      {"hc_ag",
       [](const Topology& t) { return algorithms::ComposedAllGather(t); }},
      {"hc_rs",
       [](const Topology& t) { return algorithms::ComposedReduceScatter(t); }},
      {"hc_ar",
       [](const Topology& t) { return algorithms::ComposedAllReduce(t); }},
      {"taccl_ag", algorithms::TacclLikeAllGather},
      {"taccl_ar", algorithms::TacclLikeAllReduce},
      {"teccl_ag", algorithms::TecclLikeAllGather},
      {"teccl_ar", algorithms::TecclLikeAllReduce},
  };
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
