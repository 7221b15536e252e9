// N-level hierarchical collective composition (HiCCL-style).
//
// Generalizes the two-level Hierarchical Mesh algorithms (hierarchical.h,
// Appendix A) to the full fabric hierarchy: node → rack → pod → cluster.
// The composer resolves the topology into levels (innermost first, sizes
// > 1 only), picks a primitive per level, and emits a reduce-scatter
// and/or all-gather pass through the levels:
//
//   * ReduceScatter runs the levels inside-out: each level reduces every
//     chunk onto the member holding the chunk's coordinate, so after the
//     outermost level chunk c is fully reduced at its owner rank.
//   * AllGather mirrors outside-in: each level broadcasts the chunk from
//     the owner-coordinate member to the rest of its group.
//   * AllReduce is ReduceScatter then AllGather.
//
// Primitives: full mesh (direct sends — the NVSwitch idiom), ring
// (neighbor chains — the rail idiom: every hop of a chunk class rides one
// NIC pair), and binomial tree (log-depth — the cross-rack/spine idiom).
// Defaults: mesh within the node, ring across nodes in a rack, tree
// across racks and pods.
//
// Every inter-node transfer of chunk c runs between ranks with the same
// local GPU index j(c) = c mod gpus_per_node, so the whole chunk class
// stays on rail RailOf(j(c)) end to end — rail-aligned striping: with
// chunk count a multiple of gpus_per_node, classes cover every rail
// evenly and no NIC sees fan-in from foreign classes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "topology/topology.h"

namespace resccl::algorithms {

enum class LevelPrimitive : std::uint8_t { kAuto, kMesh, kRing, kTree };

struct CompositionSpec {
  // Per-level primitive overrides, innermost level first. Missing entries
  // and kAuto resolve to the topology-driven default (mesh / ring / tree).
  std::vector<LevelPrimitive> primitives;
  // AllReduce only: total chunk count. 0 means nranks (the ResCCLang
  // convention). Coarser counts (any positive multiple of gpus_per_node)
  // cut the transfer count roughly proportionally — the thousand-rank
  // regime runs C = nodes × gpus_per_node / k. ReduceScatter/AllGather
  // ignore this: their chunk↔rank ownership fixes nchunks = nranks.
  int chunks = 0;
};

// One resolved hierarchy level: `size` members per group, `groups` groups
// across the cluster, and the primitive that will run it.
struct HierarchyLevel {
  const char* scope = "";  // "node" | "rack" | "pod" | "cluster"
  int size = 1;
  int groups = 1;
  LevelPrimitive primitive = LevelPrimitive::kAuto;
};

// True when `topo`'s dimensions decompose exactly into the hierarchy
// (racks fill evenly, pods fill evenly) — the precondition for the
// composed algorithms; the selector only registers them when this holds.
[[nodiscard]] bool ComposableTopology(const Topology& topo);

// The resolved levels (innermost first) with primitives filled in.
[[nodiscard]] std::vector<HierarchyLevel> ResolveHierarchy(
    const Topology& topo, const CompositionSpec& spec = {});

[[nodiscard]] Algorithm ComposedAllReduce(const Topology& topo,
                                          const CompositionSpec& spec = {});
[[nodiscard]] Algorithm ComposedReduceScatter(const Topology& topo,
                                              const CompositionSpec& spec = {});
[[nodiscard]] Algorithm ComposedAllGather(const Topology& topo,
                                          const CompositionSpec& spec = {});

}  // namespace resccl::algorithms
