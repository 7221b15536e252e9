#include "algorithms/composition.h"

#include <array>
#include <utility>

#include "algorithms/emit_util.h"
#include "common/check.h"

namespace resccl::algorithms {

namespace {

// Mixed-radix rank geometry, innermost dimension first:
//   rank = ((pod · racks_per_pod + rack_in_pod) · nodes_per_rack
//           + node_in_rack) · gpus_per_node + gpu.
// Degenerate tiers collapse to size 1 (e.g. a flat two-tier spec has one
// "pod" holding every rack).
struct Geometry {
  std::array<int, 4> dims{};  // gpu, node-in-rack, rack-in-pod, pod

  [[nodiscard]] std::array<int, 4> Decompose(int rank) const {
    std::array<int, 4> c{};
    c[0] = rank % dims[0];
    rank /= dims[0];
    c[1] = rank % dims[1];
    rank /= dims[1];
    c[2] = rank % dims[2];
    c[3] = rank / dims[2];
    return c;
  }

  [[nodiscard]] int Compose(const std::array<int, 4>& c) const {
    return ((c[3] * dims[2] + c[2]) * dims[1] + c[1]) * dims[0] + c[0];
  }
};

Geometry MakeGeometry(const Topology& topo) {
  Geometry g;
  g.dims[0] = topo.gpus_per_node();
  // A single rack holds every node, however nodes_per_rack is set; this
  // keeps small testbeds (2 nodes, nodes_per_rack 2) composable as one
  // rack-level ring over all nodes.
  g.dims[1] = topo.racks() == 1 ? topo.nodes() : topo.spec().nodes_per_rack;
  g.dims[2] = topo.pods() == 1 ? topo.racks() : topo.spec().racks_per_pod;
  g.dims[3] = topo.pods();
  return g;
}

constexpr std::array<const char*, 4> kScopes = {"node", "rack", "pod",
                                               "cluster"};

LevelPrimitive DefaultPrimitive(int dim) {
  // Mesh over the NVSwitch, ring along the rail within a rack, binomial
  // tree across racks and pods (log-depth over the long links).
  if (dim == 0) return LevelPrimitive::kMesh;
  if (dim == 1) return LevelPrimitive::kRing;
  return LevelPrimitive::kTree;
}

int CeilLog2(int n) {
  int bits = 0;
  for (int v = n - 1; v > 0; v >>= 1) ++bits;
  return bits;
}

// Exact log2 of a power of two (the lowbit values below).
int IntLog2(int pow2) {
  int bits = 0;
  for (int v = pow2 >> 1; v > 0; v >>= 1) ++bits;
  return bits;
}

// Steps one pass of this primitive consumes per level (reduction and
// broadcast mirror each other's budget).
int StepBudget(LevelPrimitive prim, int size) {
  return prim == LevelPrimitive::kTree ? CeilLog2(size) : size - 1;
}

struct Level {
  int dim = 0;
  int size = 1;
  LevelPrimitive prim = LevelPrimitive::kAuto;
  int budget = 0;
};

std::vector<Level> ResolveLevels(const Topology& topo,
                                 const CompositionSpec& spec) {
  RESCCL_CHECK_MSG(ComposableTopology(topo),
                   "topology does not decompose into the rack/pod "
                   "hierarchy; composed algorithms need exact tiers");
  const Geometry geo = MakeGeometry(topo);
  std::vector<Level> levels;
  for (int dim = 0; dim < 4; ++dim) {
    if (geo.dims[static_cast<std::size_t>(dim)] <= 1) continue;
    Level level;
    level.dim = dim;
    level.size = geo.dims[static_cast<std::size_t>(dim)];
    const std::size_t i = levels.size();
    level.prim = i < spec.primitives.size() ? spec.primitives[i]
                                            : LevelPrimitive::kAuto;
    if (level.prim == LevelPrimitive::kAuto) {
      level.prim = DefaultPrimitive(dim);
    }
    level.budget = StepBudget(level.prim, level.size);
    levels.push_back(level);
  }
  return levels;
}

// Reduce one group onto members[owner_pos]: after these transfers the
// owner holds the sum of every member's chunk copy. Per-(dst, chunk)
// receives land on distinct steps within [base, base + budget).
void EmitGroupReduce(Algorithm& algo, const std::vector<Rank>& members,
                     int owner_pos, int chunk, LevelPrimitive prim,
                     int base) {
  const int size = static_cast<int>(members.size());
  switch (prim) {
    case LevelPrimitive::kMesh:
      // Every non-owner sends its copy straight to the owner.
      for (int offset = 0; offset + 1 < size; ++offset) {
        const int src = members[static_cast<std::size_t>(
            Mod(owner_pos + offset + 1, size))];
        Emit(algo, src, members[static_cast<std::size_t>(owner_pos)],
             base + offset, chunk, TransferOp::kRecvReduceCopy);
      }
      return;
    case LevelPrimitive::kRing:
      // The partial accumulates hop by hop and lands on the owner last.
      for (int h = 0; h + 1 < size; ++h) {
        const int src =
            members[static_cast<std::size_t>(Mod(owner_pos + 1 + h, size))];
        const int dst =
            members[static_cast<std::size_t>(Mod(owner_pos + 2 + h, size))];
        Emit(algo, src, dst, base + h, chunk, TransferOp::kRecvReduceCopy);
      }
      return;
    case LevelPrimitive::kTree:
      // Binomial tree rooted at the owner: relative index rel sends its
      // accumulated partial to rel − lowbit(rel) once its own children
      // (which sit at strictly lower step numbers) have reported.
      for (int rel = 1; rel < size; ++rel) {
        const int lowbit = rel & -rel;
        const int src =
            members[static_cast<std::size_t>(Mod(owner_pos + rel, size))];
        const int dst = members[static_cast<std::size_t>(
            Mod(owner_pos + rel - lowbit, size))];
        Emit(algo, src, dst, base + IntLog2(lowbit), chunk,
             TransferOp::kRecvReduceCopy);
      }
      return;
    case LevelPrimitive::kAuto: break;
  }
  RESCCL_CHECK_MSG(false, "unresolved level primitive");
}

// Broadcast the owner's chunk to the rest of the group — the exact mirror
// of EmitGroupReduce, with kRecv copies.
void EmitGroupBroadcast(Algorithm& algo, const std::vector<Rank>& members,
                        int owner_pos, int chunk, LevelPrimitive prim,
                        int base, int budget) {
  const int size = static_cast<int>(members.size());
  switch (prim) {
    case LevelPrimitive::kMesh:
      for (int offset = 0; offset + 1 < size; ++offset) {
        const int dst = members[static_cast<std::size_t>(
            Mod(owner_pos + offset + 1, size))];
        Emit(algo, members[static_cast<std::size_t>(owner_pos)], dst,
             base + offset, chunk, TransferOp::kRecv);
      }
      return;
    case LevelPrimitive::kRing:
      for (int h = 0; h + 1 < size; ++h) {
        const int src =
            members[static_cast<std::size_t>(Mod(owner_pos + h, size))];
        const int dst =
            members[static_cast<std::size_t>(Mod(owner_pos + h + 1, size))];
        Emit(algo, src, dst, base + h, chunk, TransferOp::kRecv);
      }
      return;
    case LevelPrimitive::kTree:
      // Reverse of the reduce tree: a member forwards to its child rel at
      // step budget − 1 − log2(lowbit(rel)), strictly after its own
      // receive.
      for (int rel = 1; rel < size; ++rel) {
        const int lowbit = rel & -rel;
        const int src = members[static_cast<std::size_t>(
            Mod(owner_pos + rel - lowbit, size))];
        const int dst =
            members[static_cast<std::size_t>(Mod(owner_pos + rel, size))];
        Emit(algo, src, dst, base + budget - 1 - IntLog2(lowbit), chunk,
             TransferOp::kRecv);
      }
      return;
    case LevelPrimitive::kAuto: break;
  }
  RESCCL_CHECK_MSG(false, "unresolved level primitive");
}

// Emits one pass over the hierarchy for every chunk: a reduce pass walks
// the levels inside-out (partials coalesce toward the owner), a broadcast
// pass outside-in (the result fans back out). Group membership at a level
// varies that level's coordinate, pins finer coordinates to the chunk
// owner's (that is where the partials live), and enumerates every
// combination of coarser coordinates (each is an independent group).
// Returns the first unused step.
int EmitPass(Algorithm& algo, const Geometry& geo,
             const std::vector<Level>& levels, int nchunks, int nranks,
             bool reduce, int base) {
  std::vector<Rank> members;
  const int nlevels = static_cast<int>(levels.size());
  for (int pass = 0; pass < nlevels; ++pass) {
    const Level& level =
        levels[static_cast<std::size_t>(reduce ? pass : nlevels - 1 - pass)];
    // Groups per chunk: every combination of the dims coarser than this
    // level's.
    int ngroups = 1;
    for (int d = level.dim + 1; d < 4; ++d) {
      ngroups *= geo.dims[static_cast<std::size_t>(d)];
    }
    for (int c = 0; c < nchunks; ++c) {
      const std::array<int, 4> owner = geo.Decompose(c % nranks);
      for (int g = 0; g < ngroups; ++g) {
        std::array<int, 4> coords = owner;
        int rest = g;
        for (int d = level.dim + 1; d < 4; ++d) {
          coords[static_cast<std::size_t>(d)] =
              rest % geo.dims[static_cast<std::size_t>(d)];
          rest /= geo.dims[static_cast<std::size_t>(d)];
        }
        members.clear();
        for (int s = 0; s < level.size; ++s) {
          coords[static_cast<std::size_t>(level.dim)] = s;
          members.push_back(geo.Compose(coords));
        }
        const int owner_pos = owner[static_cast<std::size_t>(level.dim)];
        if (reduce) {
          EmitGroupReduce(algo, members, owner_pos, c, level.prim, base);
        } else {
          EmitGroupBroadcast(algo, members, owner_pos, c, level.prim, base,
                             level.budget);
        }
      }
    }
    base += level.budget;
  }
  return base;
}

std::string PrimitiveSuffix(const std::vector<Level>& levels) {
  std::string s = "[";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) s += '.';
    // Resolved levels never hold kAuto: m(esh), r(ing) or t(ree).
    s += "amrt"[static_cast<std::size_t>(levels[i].prim)];
  }
  return s + "]";
}

}  // namespace

bool ComposableTopology(const Topology& topo) {
  if (topo.nranks() < 2) return false;
  if (topo.racks() > 1 && topo.nodes() % topo.spec().nodes_per_rack != 0) {
    return false;
  }
  if (topo.pods() > 1 && topo.racks() % topo.spec().racks_per_pod != 0) {
    return false;
  }
  return true;
}

std::vector<HierarchyLevel> ResolveHierarchy(const Topology& topo,
                                             const CompositionSpec& spec) {
  std::vector<HierarchyLevel> out;
  for (const Level& level : ResolveLevels(topo, spec)) {
    HierarchyLevel h;
    h.scope = kScopes[static_cast<std::size_t>(level.dim)];
    h.size = level.size;
    h.groups = topo.nranks() / level.size;
    h.primitive = level.prim;
    out.push_back(h);
  }
  return out;
}

Algorithm ComposedAllReduce(const Topology& topo,
                            const CompositionSpec& spec) {
  const int nranks = topo.nranks();
  const int gpus = topo.gpus_per_node();
  const int nchunks = spec.chunks > 0 ? spec.chunks : nranks;
  RESCCL_CHECK_MSG(nchunks % gpus == 0,
                   "composed allreduce chunks must stripe evenly across "
                   "the node's GPUs (and so across rails)");
  const std::vector<Level> levels = ResolveLevels(topo, spec);
  const Geometry geo = MakeGeometry(topo);

  Algorithm algo;
  algo.name = "hc_allreduce" + PrimitiveSuffix(levels);
  if (spec.chunks > 0) algo.name += "-c" + std::to_string(spec.chunks);
  algo.collective = CollectiveOp::kAllReduce;
  algo.nranks = nranks;
  algo.nchunks = nchunks;
  const int base =
      EmitPass(algo, geo, levels, nchunks, nranks, /*reduce=*/true, 0);
  EmitPass(algo, geo, levels, nchunks, nranks, /*reduce=*/false, base);
  return algo;
}

Algorithm ComposedReduceScatter(const Topology& topo,
                                const CompositionSpec& spec) {
  const int nranks = topo.nranks();
  const std::vector<Level> levels = ResolveLevels(topo, spec);
  const Geometry geo = MakeGeometry(topo);

  Algorithm algo;
  algo.name = "hc_reducescatter" + PrimitiveSuffix(levels);
  algo.collective = CollectiveOp::kReduceScatter;
  algo.nranks = nranks;
  algo.nchunks = nranks;  // chunk c homes at rank c
  EmitPass(algo, geo, levels, nranks, nranks, /*reduce=*/true, 0);
  return algo;
}

Algorithm ComposedAllGather(const Topology& topo,
                            const CompositionSpec& spec) {
  const int nranks = topo.nranks();
  const std::vector<Level> levels = ResolveLevels(topo, spec);
  const Geometry geo = MakeGeometry(topo);

  Algorithm algo;
  algo.name = "hc_allgather" + PrimitiveSuffix(levels);
  algo.collective = CollectiveOp::kAllGather;
  algo.nranks = nranks;
  algo.nchunks = nranks;  // chunk c starts at rank c
  EmitPass(algo, geo, levels, nranks, nranks, /*reduce=*/false, 0);
  return algo;
}

}  // namespace resccl::algorithms
