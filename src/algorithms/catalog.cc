#include "algorithms/catalog.h"

#include <string>

#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "algorithms/recursive.h"
#include "algorithms/ring.h"
#include "algorithms/rooted.h"
#include "algorithms/synthesized.h"
#include "algorithms/tree.h"

namespace resccl::algorithms {

namespace {

using enum CollectiveOp;
using enum Requirement;

// Adapters from each generator's parameters to the catalog's signature.
// Multi-channel rings run one channel per driven rail (PerRail).
template <Algorithm (*F)(int)>
Algorithm Ranks(const Topology& t) { return F(t.nranks()); }
template <Algorithm (*F)(int, Rank)>
Algorithm Rooted(const Topology& t) { return F(t.nranks(), 0); }
template <Algorithm (*F)(const Topology&, int)>
Algorithm PerRail(const Topology& t) { return F(t, t.CommChannels()); }
template <Algorithm (*F)(const Topology&, const CompositionSpec&)>
Algorithm Composed(const Topology& t) { return F(t, {}); }
// One chunk class per local GPU instead of one per rank: fewer, larger
// flows keep fan-in low on oversubscribed trunks.
Algorithm ComposedCoarse(const Topology& t) {
  CompositionSpec coarse;
  coarse.chunks = t.gpus_per_node();
  return ComposedAllReduce(t, coarse);
}

constexpr CatalogEntry kCatalog[] = {
    {"ring_allgather", kAllGather, Ranks<RingAllGather>},
    {"ring_reducescatter", kReduceScatter, Ranks<RingReduceScatter>},
    {"ring_allreduce", kAllReduce, Ranks<RingAllReduce>},
    {"ring_mc_allgather", kAllGather, PerRail<MultiChannelRingAllGather>},
    {"ring_mc_reducescatter", kReduceScatter,
     PerRail<MultiChannelRingReduceScatter>},
    {"ring_mc_allreduce", kAllReduce, PerRail<MultiChannelRingAllReduce>},
    {"double_binary_tree_allreduce", kAllReduce,
     Ranks<DoubleBinaryTreeAllReduce>},
    {"rhd_allreduce", kAllReduce, Ranks<RecursiveHalvingDoublingAllReduce>,
     kPowerOfTwoRanks},
    {"rd_allgather", kAllGather, Ranks<RecursiveDoublingAllGather>,
     kPowerOfTwoRanks},
    {"oneshot_allgather", kAllGather, Ranks<OneShotAllGather>},
    {"hm_allgather", kAllGather, HierarchicalMeshAllGather},
    {"hm_reducescatter", kReduceScatter, HierarchicalMeshReduceScatter},
    {"hm_allreduce", kAllReduce, HierarchicalMeshAllReduce},
    {"hc_allgather", kAllGather, Composed<ComposedAllGather>, kComposable},
    {"hc_reducescatter", kReduceScatter, Composed<ComposedReduceScatter>,
     kComposable},
    {"hc_allreduce", kAllReduce, Composed<ComposedAllReduce>, kComposable},
    {"hc_allreduce_coarse", kAllReduce, ComposedCoarse, kComposable},
    {"taccl_like_allgather", kAllGather, TacclLikeAllGather},
    {"taccl_like_allreduce", kAllReduce, TacclLikeAllReduce},
    {"teccl_like_allgather", kAllGather, TecclLikeAllGather},
    {"teccl_like_allreduce", kAllReduce, TecclLikeAllReduce},
    {"chain_broadcast", kBroadcast, Rooted<ChainBroadcast>},
    {"binomial_broadcast", kBroadcast, Rooted<BinomialTreeBroadcast>},
    {"chain_reduce", kReduce, Rooted<ChainReduce>},
    {"binomial_reduce", kReduce, Rooted<BinomialTreeReduce>},
};

bool Meets(Requirement r, const Topology& topo) {
  if (r == kComposable) return ComposableTopology(topo);
  const int n = topo.nranks();
  return n >= 2 && (r == kTwoRanks || IsPowerOfTwo(n));
}

}  // namespace

const char* RequirementName(Requirement r) {
  constexpr const char* kNames[] = {"at least 2 ranks",
                                    "a power-of-two rank count",
                                    "a composable rack hierarchy"};
  return kNames[static_cast<int>(r)];
}

std::span<const CatalogEntry> Catalog() { return kCatalog; }

const CatalogEntry* FindAlgorithm(std::string_view name) {
  for (const CatalogEntry& e : kCatalog) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Result<Algorithm> MakeAlgorithm(std::string_view name, const Topology& topo) {
  const CatalogEntry* entry = FindAlgorithm(name);
  if (entry == nullptr) {
    return Status::InvalidArgument("unknown algorithm '" + std::string(name) +
                                   "'");
  }
  if (!Meets(entry->requirement, topo)) {
    return Status::InvalidArgument(std::string(name) + " needs " +
                                   RequirementName(entry->requirement) +
                                   ", which " + topo.spec().name + " lacks");
  }
  return entry->make(topo);
}

}  // namespace resccl::algorithms
