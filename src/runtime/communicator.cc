#include "runtime/communicator.h"

#include <stdexcept>
#include <utility>

#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "algorithms/rooted.h"

namespace resccl {

Algorithm DefaultAlgorithm(BackendKind kind, CollectiveOp op,
                           const Topology& topo) {
  if (op == CollectiveOp::kBroadcast) {
    // The chain pipelines chunks for bandwidth; NCCL's classic default for
    // rooted collectives at small scale is the binomial tree.
    return kind == BackendKind::kNcclLike
               ? algorithms::BinomialTreeBroadcast(topo.nranks())
               : algorithms::ChainBroadcast(topo.nranks());
  }
  if (op == CollectiveOp::kReduce) {
    return kind == BackendKind::kNcclLike
               ? algorithms::BinomialTreeReduce(topo.nranks())
               : algorithms::ChainReduce(topo.nranks());
  }
  if (kind == BackendKind::kNcclLike) {
    // One ring channel per driven rail — shared with CandidateAlgorithms
    // (runtime/selector.cc) via Topology::CommChannels.
    const int channels = topo.CommChannels();
    switch (op) {
      case CollectiveOp::kAllGather:
        return algorithms::MultiChannelRingAllGather(topo, channels);
      case CollectiveOp::kReduceScatter:
        return algorithms::MultiChannelRingReduceScatter(topo, channels);
      case CollectiveOp::kAllReduce:
        return algorithms::MultiChannelRingAllReduce(topo, channels);
      default:
        break;
    }
  }
  switch (op) {
    case CollectiveOp::kAllGather:
      return algorithms::HierarchicalMeshAllGather(topo);
    case CollectiveOp::kReduceScatter:
      return algorithms::HierarchicalMeshReduceScatter(topo);
    case CollectiveOp::kAllReduce:
      return algorithms::HierarchicalMeshAllReduce(topo);
    default:
      break;
  }
  throw std::invalid_argument("unknown collective op");
}

Communicator::Communicator(TopologySpec spec, BackendKind kind,
                           std::shared_ptr<PlanCache> cache)
    : topo_(std::make_shared<const Topology>(std::move(spec))),
      kind_(kind),
      cache_(cache ? std::move(cache) : std::make_shared<PlanCache>()) {}

CollectiveReport Communicator::RunOp(CollectiveOp op,
                                     const RunRequest& request) const {
  return Run(DefaultAlgorithm(kind_, op, *topo_), request);
}

CollectiveReport Communicator::AllGather(const RunRequest& request) const {
  return RunOp(CollectiveOp::kAllGather, request);
}

CollectiveReport Communicator::AllReduce(const RunRequest& request) const {
  return RunOp(CollectiveOp::kAllReduce, request);
}

CollectiveReport Communicator::ReduceScatter(const RunRequest& request) const {
  return RunOp(CollectiveOp::kReduceScatter, request);
}

CollectiveReport Communicator::Broadcast(const RunRequest& request) const {
  return RunOp(CollectiveOp::kBroadcast, request);
}

CollectiveReport Communicator::Reduce(const RunRequest& request) const {
  return RunOp(CollectiveOp::kReduce, request);
}

CollectiveReport Communicator::Run(const Algorithm& algo,
                                   const RunRequest& request) const {
  Result<PlanCache::Lookup> got = cache_->GetOrPrepare(
      algo, topo_, DefaultCompileOptions(kind_), BackendName(kind_));
  if (!got.ok()) {
    throw std::invalid_argument(got.status().ToString());
  }
  return exec_.Execute(got.value().plan, request);
}

}  // namespace resccl
