#include "runtime/communicator.h"

#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "algorithms/catalog.h"

namespace resccl {

namespace {

// Catalog names per CollectiveOp: NCCL-like runs multi-channel rings and
// NCCL's classic small-scale rooted default, the binomial tree; ResCCL and
// MSCCL run the hierarchical-mesh expert algorithms and pipelined chains.
constexpr std::string_view kDefaults[][2] = {
    {"ring_mc_allgather", "hm_allgather"},
    {"ring_mc_reducescatter", "hm_reducescatter"},
    {"ring_mc_allreduce", "hm_allreduce"},
    {"binomial_broadcast", "chain_broadcast"},
    {"binomial_reduce", "chain_reduce"},
};

}  // namespace

Algorithm DefaultAlgorithm(BackendKind kind, CollectiveOp op,
                           const Topology& topo) {
  const std::size_t column = kind == BackendKind::kNcclLike ? 0 : 1;
  Result<Algorithm> algo = algorithms::MakeAlgorithm(
      kDefaults[static_cast<std::size_t>(op)][column], topo);
  if (!algo.ok()) throw std::invalid_argument(algo.status().message());
  return std::move(algo).value();
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
