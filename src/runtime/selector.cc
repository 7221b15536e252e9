#include "runtime/selector.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "algorithms/recursive.h"
#include "algorithms/ring.h"
#include "algorithms/rooted.h"
#include "algorithms/tree.h"
#include "common/thread_pool.h"

namespace resccl {

namespace {

// Prepares every candidate through `cache`, or through a call-local cache
// when none is given.
std::vector<PreparedPlan> PrepareCandidates(
    const std::vector<Algorithm>& candidates, const Topology& topo,
    BackendKind backend, PlanCache* cache) {
  PlanCache local;
  if (cache == nullptr) cache = &local;
  const CompileOptions options = DefaultCompileOptions(backend);
  auto shared_topo = std::make_shared<const Topology>(topo);
  std::vector<PreparedPlan> plans;
  plans.reserve(candidates.size());
  for (const Algorithm& algo : candidates) {
    Result<PlanCache::Lookup> got =
        cache->GetOrPrepare(algo, shared_topo, options, BackendName(backend));
    if (!got.ok()) {
      throw std::invalid_argument("candidate '" + algo.name +
                                  "' failed: " + got.status().ToString());
    }
    plans.push_back(std::move(got).value().plan);
  }
  return plans;
}

// The protocols one selection scores each candidate at. An explicit
// request protocol pins the column; Protocol::kAuto expands to all three so
// the selection finds the (algorithm, protocol) pair jointly and the
// scoreboard exposes the crossover.
std::vector<Protocol> ProtocolColumns(Protocol requested) {
  if (requested == Protocol::kAuto) {
    return {Protocol::kLL, Protocol::kLL128, Protocol::kSimple};
  }
  return {requested};
}

}  // namespace

std::vector<Algorithm> CandidateAlgorithms(CollectiveOp op,
                                           const Topology& topo) {
  const int n = topo.nranks();
  // One ring channel per driven rail (Topology::CommChannels) — the shared
  // rail-aware helper; see also DefaultAlgorithm in runtime/communicator.cc.
  const int channels = topo.CommChannels();
  std::vector<Algorithm> out;
  // The N-level rail-aligned composition joins the candidate set once the
  // fabric has real hierarchy beyond one rack; on flat testbeds it would
  // collapse to the HM shapes already present.
  const bool composed =
      topo.racks() > 1 && algorithms::ComposableTopology(topo);
  switch (op) {
    case CollectiveOp::kAllGather:
      out.push_back(algorithms::HierarchicalMeshAllGather(topo));
      out.push_back(algorithms::MultiChannelRingAllGather(topo, channels));
      out.push_back(algorithms::OneShotAllGather(n));
      if (algorithms::IsPowerOfTwo(n)) {
        out.push_back(algorithms::RecursiveDoublingAllGather(n));
      }
      if (composed) out.push_back(algorithms::ComposedAllGather(topo));
      break;
    case CollectiveOp::kReduceScatter:
      out.push_back(algorithms::HierarchicalMeshReduceScatter(topo));
      out.push_back(algorithms::MultiChannelRingReduceScatter(topo, channels));
      if (composed) out.push_back(algorithms::ComposedReduceScatter(topo));
      break;
    case CollectiveOp::kAllReduce:
      out.push_back(algorithms::HierarchicalMeshAllReduce(topo));
      out.push_back(algorithms::MultiChannelRingAllReduce(topo, channels));
      out.push_back(algorithms::DoubleBinaryTreeAllReduce(n));
      if (algorithms::IsPowerOfTwo(n)) {
        out.push_back(algorithms::RecursiveHalvingDoublingAllReduce(n));
      }
      if (composed) {
        out.push_back(algorithms::ComposedAllReduce(topo));
        // Coarse-chunk variant: one chunk class per local GPU instead of
        // one per rank. Fewer, larger flows keep fan-in low on
        // oversubscribed trunks, which is where the composition earns its
        // keep; the sweep picks whichever granularity the fabric favors.
        algorithms::CompositionSpec coarse;
        coarse.chunks = topo.gpus_per_node();
        out.push_back(algorithms::ComposedAllReduce(topo, coarse));
      }
      break;
    case CollectiveOp::kBroadcast:
      out.push_back(algorithms::ChainBroadcast(n));
      out.push_back(algorithms::BinomialTreeBroadcast(n));
      break;
    case CollectiveOp::kReduce:
      out.push_back(algorithms::ChainReduce(n));
      out.push_back(algorithms::BinomialTreeReduce(n));
      break;
  }
  return out;
}

SelectionResult SelectAlgorithm(CollectiveOp op, const Topology& topo,
                                BackendKind backend, const RunRequest& request,
                                PlanCache* cache, int jobs) {
  const std::vector<Algorithm> candidates = CandidateAlgorithms(op, topo);
  if (candidates.empty()) {
    throw std::invalid_argument("no candidate algorithm for this collective");
  }
  const std::vector<PreparedPlan> plans =
      PrepareCandidates(candidates, topo, backend, cache);

  // Every (candidate, protocol) cell is one Execute of an immutable plan —
  // independent, single-threaded simulations. Run the grid through the
  // pool, collect by index, then reduce serially in candidate-major order:
  // the result is bit-identical for every jobs value.
  const std::vector<Protocol> protos = ProtocolColumns(request.launch.protocol);
  const std::size_t nproto = protos.size();
  std::vector<CollectiveReport> reports(plans.size() * nproto);
  ParallelFor(ThreadPool::ResolveJobs(jobs), reports.size(),
              [&](std::size_t cell) {
                RunRequest at = request;
                at.launch.protocol = protos[cell % nproto];
                reports[cell] = Execute(*plans[cell / nproto], at);
              });

  // Each (candidate, protocol) cell is scored against its own static lower
  // bound — candidates differ in chunk count and protocols in wire bytes,
  // so effective bytes differ per cell.
  SelectionResult result;
  bool have_best = false;
  std::size_t best_index = 0;
  for (std::size_t j = 0; j < plans.size(); ++j) {
    const PreparedCollective& c = *plans[j];
    for (std::size_t k = 0; k < nproto; ++k) {
      CollectiveReport& report = reports[j * nproto + k];
      LaunchConfig launch = request.launch;
      launch.protocol = protos[k];
      const BoundReport bound =
          ComputeLowerBound(*c.topo, CostModel{}, c.plan.algo, launch);
      result.scoreboard.push_back({c.plan.algo.name, protos[k],
                                   report.algo_bw.gbps(), report.elapsed,
                                   bound.OptimalityPct(report.elapsed)});
      if (!have_best || report.elapsed < result.report.elapsed) {
        have_best = true;
        best_index = j;
        result.report = std::move(report);
        result.bound = bound;
      }
    }
  }
  std::stable_sort(result.scoreboard.begin(), result.scoreboard.end(),
                   [](const CandidateScore& a, const CandidateScore& b) {
                     return a.elapsed < b.elapsed;
                   });
  result.algorithm = plans[best_index]->plan.algo;
  // The cells ran with explicit protocols; if the caller asked for kAuto,
  // the winner's report should still say the choice was automatic.
  if (request.launch.protocol == Protocol::kAuto) {
    result.report.protocol_auto = true;
  }
  return result;
}

}  // namespace resccl
