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

struct PreparedCandidate {
  PreparedPlan plan;
  double prepare_us = 0;        // this-sweep prepare cost
  bool plan_cache_hit = false;  // served without compiling
};

// Prepares every candidate exactly once through `cache`, or through a
// call-local cache when none is given.
std::vector<PreparedCandidate> PrepareCandidates(
    const std::vector<Algorithm>& candidates, const Topology& topo,
    BackendKind backend, PlanCache* cache, PrepareStats& stats) {
  PlanCache local;
  if (cache == nullptr) cache = &local;
  const CompileOptions options = DefaultCompileOptions(backend);
  auto shared_topo = std::make_shared<const Topology>(topo);
  std::vector<PreparedCandidate> prepared;
  prepared.reserve(candidates.size());
  for (const Algorithm& algo : candidates) {
    Result<PlanCache::Lookup> got =
        cache->GetOrPrepare(algo, shared_topo, options, BackendName(backend));
    if (!got.ok()) {
      throw std::invalid_argument("candidate '" + algo.name +
                                  "' failed: " + got.status().ToString());
    }
    const PlanCache::Lookup& lookup = got.value();
    PreparedCandidate c{lookup.plan, lookup.prepare_us, lookup.hit};
    if (c.plan_cache_hit) {
      ++stats.cache_hits;
    } else {
      ++stats.prepares;
    }
    stats.prepare_us += c.prepare_us;
    prepared.push_back(std::move(c));
  }
  return prepared;
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

// Reduces one buffer size's already-computed reports (candidate-major,
// protocol-minor order) to a SelectionResult. Runs serially, in index
// order, so the outcome is independent of how the reports were produced.
// `first_point` charges the prepare cost; later sweep points report the
// plans as reused (hit, zero prepare). Each (candidate, protocol) cell is
// scored against its own static lower bound — candidates differ in chunk
// count and protocols in wire bytes, so effective bytes differ per cell.
SelectionResult SelectAtSize(const std::vector<PreparedCandidate>& prepared,
                             const std::vector<Protocol>& protos,
                             std::vector<CollectiveReport> reports,
                             const RunRequest& request, bool first_point) {
  SelectionResult result;
  bool have_best = false;
  std::size_t best_index = 0;

  for (std::size_t j = 0; j < prepared.size(); ++j) {
    const PreparedCandidate& c = prepared[j];
    for (std::size_t k = 0; k < protos.size(); ++k) {
      CollectiveReport& report = reports[j * protos.size() + k];
      report.plan_cache_hit = first_point ? c.plan_cache_hit : true;
      report.prepare_us = first_point && k == 0 ? c.prepare_us : 0.0;
      LaunchConfig launch = request.launch;
      launch.protocol = protos[k];
      const BoundReport bound = ComputeLowerBound(
          *c.plan->topo, CostModel{}, c.plan->plan.algo, launch);
      result.scoreboard.push_back({c.plan->plan.algo.name, protos[k],
                                   report.algo_bw.gbps(), report.elapsed,
                                   report.prepare_us, report.plan_cache_hit,
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
  result.algorithm = prepared[best_index].plan->plan.algo;
  // The cells ran with explicit protocols; if the caller asked for kAuto,
  // the winner's report should still say the choice was automatic.
  if (request.launch.protocol == Protocol::kAuto) {
    result.report.protocol_auto = true;
  }
  return result;
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
  SweepResult sweep = SelectAlgorithmSweep(
      op, topo, backend, request, {request.launch.buffer}, cache, jobs);
  SelectionResult result = std::move(sweep.points.front());
  result.prepare_stats = sweep.prepare_stats;
  return result;
}

SweepResult SelectAlgorithmSweep(CollectiveOp op, const Topology& topo,
                                 BackendKind backend,
                                 const RunRequest& base_request,
                                 const std::vector<Size>& buffers,
                                 PlanCache* cache, int jobs) {
  if (buffers.empty()) {
    throw std::invalid_argument("sweep needs at least one buffer size");
  }
  const std::vector<Algorithm> candidates = CandidateAlgorithms(op, topo);
  if (candidates.empty()) {
    throw std::invalid_argument("no candidate algorithm for this collective");
  }

  SweepResult sweep;
  const std::vector<PreparedCandidate> prepared = PrepareCandidates(
      candidates, topo, backend, cache, sweep.prepare_stats);

  // Every (size, candidate, protocol) cell is one Execute of an immutable
  // plan — independent, single-threaded simulations. Run the whole grid
  // through the pool, collect by index, then reduce each size serially in
  // candidate-major order: the result is bit-identical for every jobs
  // value.
  const std::vector<Protocol> protos =
      ProtocolColumns(base_request.launch.protocol);
  const std::size_t ncand = prepared.size();
  const std::size_t nproto = protos.size();
  std::vector<std::vector<CollectiveReport>> grid(buffers.size());
  for (auto& row : grid) row.resize(ncand * nproto);
  ParallelFor(ThreadPool::ResolveJobs(jobs), buffers.size() * ncand * nproto,
              [&](std::size_t cell) {
                const std::size_t i = cell / (ncand * nproto);
                const std::size_t j = (cell / nproto) % ncand;
                const std::size_t k = cell % nproto;
                RunRequest request = base_request;
                request.launch.buffer = buffers[i];
                request.launch.protocol = protos[k];
                grid[i][j * nproto + k] = Execute(*prepared[j].plan, request);
              });

  for (std::size_t i = 0; i < buffers.size(); ++i) {
    RunRequest request = base_request;
    request.launch.buffer = buffers[i];
    SelectionResult point =
        SelectAtSize(prepared, protos, std::move(grid[i]), request, i == 0);
    point.prepare_stats = sweep.prepare_stats;
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

}  // namespace resccl
