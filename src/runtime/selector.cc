#include "runtime/selector.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "algorithms/catalog.h"
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
  // Catalog names in scoring order, one row per CollectiveOp. The sweep
  // picks hc_allreduce's chunk granularity (per rank or coarse) by score.
  static constexpr std::string_view kNames[][6] = {
      {"hm_allgather", "ring_mc_allgather", "oneshot_allgather",
       "rd_allgather", "hc_allgather"},
      {"hm_reducescatter", "ring_mc_reducescatter", "hc_reducescatter"},
      {"hm_allreduce", "ring_mc_allreduce", "double_binary_tree_allreduce",
       "rhd_allreduce", "hc_allreduce", "hc_allreduce_coarse"},
      {"chain_broadcast", "binomial_broadcast"},
      {"chain_reduce", "binomial_reduce"},
  };
  std::vector<Algorithm> out;
  for (const std::string_view name : kNames[static_cast<std::size_t>(op)]) {
    // The N-level rail-aligned composition joins once the fabric has real
    // hierarchy beyond one rack; on flat testbeds it would collapse to the
    // HM shapes already present.
    if (name.empty() || (topo.racks() <= 1 &&
                         algorithms::FindAlgorithm(name)->requirement ==
                             algorithms::Requirement::kComposable)) {
      continue;
    }
    // Entries whose shape requirement `topo` misses drop out.
    Result<Algorithm> algo = algorithms::MakeAlgorithm(name, topo);
    if (algo.ok()) out.push_back(std::move(algo).value());
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
