#include "core/compiler.h"

#include "core/step_order.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/clock.h"

namespace resccl {

Result<CompiledCollective> Compile(const Algorithm& algo,
                                   const Topology& topo,
                                   const CompileOptions& options) {
  if (Status s = algo.Validate(); !s.ok()) return s;
  if (algo.nranks != topo.nranks()) {
    return Status::InvalidArgument(
        "algorithm is for " + std::to_string(algo.nranks) +
        " ranks but topology has " + std::to_string(topo.nranks()));
  }
  if (options.nstages < 1) {
    return Status::InvalidArgument("nstages must be >= 1");
  }
  if (topo.spec().channels_per_peer < 1) {
    return Status::InvalidArgument("channels_per_peer must be >= 1");
  }
  if (options.mode == ExecutionMode::kStageLevel &&
      options.nstages > topo.spec().channels_per_peer) {
    return Status::InvalidArgument(
        "stage-level execution opens " + std::to_string(options.nstages) +
        " streams per (rank, peer) but the channel pool holds only " +
        std::to_string(topo.spec().channels_per_peer));
  }

  CompiledCollective out;
  out.algo = algo;
  out.options = options;

  // --- Analysis: build the dependency DAG (Fig. 5(b)). ---
  auto t0 = std::chrono::steady_clock::now();
  ConnectionTable connections(topo);
  DependencyGraph dag(algo, connections);
  out.stats.analysis_us = ElapsedUs(t0);

  // --- Scheduling: HPDS or the RR baseline (Fig. 5(c)-(d)). ---
  t0 = std::chrono::steady_clock::now();
  switch (options.scheduler) {
    case SchedulerKind::kHpds:
      out.schedule = HpdsScheduler().Build(dag, connections);
      break;
    case SchedulerKind::kRoundRobin:
      out.schedule = RoundRobinScheduler().Build(dag, connections);
      break;
    case SchedulerKind::kStepOrder:
      out.schedule = StepOrderScheduler().Build(dag, connections);
      break;
  }
  out.stats.scheduling_us = ElapsedUs(t0);

  t0 = std::chrono::steady_clock::now();
  const Status valid = ValidateSchedule(out.schedule, dag, connections);
  out.stats.validate_us = ElapsedUs(t0);
  RESCCL_CHECK_MSG(valid.ok(), "scheduler produced an invalid schedule: "
                                   << valid.ToString());

  // --- Allocation: stage partition and the TB plan (Fig. 5(e)). ---
  t0 = std::chrono::steady_clock::now();
  std::vector<int> stages(algo.transfers.size());
  for (std::size_t t = 0; t < stages.size(); ++t) {
    stages[t] = StageOf(out, static_cast<int>(t));
  }
  TbAllocParams alloc_params;
  alloc_params.policy = options.tb_alloc;
  alloc_params.channels_per_peer = topo.spec().channels_per_peer;
  out.tbs =
      AllocateTbs(dag, out.schedule, connections, alloc_params, stages);
  out.stats.allocation_us = ElapsedUs(t0);

  // --- Lowering: plan assembly (Fig. 5(f)). ---
  t0 = std::chrono::steady_clock::now();
  out.wave_of_task = out.schedule.WaveOf(dag.ntasks());
  out.preds.resize(static_cast<std::size_t>(dag.ntasks()));
  for (int t = 0; t < dag.ntasks(); ++t) {
    const std::span<const TaskId> preds = dag.node(TaskId(t)).preds;
    std::vector<int>& out_preds = out.preds[static_cast<std::size_t>(t)];
    out_preds.reserve(preds.size());
    for (TaskId p : preds) out_preds.push_back(p.value);
  }
  out.stats.lowering_us = ElapsedUs(t0);
  return out;
}

}  // namespace resccl
