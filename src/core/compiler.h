// The ResCCL offline compiler (§4.1, Fig. 5).
//
// Pipeline:  Algorithm IR  ──Analysis──▶  dependency DAG
//            ──Scheduling──▶  sub-pipeline schedule (HPDS or RR)
//            ──Allocation──▶  TB plan (state- or connection-based)
//            ──Lowering────▶  CompiledCollective, the artifact the runtime
//                             turns into per-TB primitive programs.
//
// Per-phase wall-clock timings are recorded (Fig. 10(a)'s workflow
// breakdown); the whole pipeline runs once, offline, per algorithm and
// topology.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/algorithm.h"
#include "core/dag.h"
#include "core/hpds.h"
#include "core/round_robin.h"
#include "core/schedule.h"
#include "core/tb_alloc.h"

namespace resccl {

// How micro-batches traverse the lowered program (§2.1, §3):
//   kAlgorithmLevel — lazy: a global barrier after every micro-batch
//                     (synthesizer-backend behaviour, Eq. 3);
//   kStageLevel     — the algorithm is cut into stages with private TBs;
//                     stages pipeline micro-batches against each other but
//                     run algorithm-level internally (MSCCLang, Eq. 4);
//   kTaskLevel      — ResCCL: each TB drives one task across all
//                     micro-batches before advancing (Eq. 5).
enum class ExecutionMode : std::uint8_t { kAlgorithmLevel, kStageLevel, kTaskLevel };

// Whether the runtime interprets the schedule step by step (NCCL/MSCCL-style
// embedded interpreter, §2.2) or executes directly generated kernels (§4.5).
enum class RuntimeEngine : std::uint8_t { kInterpreter, kGeneratedKernel };

enum class SchedulerKind : std::uint8_t { kHpds, kRoundRobin, kStepOrder };

struct CompileOptions {
  SchedulerKind scheduler = SchedulerKind::kHpds;
  TbAllocPolicy tb_alloc = TbAllocPolicy::kStateBased;
  ExecutionMode mode = ExecutionMode::kTaskLevel;
  RuntimeEngine engine = RuntimeEngine::kGeneratedKernel;
  int nstages = 2;      // stage count for kStageLevel
  // Run the static plan verifier (analysis/analyzer.h) inside Prepare and
  // refuse artifacts with any error-severity diagnostic. Verification is a
  // property of this Prepare call, not of the produced plan, so the flag is
  // deliberately excluded from the plan fingerprint and from plan
  // serialization: strict and non-strict callers share cache entries.
  bool strict_verify = false;
};

// Per-phase wall-clock of the offline pipeline — the four compiler phases of
// Fig. 10(a): Analysis, Scheduling, Allocation, Lowering.
struct CompileStats {
  double analysis_us = 0;    // DAG construction
  double scheduling_us = 0;  // HPDS / RR
  double allocation_us = 0;  // stage partition + TB allocation
  double lowering_us = 0;    // plan assembly (waves, predecessor lists)
  // Static plan verification under CompileOptions::strict_verify; zero when
  // strict mode is off. Kept out of total_us(): the four phases above are
  // the paper's Fig. 10(a) breakdown, and verification is an optional
  // post-pass layered on top of them.
  double verify_us = 0;
  // ValidateSchedule, which Compile runs between Scheduling and Allocation.
  // Kept out of total_us() too, which stays the paper's four phases.
  double validate_us = 0;
  [[nodiscard]] double total_us() const {
    return analysis_us + scheduling_us + allocation_us + lowering_us;
  }
};

// Everything the runtime needs to execute a collective.
struct CompiledCollective {
  Algorithm algo;
  CompileOptions options;
  Schedule schedule;
  std::vector<int> wave_of_task;
  std::vector<std::vector<int>> preds;  // data-dependency predecessors
  TbPlan tbs;
  CompileStats stats;
};

// Stage count of `plan`: stage-level execution cuts the algorithm into
// options.nstages stages, every other mode runs it as one.
[[nodiscard]] inline int PlanStages(const CompiledCollective& plan) {
  return plan.options.mode == ExecutionMode::kStageLevel ? plan.options.nstages
                                                         : 1;
}

// The stage `task` runs in. MSCCL replicates the algorithm across channel
// instances, striping the chunks (Table 2's "Instance" parameter): each
// instance owns its chunks' tasks, gets private TBs, and runs lazily inside
// while instances pipeline against each other — which is also why the
// per-GPU TB count multiplies (§2.2's "extra channels"). Requires a valid
// algorithm and PlanStages(plan) >= 1.
[[nodiscard]] inline int StageOf(const CompiledCollective& plan, int task) {
  return plan.algo.transfers[static_cast<std::size_t>(task)].chunk %
         PlanStages(plan);
}

// Compiles `algo` for `topo`. Throws std::logic_error on internal invariant
// violations; invalid algorithms are rejected with the returned Status.
[[nodiscard]] Result<CompiledCollective> Compile(const Algorithm& algo,
                                                 const Topology& topo,
                                                 const CompileOptions& options);

}  // namespace resccl
