// Task-level schedule: an ordered list of sub-pipelines (§4.3).
//
// Each sub-pipeline is a set of tasks that are mutually free of both data
// and communication dependencies, so their invocations can be in flight
// simultaneously; the global pipeline is the concatenation of sub-pipelines.
// Under task-level execution every scheduled task iterates over all
// micro-batches before its TB moves on — the constraint that makes one
// scheduling pass valid for every micro-batch (§3).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/dag.h"

namespace resccl {

struct Schedule {
  // sub_pipelines[i] = tasks of sub-pipeline i, the wave order of execution.
  std::vector<std::vector<TaskId>> sub_pipelines;

  [[nodiscard]] int nwaves() const {
    return static_cast<int>(sub_pipelines.size());
  }
  [[nodiscard]] int ntasks() const;

  // Wave index of each task (task id -> sub-pipeline index).
  [[nodiscard]] std::vector<int> WaveOf(int ntasks_total) const;
};

// Verifies the scheduler's three invariants against the DAG:
//   1. every task appears in exactly one sub-pipeline;
//   2. every data-dependency predecessor precedes the task in the global
//      wave-major order (an earlier sub-pipeline, or earlier within the same
//      one — dependent chains inside a sub-pipeline are what lets
//      micro-batches stream through it, Fig. 5(c));
//   3. no two tasks within one sub-pipeline have a communication dependency
//      (the same connection, or a shared serializing resource).
// Invariant 2 plus the DAG's acyclicity make the lowered TB programs
// deadlock-free: every TB issues its primitives in the same global order.
// Linear cost, O(tasks + edges + Σ serializing path length): invariant 3 is
// one stamp pass per sub-pipeline over per-connection and per-resource
// stamps, not a comparison of every pair of tasks. It does not share code
// with the schedulers' WaveOccupancy, so it stays an independent check.
// Every violation, including a task id out of range, is a Status::Internal.
[[nodiscard]] Status ValidateSchedule(const Schedule& schedule,
                                      const DependencyGraph& dag,
                                      const ConnectionTable& connections);

// Scheduling interface: HPDS, the round-robin baseline and the step-order
// scheduler (core/step_order.h) implement this.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Schedule Build(const DependencyGraph& dag,
                                       const ConnectionTable& connections) = 0;
};

}  // namespace resccl
