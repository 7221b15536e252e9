#include "core/step_order.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "core/wave_occupancy.h"

namespace resccl {

Schedule StepOrderScheduler::Build(const DependencyGraph& dag,
                                   const ConnectionTable& connections) {
  const int ntasks = dag.ntasks();
  // Tasks in (step, program-order): stable sort keeps authoring order
  // within a step.
  std::vector<TaskId> order(static_cast<std::size_t>(ntasks));
  for (int t = 0; t < ntasks; ++t) order[static_cast<std::size_t>(t)] = TaskId(t);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return dag.node(a).transfer.step < dag.node(b).transfer.step;
  });

  WaveOccupancy occupancy(connections);
  Schedule schedule;
  std::vector<TaskId> pending = std::move(order);

  // Repeatedly sweep the remaining tasks in as-written order, taking what
  // fits in the current sub-wave. Dependencies never point forward in the
  // (step, program) order, so a task whose predecessors are unscheduled is
  // simply deferred to a later sweep by the conflict rule below.
  std::vector<bool> scheduled(static_cast<std::size_t>(ntasks), false);
  std::vector<int> preds_left(static_cast<std::size_t>(ntasks));
  for (int t = 0; t < ntasks; ++t) {
    preds_left[static_cast<std::size_t>(t)] =
        static_cast<int>(dag.node(TaskId(t)).preds.size());
  }

  std::size_t remaining = pending.size();
  while (remaining > 0) {
    std::vector<TaskId> wave;
    occupancy.Clear();
    for (TaskId t : pending) {
      if (scheduled[static_cast<std::size_t>(t.value)]) continue;
      if (preds_left[static_cast<std::size_t>(t.value)] > 0) continue;
      const LinkId link = dag.node(t).connection;
      if (occupancy.ConflictsWith(link)) continue;
      occupancy.Occupy(link);
      wave.push_back(t);
      scheduled[static_cast<std::size_t>(t.value)] = true;
      --remaining;
    }
    // Unlock successors only at the wave boundary: within one as-written
    // step everything is concurrent, chains do not telescope.
    for (TaskId t : wave) {
      for (TaskId succ : dag.node(t).succs) {
        --preds_left[static_cast<std::size_t>(succ.value)];
      }
    }
    RESCCL_CHECK_MSG(!wave.empty(),
                     "step-order made no progress — dependency cycle?");
    schedule.sub_pipelines.push_back(std::move(wave));
  }
  return schedule;
}

}  // namespace resccl
