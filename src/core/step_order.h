// As-written execution order: the non-scheduler.
//
// Existing backends (§2.1) interpret the algorithm exactly as authored:
// steps execute in ascending order, tasks within a step in program order,
// with a step split into serial sub-waves only where tasks collide on a
// link or NIC. No cross-micro-batch optimization, no priorities, no chain
// coalescing — this is the baseline execution plan that algorithm-level and
// stage-level backends (NCCL-like, MSCCL-like) run.
#pragma once

#include "core/schedule.h"

namespace resccl {

class StepOrderScheduler {
 public:
  [[nodiscard]] Schedule Build(const DependencyGraph& dag,
                               const ConnectionTable& connections);
};

}  // namespace resccl
