// Hierarchical Priority-based Dynamic Scheduling — Algorithm 1 of the paper.
//
// HPDS assembles sub-pipelines by repeatedly visiting per-chunk DAGs in
// priority order. A visit contributes the chunk's currently dependency-free
// tasks that do not share a link with anything already in the sub-pipeline;
// contributing lowers the chunk's priority, so under-scheduled chunks are
// preferred next (the dynamic load balancing of §4.3). A chunk that cannot
// contribute is flagged out for the remainder of the sub-pipeline; when every
// chunk is flagged out the sub-pipeline closes and the next one starts, until
// the whole DAG is scheduled.
//
// Revisiting a chunk within one sub-pipeline lets dependent chains on
// *different* links land in the same sub-pipeline — the chains through which
// micro-batches stream, masking data-stall bubbles.
#pragma once

#include "core/schedule.h"

namespace resccl {

class HpdsScheduler {
 public:
  [[nodiscard]] Schedule Build(const DependencyGraph& dag,
                               const ConnectionTable& connections);
};

}  // namespace resccl
