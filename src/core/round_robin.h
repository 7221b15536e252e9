// Round-robin scheduling baseline (§5.3, Fig. 10(b)).
//
// The classic policy the paper compares HPDS against: chunks are visited in
// a fixed ascending order, one pass per sub-pipeline, with no priorities and
// no revisits. Dependency-free, link-compatible tasks are taken in that
// immutable sequence. Without revisits, dependent chains never coalesce into
// one sub-pipeline and under-scheduled chunks get no preference, so the
// resulting pipeline carries more bubbles than HPDS's.
#pragma once

#include "core/schedule.h"

namespace resccl {

class RoundRobinScheduler {
 public:
  [[nodiscard]] Schedule Build(const DependencyGraph& dag,
                               const ConnectionTable& connections);
};

}  // namespace resccl
