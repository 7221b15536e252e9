// Data engine: numeric verification of a lowered execution.
//
// Replays the simulated run against real host buffers — every micro-batch
// gets its own BufferSet, transfers apply in simulated completion order
// (copy for recv, sum-reduction for recvReduceCopy) — and checks the final
// state against the collective's semantics. A schedule that breaks a data
// dependency, drops a transfer, or mis-routes a chunk fails here even if the
// timing simulation ran happily.
//
// Applying at completion time is equivalent to applying at start time
// because the dependency DAG's WAR/RAW edges keep any written slot free of
// concurrent readers; concurrent same-slot reductions commute.
#pragma once

#include <span>
#include <string>

#include "core/compiler.h"
#include "runtime/lowering.h"
#include "sim/machine.h"

namespace resccl {

struct VerifyResult {
  bool ok = false;
  std::string error;
};

// `transfers[i]` is the outcome of `lowered`'s transfer i (alone or co-run).
[[nodiscard]] VerifyResult VerifyLoweredExecution(
    const CompiledCollective& compiled, const LoweredProgram& lowered,
    std::span<const TransferStats> transfers, int elems_per_chunk = 2);
[[nodiscard]] inline VerifyResult VerifyLoweredExecution(
    const CompiledCollective& compiled, const LoweredProgram& lowered,
    const SimRunReport& report, int elems = 2) {
  return VerifyLoweredExecution(compiled, lowered, report.transfers, elems);
}

}  // namespace resccl
