// Compiled-plan serialization.
//
// SavePlan/LoadPlan give a compiled plan a durable, inspectable form — a
// versioned, line-oriented text format carrying what Compile decides: the
// algorithm IR, compile options, schedule, dependency lists, and the TB
// plan. It is the artifact of the offline tool chain: `resccl compile`
// writes it and `resccl lint` reads it back through LoadPlan and the static
// verifier (analysis/analyzer.h). The runtime does not replay it: the
// in-memory PlanCache recompiles instead, which is cheaper than loading and
// re-verifying the file (docs/plan_cache.md). LoadPlan validates structure
// and cross-references so a corrupted or hand-edited plan fails loudly.
//
// Format v2, one record per line, fields separated by single spaces:
//
//   resccl-plan v2
//   algorithm <name> <collective> <nranks> <nchunks> <root> <ntasks>
//   t <src> <dst> <step> <chunk> <reduce 0|1>          ntasks lines
//   options <scheduler> <tb_alloc> <mode> <engine> <nstages>
//   schedule <nwaves>
//   w <count> <task>...                                nwaves lines
//   p <count> <pred>...                                ntasks lines
//   tbs <ntbs>
//   tb <rank> <nrefs> (<task> <dir 0=send|1=recv>)...  ntbs lines
//
// Nothing derivable is stored. A task's stage is StageOf (core/compiler.h);
// wave_of_task and each TB ref's wave and issue order come from the
// schedule, numbered as AllocateTbs numbers them; TBs are 16 warps wide
// (kWarpsPerTb). Any other version, v1 included, is refused with
// InvalidArgument naming it.
#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/compiler.h"

namespace resccl {

void SavePlan(const CompiledCollective& plan, std::ostream& out);
[[nodiscard]] std::string SavePlanToString(const CompiledCollective& plan);

[[nodiscard]] Result<CompiledCollective> LoadPlan(std::istream& in);
[[nodiscard]] Result<CompiledCollective> LoadPlanFromString(
    const std::string& text);

}  // namespace resccl
