// Compiled-plan serialization.
//
// SavePlan/LoadPlan give a compiled plan a durable, inspectable form — a
// versioned, line-oriented text format carrying the algorithm IR, compile
// options, schedule, stage map, dependency lists, and the TB plan. It is the
// artifact of the offline tool chain: `resccl compile` writes it and
// `resccl lint` reads it back through LoadPlan and the static verifier
// (analysis/analyzer.h). The runtime does not replay it: the in-memory
// PlanCache recompiles instead, which is cheaper than loading and
// re-verifying the file (docs/plan_cache.md). LoadPlan validates structure
// and cross-references so a corrupted or hand-edited plan fails loudly.
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
