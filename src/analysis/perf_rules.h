// Performance lint: a purely static cost walk over a compiled plan.
//
// The PR 3 verifier answers "is this plan safe?"; these rules answer "is it
// leaving performance on the table?" with zero simulation: the lowered
// transfer declarations are walked once, every declaration's wire bytes are
// charged to each resource on its route, and the per-resource totals are
// compared against each other and against the optimality bound
// (analysis/bounds.h). Findings reuse the verifier's witness-carrying
// Diagnostic vocabulary at the advisory severity (DiagSeverity::kAdvice):
// they never fail strict verification and never flip `resccl lint`'s exit
// code unless --strict-perf asks for it.
//
//   perf-idle-link         links of a kind that sibling transfers do use
//                          carry zero bytes (unused fabric ports, undriven
//                          NICs excluded) — capacity bought but not spent.
//   perf-rail-imbalance    NIC load concentrates on a subset of the driven
//                          rails (max/mean above 1.5) — the fan-in
//                          hot-spot signature of rail-oblivious plans.
//   perf-pipeline-starved  the launch yields fewer than 4 micro-batches,
//                          too few to hide pipeline bubbles, even though a
//                          smaller chunk would create more.
//   perf-bound-gap         the plan's statically implied cost (max resource
//                          load / capacity) is at least twice the provable
//                          lower bound.
#pragma once

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/bounds.h"
#include "core/compiler.h"
#include "runtime/lowering.h"
#include "sim/cost_model.h"
#include "topology/topology.h"

namespace resccl {

namespace rules {
inline constexpr const char* kPerfIdleLink = "perf-idle-link";
inline constexpr const char* kPerfRailImbalance = "perf-rail-imbalance";
inline constexpr const char* kPerfPipelineStarved = "perf-pipeline-starved";
inline constexpr const char* kPerfBoundGap = "perf-bound-gap";
}  // namespace rules

struct PerfReport {
  std::vector<Diagnostic> diagnostics;  // every entry is kAdvice
  // Statically implied wire bytes per topology resource, indexed by
  // ResourceId (parallel to Topology::resources()).
  std::vector<double> load_bytes;
  // The plan's own static floor: the most loaded resource's load divided
  // by its capacity. Any simulation of the plan takes at least this long.
  double static_floor_us = 0;
  BoundReport bound;
  // bound / max(static floor, bound): how close the plan could possibly
  // get to optimal, judged statically.
  double optimality_pct = 0;
  double analysis_us = 0;
  // False when the plan's rank count does not match the topology — the
  // walk is skipped and no diagnostics are produced.
  bool applicable = true;

  // "floor 120.0us vs bound 96.0us (80% of optimal), 2 advice".
  [[nodiscard]] std::string Summary() const;
};

// Walks `lowered` (the program the runtime would execute) against `topo`;
// `launch` is the geometry the plan is judged at, under the default
// CostModel the runtime simulates with.
[[nodiscard]] PerfReport AnalyzePlanPerf(const CompiledCollective& plan,
                                         const LoweredProgram& lowered,
                                         const Topology& topo,
                                         const LaunchConfig& launch = {});

// Convenience: lowers `plan` with `launch` first.
[[nodiscard]] PerfReport AnalyzePlanPerf(const CompiledCollective& plan,
                                         const Topology& topo,
                                         const LaunchConfig& launch = {});

// Stable JSON rendering (embedded by `resccl lint --perf --json`).
[[nodiscard]] std::string PerfReportToJson(const PerfReport& report);

}  // namespace resccl
