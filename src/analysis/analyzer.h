// Static plan verification: prove a compiled plan safe before Execute.
//
// The only correctness signals used to be dynamic — SimMachine throws on
// deadlock mid-run, and data verification needs a full engine replay. A
// cached plan can reach Execute without ever having been simulated, and a
// saved .plan file (core/plan_io.h) may be corrupted or hand-edited before
// `resccl lint` reads it. AnalyzePlan() closes that gap with a purely
// static pass over CompiledCollective + LoweredProgram (no simulation, no
// data movement):
//
//   structure      indices in range, waves cover every task exactly once,
//                  TB refs consistent with the algorithm and stage map —
//                  the preconditions Lower() and SimMachine otherwise
//                  enforce with internal-invariant throws.
//   rendezvous     every transfer declaration has exactly one send-side and
//                  one recv-side instruction, each on a TB of the right
//                  rank; barrier arrival counts match their party counts.
//                  (Both sides reference the same declaration, so chunk,
//                  size, and protocol agreement is by construction; the
//                  checks cover multiplicity and placement.)
//   deadlock       the wait-for graph induced by per-TB FIFO issue order,
//                  cross-TB rendezvous, data dependencies, and barriers is
//                  acyclic; cycles are reported with a witness path in the
//                  shared sim/witness.h vocabulary.
//   hazard         every RAW/WAW/WAR pair on a (chunk, rank) buffer slot —
//                  recomputed with the sweep of src/core/dag.cc as the
//                  spec — is ordered by the plan's dependency edges.
//   tb-merge       connection active intervals are independently recomputed
//                  with the allocator's timeline model (src/core/tb_alloc.h,
//                  Eq. 7) and no TB holds two overlapping streams.
//   postcondition  an abstract replay over multisets of contributing ranks
//                  shows every rank ends holding exactly the chunks its
//                  CollectiveOp requires.
//   channel-capacity
//                  the per-(rank, peer) channel pool
//                  (TopologySpec::channels_per_peer) holds every stream the
//                  plan opens on one (rank, peer, direction) — stage-level
//                  execution opens one per stage.
//
// tb-merge and channel-capacity are the rules that need a Topology (path
// latencies / bandwidths feed the timeline; the topology sizes the channel
// pool); pass nullptr to skip both — the report says so via
// tb_merge_checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "runtime/lowering.h"
#include "topology/topology.h"

namespace resccl {

// Stable rule identifiers, used in diagnostics, lint output, and tests.
namespace rules {
inline constexpr const char* kStructure = "structure";
inline constexpr const char* kRendezvous = "rendezvous";
inline constexpr const char* kDeadlock = "deadlock";
inline constexpr const char* kHazard = "hazard";
inline constexpr const char* kTbMerge = "tb-merge";
inline constexpr const char* kPostcondition = "postcondition";
inline constexpr const char* kChannelCapacity = "channel-capacity";
}  // namespace rules

// kError fails strict verification and flips lint's exit code; kWarning is
// a correctness smell that does neither; kAdvice is the performance-lint
// class (analysis/perf_rules.h) — purely advisory, opt-in strictness via
// `resccl lint --strict-perf`.
enum class DiagSeverity : std::uint8_t { kError, kWarning, kAdvice };

[[nodiscard]] constexpr const char* DiagSeverityName(DiagSeverity s) {
  switch (s) {
    case DiagSeverity::kError: return "error";
    case DiagSeverity::kWarning: return "warning";
    case DiagSeverity::kAdvice: return "advice";
  }
  return "?";
}

// One analyzer finding: which rule fired, where, and the evidence chain.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  std::string rule_id;   // one of rules::k*
  std::string location;  // "task#12", "tb#3 instr#7", "preds", ...
  std::string witness;   // human-readable evidence (wait-for chain, ...)
};

// Wall-clock of one analyzer check. `rule` is a rules::k* id, "lower" for
// the canonical lowering of the AnalyzePlan(plan, topo) overload, or
// "lowered-structure" for the structure pass over the lowered program
// (whose diagnostics carry rule id `structure`).
struct RuleTime {
  const char* rule = "";
  double us = 0;
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  double analysis_us = 0;
  // Per-check wall-clock in run order: structure, lower, hazard,
  // postcondition, lowered-structure, rendezvous, deadlock, tb-merge,
  // channel-capacity. A check that did not run has no entry.
  std::vector<RuleTime> rule_us;
  bool tb_merge_checked = false;  // false when no topology was supplied

  [[nodiscard]] int errors() const;
  [[nodiscard]] int warnings() const;
  [[nodiscard]] int advice() const;
  [[nodiscard]] bool clean() const { return errors() == 0; }
  // "clean", "clean (tb-merge skipped: no topology)", or
  // "2 error(s); first: [deadlock] wait-for graph: ..." cut to 240 chars.
  [[nodiscard]] std::string Summary() const;
};

// Verifies `plan` against the lowered program the runtime would execute.
// Never throws on plans that passed plan_io's LoadPlan (or came out of
// Compile): structural problems become diagnostics, not exceptions.
[[nodiscard]] AnalysisReport AnalyzePlan(const CompiledCollective& plan,
                                         const LoweredProgram& lowered,
                                         const Topology* topo = nullptr);

// Convenience overload: lowers `plan` with a canonical two-micro-batch
// launch first (enough to exercise cross-micro-batch interleavings in every
// execution mode), then analyzes. If the plan's structure is too broken to
// lower safely, the lowered-program rules are skipped and the structure
// diagnostics alone are returned.
[[nodiscard]] AnalysisReport AnalyzePlan(const CompiledCollective& plan,
                                         const Topology* topo = nullptr);

// JSON rendering of a report (stable schema for `resccl lint --json`).
[[nodiscard]] std::string AnalysisReportToJson(const AnalysisReport& report);

}  // namespace resccl
