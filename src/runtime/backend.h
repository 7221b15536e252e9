// Backend facade: the Prepare/Execute run path.
//
// ResCCL's workflow is offline (§4.1, §5.3): compile once per (algorithm,
// topology), replay the artifact for the whole job. The run path mirrors
// that split:
//
//   Prepare   compile + TB-allocate + lower — everything that depends only
//             on (algorithm, topology, options). Returns an immutable
//             shared artifact, PreparedCollective.
//   Execute   simulate + verify one request against a prepared artifact.
//             Const and thread-safe: any number of threads may Execute the
//             same PreparedCollective concurrently.
//
// RunCollective / RunCollectiveWithOptions remain as one-shot conveniences
// (Prepare + Execute back to back). Repeated traffic should Prepare once —
// or go through Communicator / PlanCache, which memoize prepared plans.
//
// Three backend personalities reproduce the paper's comparison:
//
//   kResCCL     HPDS schedule, state-based TB merging, task-level
//               execution, directly generated kernels (§4).
//   kMscclLike  stage-level execution with per-stage channels
//               (connection-based TBs per stage) and a runtime interpreter
//               — the MSCCL/MSCCLang behaviour of §2.
//   kNcclLike   algorithm-level execution (a global barrier between
//               micro-batches), connection-based TBs, compiled-in kernels —
//               vendor-library behaviour. Pair it with the multi-channel
//               ring algorithms for a faithful NCCL baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/compiler.h"
#include "runtime/data_engine.h"
#include "runtime/lowering.h"
#include "sim/cost_model.h"
#include "sim/faults.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl {

enum class BackendKind : std::uint8_t { kResCCL, kMscclLike, kNcclLike };

[[nodiscard]] constexpr const char* BackendName(BackendKind k) {
  switch (k) {
    case BackendKind::kResCCL: return "ResCCL";
    case BackendKind::kMscclLike: return "MSCCL";
    case BackendKind::kNcclLike: return "NCCL";
  }
  return "?";
}

// The CompileOptions each backend personality uses by default.
[[nodiscard]] CompileOptions DefaultCompileOptions(BackendKind kind);

struct RunRequest {
  LaunchConfig launch;
  CostModel cost;
  bool verify = false;       // run the data engine afterwards
  int verify_elems = 2;      // elements per chunk in the data engine
  // Execute-time fabric perturbation (sim/faults.h). Empty = clean run.
  // Faults never enter the compile fingerprint, so cached prepared plans
  // are reused across fault scenarios.
  FaultPlan faults;
  // Record observability extras for this run: the per-resource rate log
  // (SimRunReport::link_rates, feeding obs/timeline.h) and the lowered
  // program in the report (CollectiveReport::lowered, feeding
  // obs/critical_path.h and trace export). Never changes any simulated
  // result — it only adds recording.
  bool observe = false;
};

struct LinkUtilization {
  double avg = 0;   // mean busy fraction over links that carried data
  double min = 1;
  double max = 0;
  int carriers = 0; // links that carried any data
};

// Busy fraction and bytes over the NIC up/down links of one rail, across
// every node. A rail-aligned algorithm shows near-equal rows; skew here is
// the first sign of a fan-in hot spot (one NIC serving foreign traffic).
struct RailUtilization {
  int rail = 0;
  std::int64_t bytes = 0;
  double avg_busy_frac = 0;
  double max_busy_frac = 0;
  int carriers = 0;  // NIC links on this rail that carried data
};

// Outcome of a faulted Execute (RunRequest.faults non-empty): the same
// lowered program is also run clean so the report can state how much the
// schedule absorbed. Worst-rank fields describe the straggling rank — the
// rank whose last TB finishes latest.
struct FaultImpact {
  bool faulted = false;
  SimTime clean_makespan;          // same plan + launch, no faults
  double slowdown_vs_clean = 1.0;  // faulted makespan / clean makespan
  SimTime total_stall;             // sum of per-TB fault_stall
  Rank worst_rank = kInvalidRank;
  SimTime worst_rank_finish;
  SimTime worst_rank_stall;        // fault_stall summed over that rank's TBs
  double worst_rank_idle = 0.0;    // sync / finish over that rank's TBs
};

struct CollectiveReport {
  std::string backend;
  std::string algorithm;
  SimTime elapsed;
  Bandwidth algo_bw;         // buffer bytes / elapsed (§5.2's metric)
  // The protocol the run actually used: the request's, or the
  // ResolveProtocol pick when the request asked for Protocol::kAuto (in
  // which case protocol_auto records that the choice was automatic).
  Protocol protocol = Protocol::kSimple;
  bool protocol_auto = false;
  int nmicrobatches = 0;
  int total_tbs = 0;
  int max_tbs_per_rank = 0;
  SimRunReport sim;          // per-TB busy/sync/overhead + transfer times
  LinkUtilization links;
  std::vector<RailUtilization> rails;  // one row per rail that carried data
  CompileStats compile;
  FaultImpact fault;            // populated when RunRequest.faults non-empty
  bool plan_cache_hit = false;  // plan served without compiling in this call
  double prepare_us = 0;        // wall-clock spent preparing for this call
  bool verified = false;     // only meaningful when RunRequest.verify
  std::string verify_error;
  // The lowered program this report was simulated from; populated only
  // when RunRequest.observe, so callers can run the critical-path analyzer
  // or export a trace without re-lowering.
  std::shared_ptr<const LoweredProgram> lowered;
};

// The immutable compiled artifact: the plan plus the topology it was
// compiled for. Built once by Prepare, shared by reference thereafter —
// nothing mutates it, so concurrent Execute calls need no synchronization.
struct PreparedCollective {
  std::shared_ptr<const Topology> topo;
  CompiledCollective plan;
  std::string backend;    // label stamped into reports ("ResCCL", ...)
  double prepare_us = 0;  // wall-clock of the Prepare that built this
};

using PreparedPlan = std::shared_ptr<const PreparedCollective>;

// Compiles `algo` for `topo` under `options` into a reusable artifact.
// Returns InvalidArgument for malformed algorithms; throws on internal
// errors. With options.strict_verify set, the static plan verifier
// (analysis/analyzer.h) runs over the compiled plan before the artifact is
// published — FailedPrecondition on any error-severity diagnostic, and the
// verification wall-clock lands in CompileStats::verify_us. The overload
// taking `const Topology&` copies the topology into the artifact; pass a
// shared_ptr to share one topology across many plans.
[[nodiscard]] Result<PreparedPlan> Prepare(
    const Algorithm& algo, std::shared_ptr<const Topology> topo,
    const CompileOptions& options, std::string_view backend_name = "custom");
[[nodiscard]] Result<PreparedPlan> Prepare(
    const Algorithm& algo, const Topology& topo, const CompileOptions& options,
    std::string_view backend_name = "custom");
[[nodiscard]] Result<PreparedPlan> Prepare(const Algorithm& algo,
                                           const Topology& topo,
                                           BackendKind kind);

// Simulates (and optionally verifies) one request against a prepared
// artifact. Const and thread-safe on `prepared`; never recompiles. The
// report's `prepare_us` carries the artifact's original build cost and
// `plan_cache_hit` stays false — callers that memoize plans (Communicator,
// PlanCache users) overwrite both with this-call values. A non-empty
// `request.faults` perturbs this run only (the artifact is untouched) and
// fills `report.fault` with the faulted-vs-clean comparison.
[[nodiscard]] CollectiveReport Execute(const PreparedCollective& prepared,
                                       const RunRequest& request);

// One-shot conveniences: Prepare + Execute per call. Executes `algo` on
// `topo` under the given backend. Throws on internal errors (invalid
// schedules, deadlocks); returns InvalidArgument for malformed algorithms.
[[nodiscard]] Result<CollectiveReport> RunCollective(const Algorithm& algo,
                                                     const Topology& topo,
                                                     BackendKind kind,
                                                     const RunRequest& request);

// Variant taking explicit compile options (for ablations: scheduler choice,
// TB policy, engine, stage count).
[[nodiscard]] Result<CollectiveReport> RunCollectiveWithOptions(
    const Algorithm& algo, const Topology& topo, const CompileOptions& options,
    const RunRequest& request, std::string_view backend_name = "custom");

}  // namespace resccl
