// ExecContext: the one Execute path.
//
// Every Execute runs here: the free Execute (backend.h) in a throwaway
// context, Communicator in its own, the scheduling service
// (service/service.h) in one per lane, RunConcurrently (multi_job.h) as a
// co-run. A context simulates N prepared plans, each with its own launch, as
// one merged program on one machine — faults, observe mode and verification
// alike for any N; N = 1, the common case, runs the plan's own program.
// State a steady-state driver would otherwise rebuild per call is hoisted:
//
//   lowered programs  one slot per job, cached per (plan, launch bytes);
//                     re-lowered in place (LowerInto) on key change, or into
//                     a fresh program while a report copy holds it.
//   merged program    N > 1: the slots' programs, index-rebased and joined;
//                     rebuilt only when a slot re-lowers or N changes.
//   SimMachine        reused, Reset rather than rebuilt, until the topology
//                     changes.
//   clean makespan    a faulted run's clean replay, memoized: replayed only
//                     when a slot re-lowers or N changes, so a context pays
//                     it once per lowering-cache entry, not once per call.
//   CollectiveReport  a member whose vectors keep their capacity.
//
// After a warm-up call, Execute with observe off and unchanged keys makes
// no heap allocation, for one plan or a co-run (tests/test_alloc_free.cc).
//
// Not thread-safe: one ExecContext per thread. The returned report reference
// is valid until the next Execute on this context or its destruction. A
// copy of it is the caller's own: its `lowered` (observe mode) is never
// rewritten by a later Execute, which lowers into a fresh program instead.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "runtime/backend.h"
#include "sim/machine.h"

namespace resccl {

// One job of a co-run: a prepared plan and the launch it runs with.
struct ExecJob {
  PreparedPlan plan;
  LaunchConfig launch;
};

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // Simulates (and optionally verifies) one request against a prepared
  // artifact — same semantics as the free Execute (backend.h).
  const CollectiveReport& Execute(const PreparedPlan& prepared,
                                  const RunRequest& request) {
    const ExecJob job{prepared, request.launch};
    return Execute(std::span<const ExecJob>(&job, 1), request);
  }

  // Co-runs `jobs` as one merged program from t = 0, each job with its own
  // launch; `request.launch` is unused. Field meanings for N > 1 are in
  // backend.h. Throws std::invalid_argument if `jobs` is empty, its plans
  // target different fabrics — compared by value, so equal topologies from
  // different Prepare calls (a PlanCache hit next to a miss) co-run fine —
  // `request.faults` names a resource that fabric lacks, or a job's launch
  // has a non-positive buffer or chunk.
  const CollectiveReport& Execute(std::span<const ExecJob> jobs,
                                  const RunRequest& request);

 private:
  using LaunchKey = std::array<std::byte, sizeof(LaunchConfig)>;

  // One job's lowering cache. `plan` is retained so pointer identity stays
  // trustworthy and the machine's topology reference never dangles;
  // `lowered` is shared so observe-mode reports hand it out without a copy.
  struct Slot {
    PreparedPlan plan;
    std::shared_ptr<LoweredProgram> lowered =
        std::make_shared<LoweredProgram>();
    LaunchKey launch_key{};
    bool valid = false;
  };
  std::vector<Slot> slots_;
  std::shared_ptr<LoweredProgram> merged_ =
      std::make_shared<LoweredProgram>();
  std::size_t merged_jobs_ = 0;  // job count merged_ was built from; 0: stale

  // The library's calibration; the machine holds a reference to it.
  const CostModel cost_;
  std::optional<SimMachine> machine_;
  const Topology* machine_topo_ = nullptr;

  std::vector<int> rank_tbs_;   // per-rank TB count scratch
  SimRunReport clean_sim_;      // a faulted run's clean replay
  std::size_t clean_jobs_ = 0;  // job count clean_sim_ replayed; 0: stale

  CollectiveReport report_;
};

}  // namespace resccl
