// Multi-job co-execution.
//
// §4.4 argues that ResCCL's schedule-level limit on simultaneous
// connections per link makes collectives degrade gracefully under
// intra-job *and* cross-job network contention. This module makes that
// measurable: several independent collectives (separate communicators,
// separate TBs) share the cluster as one ExecContext co-run (exec_context.h,
// which also takes faults and observe mode), and each job's completion time
// is reported next to its isolated runtime.
//
// Jobs prepare through a PlanCache — the caller's, shared across calls, or
// a call-local one — so co-scheduled jobs running the same (algorithm,
// options) share one compiled artifact instead of compiling per job; the
// cache's Stats count those compiles.
#pragma once

#include <string>
#include <vector>

#include "runtime/backend.h"
#include "runtime/plan_cache.h"

namespace resccl {

struct JobSpec {
  std::string name;
  Algorithm algorithm;
  CompileOptions options;
  LaunchConfig launch;
};

struct JobOutcome {
  std::string name;
  SimTime co_run;        // completion time when sharing the cluster
  SimTime isolated;      // completion time alone on the cluster
  double slowdown = 0;   // co_run / isolated
  bool verified = false;
};

struct CoRunReport {
  std::vector<JobOutcome> jobs;
  CollectiveReport merged;  // the co-run's own report; makespan is `elapsed`
};

// Runs all jobs concurrently on `topo` (kick-off at t=0). Every job is also
// run in isolation for the slowdown baseline, and each job's data movement
// is verified through the data engine. All jobs prepare through `cache`
// (one compile per distinct plan across jobs and calls); a null `cache`
// means a call-local one (one compile per distinct plan within the call).
// Throws std::invalid_argument on an empty job list or a compile error.
//
// `sim_jobs` parallelizes the isolated baselines (an ExecContext each) over
// the shared thread pool; outcomes are collected by job index, so any value
// is bit-identical to the serial path. 0 (the default) resolves through
// RESCCL_JOBS and falls back to serial. The co-run and each baseline publish
// as Executes of their own.
[[nodiscard]] CoRunReport RunConcurrently(const std::vector<JobSpec>& jobs,
                                          const Topology& topo,
                                          PlanCache* cache = nullptr,
                                          int sim_jobs = 0);

}  // namespace resccl
