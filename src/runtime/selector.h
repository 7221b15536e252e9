// Algorithm auto-selection.
//
// CCLs pick the algorithm per (collective, topology, message size) — NCCL
// switches between ring and tree, latency and bandwidth protocols, by tuned
// thresholds. ResCCL's simulator makes the tuner trivial: run every
// candidate algorithm from the library under the requested backend and keep
// the fastest. The full scoreboard is returned so callers can inspect the
// crossovers.
//
// Selection follows the Prepare/Execute split: every candidate is prepared
// through a PlanCache (the caller's, or a call-local one when none is
// supplied). Selecting at several message sizes through one shared cache
// pays one compile per candidate no matter how many sizes it scores; the
// cache's Stats count those compiles.
#pragma once

#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "runtime/backend.h"
#include "runtime/plan_cache.h"

namespace resccl {

struct CandidateScore {
  std::string name;
  // The protocol this row was scored at. With an explicit request protocol
  // there is one row per candidate; with Protocol::kAuto the grid expands
  // to candidates × {LL, LL128, Simple} so the scoreboard exposes the
  // crossovers directly.
  Protocol protocol = Protocol::kSimple;
  double gbps = 0;
  SimTime elapsed;
  // Static optimality: lower bound / elapsed × 100, evaluated per
  // (candidate, protocol) at its own effective wire bytes
  // (analysis/bounds.h). ≤ 100 by soundness.
  double pct_of_optimal = 0;
};

struct SelectionResult {
  Algorithm algorithm;              // the winner
  CollectiveReport report;          // its full run report
  std::vector<CandidateScore> scoreboard;  // all candidates, best first
  BoundReport bound;  // static lower bound for the winner's launch
};

// Candidate algorithms from the catalog (algorithms/catalog.h) for `op` on
// `topo`; entries whose shape requirement `topo` misses are skipped.
[[nodiscard]] std::vector<Algorithm> CandidateAlgorithms(CollectiveOp op,
                                                         const Topology& topo);

// Simulates every candidate and returns the fastest. Plans are prepared
// through `cache` (so repeated selections share compiles); a null `cache`
// means a call-local one. Throws std::invalid_argument if no candidate
// applies.
//
// `jobs` parallelizes the candidate simulations over the shared thread
// pool (common/thread_pool.h): every (candidate, protocol) cell is an
// independent Execute of an immutable prepared plan, collected by index
// and reduced serially — so any jobs value produces a bit-identical
// result to jobs == 1. 0 (the default) resolves through RESCCL_JOBS and
// falls back to serial.
[[nodiscard]] SelectionResult SelectAlgorithm(CollectiveOp op,
                                              const Topology& topo,
                                              BackendKind backend,
                                              const RunRequest& request,
                                              PlanCache* cache = nullptr,
                                              int jobs = 0);

}  // namespace resccl
