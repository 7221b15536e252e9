// Critical-path analyzer: attributes a simulated makespan to resource
// buckets — the machine-checkable version of the paper's Fig. 12 / Table 1.
//
// The machine's per-TB accounting already tiles each TB's lifetime exactly:
// finish = overhead + sync + busy + fault_stall (event times are assigned,
// never re-derived, so the tiling is bit-exact). This analyzer goes two
// steps further using the attribution fields the machine records per
// transfer (TransferStats) and per barrier passage (BarrierWait):
//
//  1. Per-TB breakdown. Each transfer's in-flight span [start, complete]
//     decomposes into
//        α       = min(latency, span)                 startup handshake
//        bw      = min(wire_bytes / ideal_rate, span − α)
//                                                     unavoidable serialization
//                                                     at the solo rate
//        cont    = span − α − bw                      γ·L(z) sharing + fault
//                                                     capacity loss
//     where ideal_rate = min(injection cap, unfaulted path bottleneck).
//     The three terms tile the span by construction, so every TB's buckets
//     still sum to its finish — the property test asserts this across the
//     whole algorithm library.
//
//  2. Critical-chain walk. Starting from the critical TB at t = makespan,
//     walk backwards through that TB's segments; when a *sync* segment is
//     reached, jump to the peer that resolved the wait (the dependency
//     transfer that completed at that instant, the rendezvous partner that
//     arrived at that instant, or the last arriver at a barrier — all
//     matched by exact event-time equality) and continue on its timeline.
//     The chain tiles [0, makespan] with *work* segments of whoever the
//     run was actually waiting on, so its sync bucket is structurally ~0;
//     residual sync appears only when no blamer can be identified (then
//     chain_complete is false). Both views sum to the makespan within
//     1e-9 relative — asserted by AnalyzeCriticalPath itself.
//
// Works on any observed SimProgram/SimRunReport pair, including multi-job
// merges.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "sim/machine.h"

namespace resccl::obs {

struct AttributionBuckets {
  SimTime alpha;        // startup latency (Eq. 1's α term)
  SimTime bandwidth;    // bytes / solo rate (Eq. 1's β term)
  SimTime contention;   // γ·L(z) sharing + fault capacity degradation
  SimTime sync;         // rendezvous / dependency / barrier waits
  SimTime overhead;     // primitive issue + interpreter decode
  SimTime fault_stall;  // injected straggler pauses

  [[nodiscard]] SimTime Total() const {
    return alpha + bandwidth + contention + sync + overhead + fault_stall;
  }
};

struct TbBreakdown {
  int tb = -1;
  Rank rank = kInvalidRank;
  SimTime finish;
  AttributionBuckets buckets;  // Total() == finish (1e-9 relative)
};

enum class StepKind : std::uint8_t { kInflight, kOverhead, kFaultStall, kSync };

// One hop of the critical chain, in walk (time-descending) order.
struct CriticalStep {
  int tb = -1;
  int transfer = -1;  // >= 0 for kInflight
  StepKind kind = StepKind::kSync;
  SimTime begin;
  SimTime end;
};

struct CriticalPathReport {
  SimTime makespan;
  int critical_tb = -1;

  // View 1: the critical TB's own buckets (its genuine sync included) —
  // what Fig. 12 plots for the slowest TB.
  AttributionBuckets critical_tb_buckets;

  // View 2: the critical chain's buckets — sync re-attributed to the work
  // of whoever resolved each wait.
  AttributionBuckets path_buckets;
  std::vector<CriticalStep> steps;
  // False if some wait's blamer could not be identified and the span was
  // attributed to sync instead (the bucket sums still hold).
  bool chain_complete = true;

  std::vector<TbBreakdown> tbs;  // one per TB, Fig. 12's full bar chart
};

// Throws (RESCCL_CHECK) if the report is inconsistent with the program —
// both must come from the same Run — or if the run was not observed: the
// chain walk reads the per-TB timelines the machine records only under
// RunRequest.observe (SimRunReport::segments), and never replays them.
[[nodiscard]] CriticalPathReport AnalyzeCriticalPath(
    const SimProgram& program, const SimRunReport& report);

}  // namespace resccl::obs
