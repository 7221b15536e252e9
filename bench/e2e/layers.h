// Layer-by-layer passes shared by every workload.
//
// A workload reduces to its distinct cells — one prepared plan, one launch
// and optionally one fault plan — and the plans behind them. The set-up
// verifies each cell once with the data engine and keeps what the run
// produced; every later run of the cell must reproduce it bit for bit.
//
// The traced run then takes each cell apart at the public API boundaries:
//
//   CompileLayers  Compile() timed from outside (its CompileStats give the
//                  Fig. 10(a) phases), then the same steps one public
//                  core/*.h call at a time — Algorithm::Validate,
//                  DependencyGraph, HpdsScheduler::Build, ValidateSchedule,
//                  AllocateTbs, assembly — then AnalyzePlan.
//   ExecuteLayers  pass 1 runs each cell through Execute (the parent span);
//                  pass 2 runs the same cell as ResolveProtocol, LowerInto,
//                  SimMachine::RunInto (faulted, then clean) and
//                  VerifyLoweredExecution.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common.h"
#include "recorder.h"
#include "runtime/backend.h"

namespace e2e {

struct Cell {
  resccl::PreparedPlan plan;  // null for serve cells outside --trace
  resccl::RunRequest request;  // verify off; faults on faulted cells
  // Recorded from the set-up's verified run of the cell.
  std::string algorithm;
  resccl::SimTime makespan;
  resccl::SimTime clean_makespan;  // faulted cells only
  std::uint64_t events = 0;
  double algbw_gbps = 0;
  double fault_slowdown = 1.0;
  int max_tbs_per_rank = 0;
};

// Records the verified report of a cell's set-up run as the cell's
// expectation, gating on the data engine's verdict and on faulted >= clean.
void RecordVerified(Cell& cell, const resccl::CollectiveReport& report,
                    RunResult& result);

// True if `report` reproduces the cell's set-up run bit for bit.
[[nodiscard]] bool Reproduces(const Cell& cell,
                              const resccl::CollectiveReport& report);

// End-to-end simulated metrics over the cells: sim_algbw_gbps (geometric
// mean), tbs_per_rank (mean over distinct algorithms), fault_slowdown
// (geometric mean of faulted / clean makespan; 1 on clean cells).
void SetSimMetrics(RunResult& result, const std::vector<Cell>& cells);

// Per-layer counters a workload fills only when the layer is on its path;
// the others read 0.
void SetLayerDefaults(RunResult& result);

void CompileLayers(const std::vector<resccl::PreparedPlan>& plans,
                   Recorder& rec, RunResult& result);

// `one_shot` runs pass 1 through the free Execute (a throwaway ExecContext
// per call, the service's path) instead of one warm ExecContext.
void ExecuteLayers(const std::vector<Cell>& cells, bool one_shot,
                   Recorder& rec, RunResult& result);

struct LoopStats {
  std::vector<double> latency_us;
  double wall_us = 0;
  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(latency_us.size()) / (wall_us / 1e6);
  }
};

// The timed region: runs op(i, rec) back to back until `seconds` have
// elapsed, one span named `span` per op; `rec` is the recorder the op's
// child spans go to. Whatever the op returns is released after the clock
// stops — tearing down an op's product is not the op's cost.
template <typename Op>
LoopStats TimedLoop(Recorder& rec, const char* span, double seconds, Op&& op) {
  LoopStats stats;
  const double start = NowUs();
  const double deadline = start + seconds * 1e6;
  double now = start;
  for (std::uint64_t i = 0; now < deadline; ++i) {
    const double t0 = NowUs();
    const int s = rec.Open(span, t0);
    const auto stop = [&] {
      now = NowUs();
      rec.Close(s, now);
      stats.latency_us.push_back(now - t0);
    };
    if constexpr (std::is_void_v<
                      std::invoke_result_t<Op&, std::uint64_t, Recorder&>>) {
      op(i, rec);
      stop();
    } else {
      [[maybe_unused]] const auto product = op(i, rec);
      stop();
    }
  }
  stats.wall_us = now - start;
  return stats;
}

// Untraced run: one loop over the whole --seconds sets the end-to-end op
// metrics; `cell_of_op`, which the op fills as it goes, names each op's
// cell (empty: one cell). Traced run: half the time untraced, half traced,
// and the gap between their throughputs is trace.overhead_frac. Either way
// the loops count in `attempted`.
template <typename Op>
void RunTimedRegion(const Options& opts, Recorder& rec, RunResult& result,
                    const char* span, Op&& op,
                    const std::vector<std::size_t>& cell_of_op) {
  if (!opts.trace) {
    const LoopStats loop = TimedLoop(rec, span, opts.seconds, op);
    SetOpMetrics(result, loop.latency_us, cell_of_op);
    result.attempted += loop.latency_us.size();
    return;
  }
  Recorder off(false);
  SetAllocCounting(false);
  const LoopStats plain = TimedLoop(off, span, opts.seconds / 2, op);
  SetAllocCounting(true);
  const LoopStats traced = TimedLoop(rec, span, opts.seconds / 2, op);
  result.Set("trace.overhead_frac", plain.ops_per_s() / traced.ops_per_s() - 1,
             "frac");
  result.attempted += plain.latency_us.size() + traced.latency_us.size();
}

}  // namespace e2e
