// Shared helpers for the benchmark harnesses.
//
// `paper` regenerates every table and figure of the paper's evaluation
// (§5); the other binaries are ablations and perf harnesses. See DESIGN.md's
// per-experiment index. Output is printed via TextTable.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/bounds.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "runtime/backend.h"
#include "runtime/communicator.h"
#include "topology/topology.h"

namespace resccl::bench {

// Shared --jobs handling for the sweep benches: `--jobs=N` on the command
// line wins, otherwise RESCCL_JOBS, otherwise serial. Every bench's
// output is bit-identical across jobs values (see ParallelRows below), so
// the flag only buys wall-clock.
inline int ParseJobs(int argc, char** argv) {
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    }
  }
  return ThreadPool::ResolveJobs(jobs);
}

// The shared deterministic sweep loop: computes row(i) for i in [0, n)
// with `jobs` concurrent simulations and returns the results in index
// order. Each row() call must be independent (one or more Executes of
// prepared plans — the standard bench shape); the serial tail that prints
// the table then consumes the vector in order, so the printed output is
// byte-identical to --jobs=1.
template <typename T, typename Fn>
std::vector<T> ParallelRows(int jobs, std::size_t n, Fn&& row) {
  std::vector<T> out(n);
  ParallelFor(jobs, n, [&](std::size_t i) { out[i] = row(i); });
  return out;
}

// Aborts unless |got - want| <= tol·max(1, |want|): the benches self-check
// the analyzer/timeline invariants against the simulator's own accounting
// before printing anything.
inline void CheckClose(const char* what, double got, double want,
                       double tol = 1e-9) {
  if (std::abs(got - want) > tol * std::max(1.0, std::abs(want))) {
    std::fprintf(stderr, "self-check FAILED: %s: got %.12g want %.12g\n", what,
                 got, want);
    std::abort();
  }
}

// Compiles `algo` once; a sweep then re-executes the same artifact for
// every point instead of recompiling per point.
inline PreparedPlan PrepareOrDie(const Algorithm& algo, const Topology& topo,
                                 const CompileOptions& options,
                                 std::string_view backend_name) {
  Result<PreparedPlan> r = Prepare(algo, topo, options, backend_name);
  if (!r.ok()) {
    std::fprintf(stderr, "bench prepare failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

inline PreparedPlan PrepareOrDie(const Algorithm& algo, const Topology& topo,
                                 BackendKind kind) {
  return PrepareOrDie(algo, topo, DefaultCompileOptions(kind),
                      BackendName(kind));
}

// The one measurement path: executes a prepared plan at one launch point.
// `observe` also records the link-rate log and the lowered program in the
// report, for the critical-path analyzer (obs/critical_path.h) and exact
// link timelines (obs/timeline.h); simulated results do not change.
inline CollectiveReport MeasurePrepared(const PreparedCollective& prepared,
                                        Size buffer,
                                        Size chunk = Size::MiB(1),
                                        bool observe = false) {
  RunRequest request;
  request.launch.buffer = buffer;
  request.launch.chunk = chunk;
  request.observe = observe;
  return Execute(prepared, request);
}

// Percent of optimal: `elapsed` against the static lower bound
// (analysis/bounds.h) for `algo` at the launch geometry MeasurePrepared
// used. Soundness keeps this <= 100 on clean runs.
inline double OptimalityPct(const Topology& topo, const Algorithm& algo,
                            SimTime elapsed, Size buffer,
                            Size chunk = Size::MiB(1)) {
  RunRequest request;
  request.launch.buffer = buffer;
  request.launch.chunk = chunk;
  return ComputeLowerBound(topo, request.cost, algo, request.launch)
      .OptimalityPct(elapsed);
}

// The buffer-size grid of Fig. 6/7 (8 MB – 4 GB), optionally thinned to
// keep multi-config sweeps fast.
inline std::vector<Size> BufferGrid(bool coarse = false) {
  if (coarse) {
    return {Size::MiB(32), Size::MiB(256), Size::MiB(1024), Size::MiB(4096)};
  }
  return {Size::MiB(8),   Size::MiB(32),  Size::MiB(128),
          Size::MiB(512), Size::MiB(1024), Size::MiB(2048),
          Size::MiB(4096)};
}

inline std::string SizeLabel(Size s) {
  if (s.bytes() >= Size::GiB(1).bytes()) {
    return Fixed(static_cast<double>(s.bytes()) / Size::GiB(1).bytes(), 0) +
           "GB";
  }
  if (s.bytes() >= Size::MiB(1).bytes()) return Fixed(s.mib(), 0) + "MB";
  return Fixed(static_cast<double>(s.bytes()) / 1024.0, 0) + "KB";
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const std::string& note) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

}  // namespace resccl::bench
