// Shared helpers for the benchmark harnesses.
//
// Two binaries: `paper` regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations, and `micro` runs the perf harnesses.
// See DESIGN.md's per-experiment index. Output is printed via TextTable.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
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

// Counts failed self-checks. Each experiment or section owns one and
// returns failed from its run function, so a failure anywhere makes the
// binary exit non-zero without aborting the rest of the run.
struct Checks {
  int failed = 0;
  void operator()(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failed;
    }
  }
};

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The banner printed before each experiment or section.
struct Header {
  const char* title;
  const char* paper_ref;
  const char* note;
};

inline void PrintHeader(const Header& h) {
  std::printf("=== %s ===\n", h.title);
  std::printf("Reproduces: %s\n", h.paper_ref);
  if (h.note[0] != '\0') std::printf("%s\n", h.note);
  std::printf("\n");
}

// A bench binary's parsed command line: `[--jobs=N] [flag...] [name...]`.
struct Args {
  int jobs = 0;  // --jobs=N; 0 when not given (each binary picks a default)
  std::vector<std::string_view> flags;

  bool Has(std::string_view flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }
};

// The shared main of the bench binaries: parses the command line, then
// runs the named entries of `table` in the order given (every entry, in
// table order, when none is named), each after its header. `run(entry,
// args)` returns the entry's failed self-checks. A flag outside --jobs=N
// and `extra_flags`, a --jobs value that is not a positive integer, or an
// unknown name prints a message and exits 2 before anything runs; any
// failed self-check exits 1.
template <typename Entry, std::size_t N, typename Run>
int RunNamed(const char* prog, int argc, char** argv, const Entry (&table)[N],
             std::initializer_list<std::string_view> extra_flags, Run&& run) {
  Args args;
  std::vector<const Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--jobs=")) {
      const std::string_view value = arg.substr(7);
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, args.jobs);
      if (ec != std::errc() || ptr != end || args.jobs <= 0) {
        std::fprintf(stderr, "%s: --jobs needs a positive integer, got '%s'\n",
                     prog, argv[i]);
        return 2;
      }
    } else if (arg.starts_with("-")) {
      if (std::find(extra_flags.begin(), extra_flags.end(), arg) ==
          extra_flags.end()) {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, argv[i]);
        return 2;
      }
      args.flags.push_back(arg);
    } else {
      const Entry* found = nullptr;
      for (const Entry& e : table) {
        if (e.name == arg) found = &e;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "%s: unknown name '%s'; valid names:", prog,
                     argv[i]);
        for (const Entry& e : table) {
          std::fprintf(stderr, " %.*s", static_cast<int>(e.name.size()),
                       e.name.data());
        }
        std::fprintf(stderr, "\n");
        return 2;
      }
      selected.push_back(found);
    }
  }
  if (selected.empty()) {
    for (const Entry& e : table) selected.push_back(&e);
  }
  int failed = 0;
  for (const Entry* e : selected) {
    PrintHeader(e->header);
    failed += run(*e, args);
  }
  if (failed != 0) {
    std::fprintf(stderr, "%s: %d self-check(s) failed\n", prog, failed);
    return 1;
  }
  return 0;
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
  LaunchConfig launch;
  launch.buffer = buffer;
  launch.chunk = chunk;
  return ComputeLowerBound(topo, CostModel{}, algo, launch)
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

}  // namespace resccl::bench
