// Perf harness for the simulator hot path (self-checking).
//
// Execute dominates every number this repo produces, and Execute's cost is
// the fluid model's re-rate cascades plus the event loop around them. This
// bench pins both down with three workloads and emits machine-readable
// metrics to BENCH_sim.json (CI compares them against a checked-in
// baseline, tools/check_perf.py):
//
//   1. Re-rate workload — the hierarchical-mesh AllReduce of Fig. 6 as a
//      4-job co-run sharing the cluster (the contended NVSwitch-style
//      regime the incremental walk targets). Reports RecomputeFlow calls
//      and binding-test walk visits per flow; check_perf.py pins the
//      counters exactly. That the walk's timing is right is
//      tests/test_fluid_reference.cc's job, on this same co-run.
//   2. Event-loop throughput — repeated Executes of the same plan;
//      events/sec is the headline regression metric.
//   3. Registry overhead — interleaved Executes with the global metrics
//      registry disabled and enabled. Asserts the event counts are
//      identical (publication never changes simulation) and that the
//      enabled registry costs <= 10% event throughput; check_perf.py pins
//      obs.registry_overhead_frac against the same cap.
//   4. Parallel sweep — a fig7-style candidates x buffers grid run with
//      --jobs=1 and with all cores. Asserts bit-identical reports, and a
//      >= 2x wall-clock speedup when the machine has >= 4 cores (on
//      smaller machines the assert is skipped but the JSON still records
//      the measured speedup).
//
// Flags: --jobs=N (sweep parallelism; default all cores),
// --require-sweep-assert (fail if the sweep wall-clock bar would be
// skipped — CI passes this so a runner downgrade can't silently disable
// the assertion), --out=PATH (default BENCH_sim.json in the current
// directory — CI runs from the repo root).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algorithms/hierarchical.h"
#include "algorithms/synthesized.h"
#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "runtime/exec_context.h"
#include "runtime/lowering.h"
#include "runtime/multi_job.h"
#include "sim/machine.h"

using namespace resccl;
using namespace resccl::bench;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Order-sensitive FNV-1a over the deterministic content of a report: any
// divergence between the serial and parallel sweep lands in a different
// hash.
void HashMix(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t HashReport(const CollectiveReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  HashMix(h, r.elapsed.us());
  HashMix(h, r.algo_bw.gbps());
  for (const TbStats& tb : r.sim.tbs) {
    HashMix(h, tb.busy.us());
    HashMix(h, tb.sync.us());
    HashMix(h, tb.overhead.us());
    HashMix(h, tb.finish.us());
  }
  for (const TransferStats& t : r.sim.transfers) {
    HashMix(h, t.start.us());
    HashMix(h, t.complete.us());
  }
  return h;
}

struct RerateMetrics {
  FluidNetwork::Stats stats;
  double rerates_per_flow = 0;
  double visits_per_flow = 0;
};

RerateMetrics RerateWorkload() {
  const Topology topo(presets::A100(2, 8));
  const CostModel cost;
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan plan = PrepareOrDie(algo, topo, BackendKind::kResCCL);

  // 4-job co-run: four copies of the collective merged into one machine
  // (runtime/multi_job.h's AppendProgram), contending for the same links —
  // the busy-resource regime §4.4 targets. Here dirty resources touch many
  // flows at once and the binding test pays off hardest.
  LaunchConfig launch;
  launch.buffer = Size::MiB(64);
  const LoweredProgram lowered = Lower(plan->plan, cost, launch);
  SimProgram merged;
  constexpr int kCoJobs = 4;
  for (int j = 0; j < kCoJobs; ++j) AppendProgram(merged, lowered.program);
  SimMachine machine(topo, cost);

  RerateMetrics m;
  m.stats = machine.Run(merged).fluid;
  Check(m.stats.flows_started > 0, "workload must start flows");
  const auto flows = static_cast<double>(m.stats.flows_started);
  m.rerates_per_flow = static_cast<double>(m.stats.recompute_calls) / flows;
  m.visits_per_flow = static_cast<double>(m.stats.walk_visits) / flows;
  // The arena must actually recycle (this workload churns through far
  // more flows than are ever concurrently active).
  Check(m.stats.flows_recycled > 0,
        "flow arena must recycle completed entries");
  return m;
}

struct ThroughputMetrics {
  std::uint64_t events = 0;
  double wall_us = 0;
  double events_per_sec = 0;
};

ThroughputMetrics ThroughputWorkload() {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan plan = PrepareOrDie(algo, topo, BackendKind::kResCCL);

  // Steady-state replay through one ExecContext: the lowered program,
  // machine, and report are reused across reps — the regime the headline
  // events/sec metric is meant to pin (an untimed warm-up run takes the
  // one-time builds).
  ExecContext ctx;
  constexpr int kReps = 24;
  RunRequest request;
  request.launch.buffer = Size::MiB(64);
  (void)ctx.Execute(plan, request);  // warm-up: build machine + lowering
  // Each rep is timed on its own and the *fastest* rep is the metric: every
  // rep does identical deterministic work, so the minimum is the run least
  // disturbed by the host (scheduler preemption, a neighboring CI job) and
  // converges where a mean would wander ±20% on a shared box. wall_us
  // reports min-rep time scaled to kReps for comparability.
  ThroughputMetrics m;
  double best_us = 0;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = NowUs();
    m.events += ctx.Execute(plan, request).sim.events;
    const double rep_us = NowUs() - t0;
    if (best_us == 0 || rep_us < best_us) best_us = rep_us;
  }
  m.wall_us = best_us * kReps;
  m.events_per_sec = static_cast<double>(m.events) / (m.wall_us / 1e6);
  return m;
}

struct ObsMetrics {
  double events_per_sec_disabled = 0;
  double events_per_sec_enabled = 0;
  double registry_overhead_frac = 0;  // 1 - enabled/disabled, floored at 0
};

// Pins the cost of the metrics registry on the Execute hot path. Disabled
// (the default for every other workload in this bench) the registry costs
// one relaxed atomic load per Execute; enabled it pays the publication
// walk. Reps interleave the two modes so frequency drift and cache state
// hit both sides equally.
ObsMetrics ObsWorkload() {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan plan = PrepareOrDie(algo, topo, BackendKind::kResCCL);
  RunRequest request;
  request.launch.buffer = Size::MiB(64);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  constexpr int kPairs = 6;
  double disabled_us = 0, enabled_us = 0;
  std::uint64_t disabled_events = 0, enabled_events = 0;
  for (int i = 0; i < kPairs; ++i) {
    reg.Enable(false);
    double t0 = NowUs();
    disabled_events += Execute(*plan, request).sim.events;
    disabled_us += NowUs() - t0;

    reg.Enable(true);
    t0 = NowUs();
    enabled_events += Execute(*plan, request).sim.events;
    enabled_us += NowUs() - t0;
  }
  reg.Enable(false);  // restore the bench-wide default

  // Publication only reads the finished report; it must never change what
  // the simulator does.
  Check(disabled_events == enabled_events,
        "metrics publication must not change simulated event counts");

  ObsMetrics m;
  m.events_per_sec_disabled =
      static_cast<double>(disabled_events) / (disabled_us / 1e6);
  m.events_per_sec_enabled =
      static_cast<double>(enabled_events) / (enabled_us / 1e6);
  m.registry_overhead_frac = std::max(
      0.0, 1.0 - m.events_per_sec_enabled / m.events_per_sec_disabled);
  // The structural bound is far smaller (a few counter/histogram updates
  // per Execute against a full simulation); 10% absorbs timer noise while
  // still catching an accidental hot-path publication.
  Check(m.registry_overhead_frac <= 0.10,
        "enabled metrics registry must cost <= 10% event throughput");
  return m;
}

struct SweepMetrics {
  std::size_t cells = 0;
  int jobs = 1;
  double serial_us = 0;
  double parallel_us = 0;
  double speedup = 0;
  bool asserted = false;  // wall-clock bar enforced (>= 4 cores)
};

SweepMetrics SweepWorkload(int jobs) {
  // The fig7 16-GPU panel: 4 synthesized algorithms x 2 backends x the
  // full buffer grid, every cell one Execute of a prepared plan.
  const Topology topo(presets::A100(2, 8));
  std::vector<PreparedPlan> plans;
  for (const Algorithm& algo :
       {algorithms::TacclLikeAllGather(topo), algorithms::TacclLikeAllReduce(topo),
        algorithms::TecclLikeAllGather(topo), algorithms::TecclLikeAllReduce(topo)}) {
    plans.push_back(PrepareOrDie(algo, topo, BackendKind::kMscclLike));
    plans.push_back(PrepareOrDie(algo, topo, BackendKind::kResCCL));
  }
  const std::vector<Size> grid = BufferGrid(false);

  SweepMetrics m;
  m.cells = plans.size() * grid.size();
  m.jobs = jobs;
  auto sweep = [&](int j) {
    std::vector<std::uint64_t> hashes(m.cells);
    const double t0 = NowUs();
    ParallelFor(j, m.cells, [&](std::size_t cell) {
      const std::size_t p = cell / grid.size();
      const std::size_t b = cell % grid.size();
      hashes[cell] = HashReport(MeasurePrepared(*plans[p], grid[b]));
    });
    const double wall = NowUs() - t0;
    return std::make_pair(wall, std::move(hashes));
  };

  auto [serial_us, serial_hashes] = sweep(1);
  auto [parallel_us, parallel_hashes] = sweep(jobs);
  m.serial_us = serial_us;
  m.parallel_us = parallel_us;
  m.speedup = serial_us / parallel_us;

  Check(serial_hashes == parallel_hashes,
        "parallel sweep must be bit-identical to --jobs=1");

  // The wall-clock bar only holds where there is hardware to parallelize
  // over; the JSON still records the measured speedup elsewhere.
  m.asserted = ThreadPool::HardwareJobs() >= 4 && jobs >= 4;
  if (m.asserted) {
    Check(m.speedup >= 2.0,
          "parallel sweep must be >= 2x faster than --jobs=1 on >= 4 cores");
  }
  return m;
}

void WriteJson(const char* path, const RerateMetrics& rr,
               const ThroughputMetrics& tp, const ObsMetrics& ob,
               const SweepMetrics& sw) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path);
    ++failures;
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": 1,\n");
  std::fprintf(f, "  \"bench\": \"micro_sim\",\n");
  std::fprintf(f, "  \"nproc\": %d,\n", ThreadPool::HardwareJobs());
  std::fprintf(f, "  \"rerate\": {\n");
  std::fprintf(f, "    \"flows\": %" PRIu64 ",\n", rr.stats.flows_started);
  std::fprintf(f, "    \"recompute_calls\": %" PRIu64 ",\n",
               rr.stats.recompute_calls);
  std::fprintf(f, "    \"walk_visits\": %" PRIu64 ",\n", rr.stats.walk_visits);
  std::fprintf(f, "    \"rerates_per_flow\": %.4f,\n", rr.rerates_per_flow);
  std::fprintf(f, "    \"visits_per_flow\": %.4f,\n", rr.visits_per_flow);
  std::fprintf(f, "    \"rate_unchanged_skips\": %" PRIu64 ",\n",
               rr.stats.rate_unchanged_skips);
  std::fprintf(f, "    \"flows_recycled\": %" PRIu64 "\n",
               rr.stats.flows_recycled);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"throughput\": {\n");
  std::fprintf(f, "    \"events\": %" PRIu64 ",\n", tp.events);
  std::fprintf(f, "    \"wall_us\": %.1f,\n", tp.wall_us);
  std::fprintf(f, "    \"events_per_sec\": %.1f\n", tp.events_per_sec);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"obs\": {\n");
  std::fprintf(f, "    \"events_per_sec_disabled\": %.1f,\n",
               ob.events_per_sec_disabled);
  std::fprintf(f, "    \"events_per_sec_enabled\": %.1f,\n",
               ob.events_per_sec_enabled);
  std::fprintf(f, "    \"registry_overhead_frac\": %.4f\n",
               ob.registry_overhead_frac);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"sweep\": {\n");
  std::fprintf(f, "    \"cells\": %zu,\n", sw.cells);
  std::fprintf(f, "    \"jobs\": %d,\n", sw.jobs);
  std::fprintf(f, "    \"serial_us\": %.1f,\n", sw.serial_us);
  std::fprintf(f, "    \"parallel_us\": %.1f,\n", sw.parallel_us);
  std::fprintf(f, "    \"speedup\": %.4f,\n", sw.speedup);
  std::fprintf(f, "    \"wall_clock_asserted\": %s\n",
               sw.asserted ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = "BENCH_sim.json";
  bool require_sweep_assert = false;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strcmp(argv[i], "--require-sweep-assert") == 0) {
      require_sweep_assert = true;
    }
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) jobs = std::atoi(argv[i] + 7);
  }
  if (jobs <= 0) jobs = ThreadPool::HardwareJobs();

  PrintHeader("micro — simulator hot-path throughput",
              "perf-regression harness (not a paper figure)", "");

  const RerateMetrics rr = RerateWorkload();
  std::printf("re-rate (4-job co-run): %" PRIu64
              " flows, %.2f recomputes/flow, %.2f walk visits/flow, %" PRIu64
              " unchanged-rate skips, %" PRIu64 " recycled flow entries\n",
              rr.stats.flows_started, rr.rerates_per_flow, rr.visits_per_flow,
              rr.stats.rate_unchanged_skips, rr.stats.flows_recycled);

  const ThroughputMetrics tp = ThroughputWorkload();
  std::printf("event loop: %.0f events/sec\n", tp.events_per_sec);

  const ObsMetrics ob = ObsWorkload();
  std::printf("obs registry: %.0f events/sec disabled, %.0f enabled "
              "(overhead %.1f%%)\n",
              ob.events_per_sec_disabled, ob.events_per_sec_enabled,
              ob.registry_overhead_frac * 100);

  const SweepMetrics sw = SweepWorkload(jobs);
  std::printf("sweep: %zu cells, serial %.0f ms, --jobs=%d %.0f ms "
              "(%.2fx)%s\n",
              sw.cells, sw.serial_us / 1e3, sw.jobs, sw.parallel_us / 1e3,
              sw.speedup, sw.asserted ? "" : " [wall-clock assert skipped]");
  // Guard against the assert silently rotting: CI passes
  // --require-sweep-assert, so a runner downgrade (or a --jobs=1 typo in
  // the workflow) that would skip the wall-clock bar fails loudly instead.
  Check(!require_sweep_assert || sw.asserted,
        "--require-sweep-assert: sweep wall-clock bar was skipped (needs "
        ">= 4 cores and --jobs >= 4)");

  WriteJson(out, rr, tp, ob, sw);
  std::printf("wrote %s\n", out);

  if (failures != 0) {
    std::fprintf(stderr, "%d perf self-check(s) failed\n", failures);
    return 1;
  }
  std::printf("all perf self-checks passed\n");
  return 0;
}
