// The perf harnesses in one binary, as a table of self-checking sections:
//
//   micro [--jobs=N] [--require-sweep-assert] [section...]
//
//   sim         simulator hot path: re-rates, event-loop throughput, metrics
//               registry overhead, parallel sweep (BENCH_sim.json)
//   scale       thousand-rank RailClos scaling (BENCH_scale.json)
//   service     scheduling-service load sweep (BENCH_service.json)
//   plan_cache  warm plan-cache lookup and strict-verify overhead
//
// With no name, runs every section in table order. Each JSON lands in the
// current directory; tools/check_perf.py compares it against
// bench/baselines/<bench>_baseline.json, where <bench> is the JSON's
// "bench" field (micro_sim, micro_scale, micro_service). An unknown name
// or flag, or a --jobs value that is not a positive integer, exits 2. A
// failed self-check exits 1.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "algorithms/synthesized.h"
#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "runtime/exec_context.h"
#include "service/service.h"
#include "service/workload.h"

using namespace resccl;
using namespace resccl::bench;

namespace {

// ---------------------------------------------------------------------------
// sim: the simulator hot path.
//
// Execute dominates every number this repo produces, and Execute's cost is
// the fluid model's re-rate cascades plus the event loop around them. Four
// workloads:
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
//      --jobs=1 and with --jobs=N (default all cores). Asserts
//      bit-identical reports, and a >= 2x wall-clock speedup when the
//      machine has >= 4 cores (on smaller machines the assert is skipped
//      but the JSON still records the measured speedup).
//
// --require-sweep-assert fails the section if the sweep wall-clock bar
// would be skipped, so a runner downgrade can't silently disable it.

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

RerateMetrics RerateWorkload(Checks& check) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan plan = PrepareOrDie(algo, topo, BackendKind::kResCCL);

  // 4-job co-run: four copies of the collective merged into one machine
  // (an ExecContext co-run), contending for the same links — the
  // busy-resource regime §4.4 targets. Here dirty resources touch many
  // flows at once and the binding test pays off hardest.
  LaunchConfig launch;
  launch.buffer = Size::MiB(64);
  constexpr int kCoJobs = 4;
  const std::vector<ExecJob> jobs(kCoJobs, ExecJob{plan, launch});
  ExecContext ctx;

  RerateMetrics m;
  m.stats = ctx.Execute(jobs, RunRequest{}).sim.fluid;
  check(m.stats.flows_started > 0, "workload must start flows");
  const auto flows = static_cast<double>(m.stats.flows_started);
  m.rerates_per_flow = static_cast<double>(m.stats.recompute_calls) / flows;
  m.visits_per_flow = static_cast<double>(m.stats.walk_visits) / flows;
  // The arena must actually recycle (this workload churns through far
  // more flows than are ever concurrently active).
  check(m.stats.flows_recycled > 0,
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
// (the default for every other workload in this binary) the registry costs
// one relaxed atomic load per Execute; enabled it pays the publication
// walk. Reps interleave the two modes so frequency drift and cache state
// hit both sides equally.
ObsMetrics ObsWorkload(Checks& check) {
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
  reg.Enable(false);  // restore the binary-wide default

  // Publication only reads the finished report; it must never change what
  // the simulator does.
  check(disabled_events == enabled_events,
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
  check(m.registry_overhead_frac <= 0.10,
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

SweepMetrics SweepWorkload(int jobs, Checks& check) {
  // The fig7 16-GPU panel: 4 synthesized algorithms x 2 backends x the
  // full buffer grid, every cell one Execute of a prepared plan.
  const Topology topo(presets::A100(2, 8));
  std::vector<PreparedPlan> plans;
  for (const Algorithm& algo : {algorithms::TacclLikeAllGather(topo),
                                algorithms::TacclLikeAllReduce(topo),
                                algorithms::TecclLikeAllGather(topo),
                                algorithms::TecclLikeAllReduce(topo)}) {
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

  // Best of three interleaved runs per side: a single wall-clock run per
  // side read anywhere from 1.4x to 3.8x back to back on one 4-core host,
  // and the minimum is the run least disturbed by its neighbors.
  constexpr int kRuns = 3;
  bool identical = true;
  for (int run = 0; run < kRuns; ++run) {
    auto [serial_us, serial_hashes] = sweep(1);
    auto [parallel_us, parallel_hashes] = sweep(jobs);
    identical = identical && serial_hashes == parallel_hashes;
    m.serial_us = run == 0 ? serial_us : std::min(m.serial_us, serial_us);
    m.parallel_us =
        run == 0 ? parallel_us : std::min(m.parallel_us, parallel_us);
  }
  m.speedup = m.serial_us / m.parallel_us;

  check(identical, "parallel sweep must be bit-identical to --jobs=1");

  // The wall-clock bar only holds where there is hardware to parallelize
  // over; the JSON still records the measured speedup elsewhere.
  m.asserted = ThreadPool::HardwareJobs() >= 4 && jobs >= 4;
  if (m.asserted) {
    check(m.speedup >= 2.0,
          "parallel sweep must be >= 2x faster than --jobs=1 on >= 4 cores");
  }
  return m;
}

void WriteSimJson(const char* path, const RerateMetrics& rr,
                  const ThroughputMetrics& tp, const ObsMetrics& ob,
                  const SweepMetrics& sw, Checks& check) {
  std::FILE* f = std::fopen(path, "w");
  check(f != nullptr, "cannot write the section's JSON");
  if (f == nullptr) return;
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

int Sim(const Args& args) {
  Checks check;
  const RerateMetrics rr = RerateWorkload(check);
  std::printf("re-rate (4-job co-run): %" PRIu64
              " flows, %.2f recomputes/flow, %.2f walk visits/flow, %" PRIu64
              " unchanged-rate skips, %" PRIu64 " recycled flow entries\n",
              rr.stats.flows_started, rr.rerates_per_flow, rr.visits_per_flow,
              rr.stats.rate_unchanged_skips, rr.stats.flows_recycled);

  const ThroughputMetrics tp = ThroughputWorkload();
  std::printf("event loop: %.0f events/sec\n", tp.events_per_sec);

  const ObsMetrics ob = ObsWorkload(check);
  std::printf("obs registry: %.0f events/sec disabled, %.0f enabled "
              "(overhead %.1f%%)\n",
              ob.events_per_sec_disabled, ob.events_per_sec_enabled,
              ob.registry_overhead_frac * 100);

  const int jobs = args.jobs > 0 ? args.jobs : ThreadPool::HardwareJobs();
  const SweepMetrics sw = SweepWorkload(jobs, check);
  std::printf("sweep: %zu cells, serial %.0f ms, --jobs=%d %.0f ms "
              "(%.2fx, best of 3)%s\n",
              sw.cells, sw.serial_us / 1e3, sw.jobs, sw.parallel_us / 1e3,
              sw.speedup, sw.asserted ? "" : " [wall-clock assert skipped]");
  // Guard against the assert silently rotting: CI passes
  // --require-sweep-assert, so a runner downgrade (or a --jobs=1 typo in
  // the workflow) that would skip the wall-clock bar fails loudly instead.
  check(!args.Has("--require-sweep-assert") || sw.asserted,
        "--require-sweep-assert: sweep wall-clock bar was skipped (needs "
        ">= 4 cores and --jobs >= 4)");

  WriteSimJson("BENCH_sim.json", rr, tp, ob, sw, check);
  std::printf("wrote BENCH_sim.json\n\n");
  return check.failed;
}

// ---------------------------------------------------------------------------
// scale: thousand-rank scaling.
//
// The rail-aligned Clos presets and the N-level composed collectives exist
// so the repo can reason about fabrics far beyond the paper's 32-GPU
// testbed. This section pins down that the simulator actually scales
// there: it runs the composed AllReduce on RailClos fabrics of 64, 256 and
// 1024 ranks — the 1024-rank point is the acceptance bar. Each size runs
// two workloads:
//
//   1. A solo verified Execute — the 1024-rank composed AllReduce is not
//      just simulated, the data engine replays it and checks every rank's
//      result. Events/sec from the steady-state replay is the throughput
//      headline.
//   2. A 4-job co-run (four copies of the plan merged into one machine by
//      an ExecContext co-run) — the contended regime the flow aggregation
//      targets: dirty resources touch many flows at once, so the walk's
//      cost per flow is what decides whether 1024 ranks are affordable.
//
// The walk's binding tests (walk visits) per flow must grow sub-linearly
// from 64 to 1024 ranks: under half the rank growth. A per-flow walk would
// visit every (resource, flow) incidence, so its visits/flow would track
// the per-resource flow population; the aggregated walk visits (resource,
// bucket) pairs and buckets stay few. check_perf.py also caps visits/flow
// at 1024 ranks. That the walk's timing is right is
// tests/test_fluid_reference.cc's job, on the 64-rank co-run.

// Chunk count for every size: coarse enough that 1024 ranks stay ~130k
// transfers, a multiple of gpus_per_node (8) so chunk classes stripe all
// rails, and identical across sizes so visits/flow compares like with like.
constexpr int kScaleChunks = 64;

struct ScalePoint {
  int ranks = 0;
  int nodes = 0;
  int racks = 0;
  int pods = 0;
  // Solo verified run (incremental walk).
  std::uint64_t flows = 0;
  std::uint64_t events = 0;
  double wall_us = 0;
  double events_per_sec = 0;
  // 4-job co-run.
  FluidNetwork::Stats co;
  double rerates_per_flow = 0;  // recomputes / flows
  double visits_per_flow = 0;   // walk visits / flows
};

ScalePoint MeasureSize(int nodes, int racks, Checks& check) {
  const Topology topo(presets::RailClos(nodes, /*gpus_per_node=*/8,
                                        /*nics_per_node=*/4, racks));
  ScalePoint p;
  p.ranks = topo.nranks();
  p.nodes = nodes;
  p.racks = racks;
  p.pods = topo.pods();

  algorithms::CompositionSpec spec;
  spec.chunks = kScaleChunks;
  const Algorithm algo = algorithms::ComposedAllReduce(topo, spec);
  const PreparedPlan plan = PrepareOrDie(algo, topo, BackendKind::kResCCL);

  RunRequest request;
  request.launch.buffer = Size::MiB(64);
  request.verify = true;  // data engine replays + checks every rank

  ExecContext ctx;
  const CollectiveReport& solo = ctx.Execute(plan, request);
  check(solo.verified, "composed AllReduce must verify");
  p.flows = solo.sim.fluid.flows_started;
  p.events = solo.sim.events;

  // Throughput headline: best of three steady-state replays of the
  // verified plan through the warm ExecContext (verify off — the data
  // engine is not the simulator; the first Execute above doubles as the
  // warm-up). This is the regime `sim`'s events/sec pins, so the
  // 64 -> 1024 ratio check_perf.py enforces compares simulator cost, not
  // allocator or data-engine cost.
  request.verify = false;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowUs();
    const CollectiveReport& timed = ctx.Execute(plan, request);
    const double rep_us = NowUs() - t0;
    check(timed.sim.events == p.events,
          "replay through a warm context must fire identical events");
    if (p.wall_us == 0 || rep_us < p.wall_us) p.wall_us = rep_us;
  }
  p.events_per_sec =
      p.wall_us > 0 ? static_cast<double>(p.events) / (p.wall_us / 1e6) : 0;

  // Contended co-run: four copies of the plan merged into one machine,
  // matching `sim`'s re-rate workload.
  constexpr int kCoJobs = 4;
  const std::vector<ExecJob> jobs(kCoJobs, ExecJob{plan, request.launch});
  ExecContext co;
  p.co = co.Execute(jobs, request).sim.fluid;
  const auto flows = static_cast<double>(p.co.flows_started);
  p.rerates_per_flow = static_cast<double>(p.co.recompute_calls) / flows;
  p.visits_per_flow = static_cast<double>(p.co.walk_visits) / flows;
  return p;
}

void WriteScaleJson(const char* path, const std::vector<ScalePoint>& points,
                    Checks& check) {
  std::FILE* f = std::fopen(path, "w");
  check(f != nullptr, "cannot write the section's JSON");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_scale\",\n");
  std::fprintf(f, "  \"chunks\": %d,\n", kScaleChunks);
  for (const ScalePoint& p : points) {
    std::fprintf(f, "  \"ranks%d\": {\n", p.ranks);
    std::fprintf(f, "    \"nodes\": %d,\n", p.nodes);
    std::fprintf(f, "    \"racks\": %d,\n", p.racks);
    std::fprintf(f, "    \"pods\": %d,\n", p.pods);
    std::fprintf(f, "    \"flows\": %" PRIu64 ",\n", p.flows);
    std::fprintf(f, "    \"events\": %" PRIu64 ",\n", p.events);
    std::fprintf(f, "    \"co_flows\": %" PRIu64 ",\n", p.co.flows_started);
    std::fprintf(f, "    \"recompute_calls\": %" PRIu64 ",\n",
                 p.co.recompute_calls);
    std::fprintf(f, "    \"walk_visits\": %" PRIu64 ",\n", p.co.walk_visits);
    std::fprintf(f, "    \"binding_skips\": %" PRIu64 ",\n",
                 p.co.binding_skips);
    std::fprintf(f, "    \"rerates_per_flow\": %.4f,\n", p.rerates_per_flow);
    std::fprintf(f, "    \"visits_per_flow\": %.4f,\n", p.visits_per_flow);
    std::fprintf(f, "    \"events_per_sec\": %.0f,\n", p.events_per_sec);
    std::fprintf(f, "    \"wall_us\": %.1f\n", p.wall_us);
    std::fprintf(f, "  },\n");
  }
  const ScalePoint& lo = points.front();
  const ScalePoint& hi = points.back();
  std::fprintf(f, "  \"scaling\": {\n");
  std::fprintf(f, "    \"rank_growth\": %.1f,\n",
               static_cast<double>(hi.ranks) / static_cast<double>(lo.ranks));
  std::fprintf(f, "    \"visits_per_flow_growth\": %.4f\n",
               hi.visits_per_flow / lo.visits_per_flow);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Scale(const Args& /*args*/) {
  Checks check;
  // 64 -> 256 -> 1024 ranks; racks grow with the fabric so the 256- and
  // 1024-rank points exercise the pod/spine tier.
  const std::vector<ScalePoint> points = {
      MeasureSize(/*nodes=*/8, /*racks=*/2, check),
      MeasureSize(/*nodes=*/32, /*racks=*/4, check),
      MeasureSize(/*nodes=*/128, /*racks=*/8, check),
  };
  for (const ScalePoint& p : points) {
    std::printf("%5d ranks (%3d nodes, %d racks, %d pods): %" PRIu64
                " flows solo (%.0f events/sec, verified), co-run %" PRIu64
                " flows: %.2f visits/flow, %.2f recomputes/flow\n",
                p.ranks, p.nodes, p.racks, p.pods, p.flows,
                p.events_per_sec, p.co.flows_started, p.visits_per_flow,
                p.rerates_per_flow);
  }

  const ScalePoint& lo = points.front();
  const ScalePoint& hi = points.back();
  const double rank_growth =
      static_cast<double>(hi.ranks) / static_cast<double>(lo.ranks);
  const double visit_growth = hi.visits_per_flow / lo.visits_per_flow;
  std::printf("scaling 64 -> 1024: ranks x%.0f, visits/flow x%.2f\n",
              rank_growth, visit_growth);
  check(visit_growth <= 0.5 * rank_growth,
        "walk visits/flow must grow sub-linearly (<= half the rank growth) "
        "from 64 to 1024 ranks");

  WriteScaleJson("BENCH_scale.json", points, check);
  std::printf("wrote BENCH_scale.json\n\n");
  return check.failed;
}

// ---------------------------------------------------------------------------
// service: open-loop load generator for the scheduling service.
//
// Drives SchedulingService (src/service) in deterministic mode with the
// shared seeded workload generator: 4 tenants x 3 priority classes,
// exponential arrivals swept from an idle server to well past saturation.
// Everything runs under the virtual clock, so every number below — admits,
// sheds, queue waits, coalesce rate — is exactly reproducible and the
// self-checks are equalities, not thresholds over wall-clock noise:
//   - identical workload (one compile shape) coalesces: rate >= 0.9 and
//     exactly one Prepare for the whole stream;
//   - shedding is priority-ordered: zero recorded inversions (a drop while
//     something strictly less urgent stayed queued) at every load point,
//     and the high class is never shed at all;
//   - queue depth never exceeds the configured bound;
//   - the service quiesces at every load point (every submitted request
//     has a recorded outcome);
//   - replaying the most-loaded point is bit-identical;
//   - backlogged same-class tenants share throughput by weight (10%).

constexpr int kRequests = 240;
constexpr std::size_t kQueueBound = 24;
constexpr int kMaxInFlight = 4;
constexpr std::uint64_t kServiceSeed = 42;

std::vector<service::TenantSpec> Tenants() {
  return {{"alpha", 4.0}, {"beta", 2.0}, {"gamma", 1.0}, {"delta", 1.0}};
}

service::ServiceConfig BaseConfig() {
  service::ServiceConfig config;
  config.queue_bound = kQueueBound;
  config.max_in_flight = kMaxInFlight;
  config.tenants = Tenants();
  return config;
}

service::WorkloadSpec Workload(double mean_interarrival_us, int shapes) {
  service::WorkloadSpec wl;
  wl.seed = kServiceSeed;
  wl.requests = kRequests;
  wl.mean_interarrival_us = mean_interarrival_us;
  wl.distinct_shapes = shapes;
  wl.tenants = Tenants();
  return wl;
}

struct LoadPoint {
  double mean_interarrival_us = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t compiles = 0;
  std::size_t max_depth = 0;
  double mean_wait_us = 0;
  double makespan_us = 0;       // virtual time to drain the whole stream
  double served_per_sec = 0;    // vs virtual time: the service rate
  std::uint64_t digest = 0;     // order-sensitive over (id, outcome)
};

LoadPoint RunPoint(const std::shared_ptr<const Topology>& topo,
                   double mean_interarrival_us, int shapes, Checks& check) {
  using service::Outcome;
  service::SchedulingService svc(topo, BaseConfig());
  service::ReplayOpenLoop(
      svc, service::GenerateWorkload(
               *topo, Workload(mean_interarrival_us, shapes)));
  const service::SchedulingService::Stats stats = svc.stats();
  const std::vector<service::Response> responses = svc.Drain();

  check(svc.queued() == 0 && svc.in_flight() == 0,
        "service must quiesce at every load point");
  check(stats.submitted == static_cast<std::uint64_t>(kRequests),
        "every generated request must be submitted");
  check(stats.served + stats.failed + stats.rejected + stats.shed ==
            stats.submitted,
        "every submitted request must have exactly one outcome");
  check(stats.failed == 0, "no request may fail on a clean workload");
  check(stats.shed_inversions == 0,
        "shedding must be priority-ordered (0 inversions)");
  check(stats.shed_by_class[0] == 0, "the high class must never be shed");
  check(stats.max_queue_depth <= kQueueBound,
        "queue depth must never exceed the bound");

  LoadPoint p;
  p.mean_interarrival_us = mean_interarrival_us;
  p.served = stats.served;
  p.rejected = stats.rejected;
  p.shed = stats.shed;
  p.coalesced = stats.coalesced;
  p.compiles = stats.prepares;
  p.max_depth = stats.max_queue_depth;
  p.makespan_us = svc.VirtualNow();
  double wait_sum = 0;
  p.digest = 1469598103934665603ULL;  // FNV offset basis
  for (const service::Response& r : responses) {
    if (r.outcome == Outcome::kServed) wait_sum += r.queue_wait_us;
    // Equal digests mean two replays completed the same requests the same
    // way in the same order.
    const std::uint64_t prime = 0x100000001b3ULL;
    p.digest ^= r.id * prime + static_cast<std::uint64_t>(r.outcome);
    p.digest *= prime;
  }
  if (stats.served > 0) {
    p.mean_wait_us = wait_sum / static_cast<double>(stats.served);
  }
  if (p.makespan_us > 0) {
    p.served_per_sec =
        static_cast<double>(stats.served) / (p.makespan_us * 1e-6);
  }
  return p;
}

// Identical workload: every request shares one fingerprint, so the whole
// stream must cost exactly one compile regardless of how requests batch.
// Returns the coalesce rate.
double CheckCoalescing(const std::shared_ptr<const Topology>& topo,
                       Checks& check) {
  service::SchedulingService svc(topo, BaseConfig());
  service::ReplayOpenLoop(
      svc, service::GenerateWorkload(*topo, Workload(100.0, 1)));
  const service::SchedulingService::Stats stats = svc.stats();
  const PlanCache::Stats cache = svc.plan_cache().stats();

  check(cache.misses == 1, "identical workload must compile exactly once");
  const double rate =
      stats.served > 0
          ? static_cast<double>(stats.coalesced) /
                static_cast<double>(stats.served)
          : 0.0;
  check(rate >= 0.9, "identical workload must coalesce >= 90% of serves");
  std::printf("coalesce: %" PRIu64 "/%" PRIu64
              " served without compiling (rate %.3f, compiles %" PRIu64
              ")\n\n",
              stats.coalesced, stats.served, rate, cache.misses);
  return rate;
}

// Backlogged fairness: every tenant keeps identical same-class work queued,
// so the weighted-fair dequeue alone decides throughput. Served-byte shares
// must track weight shares within 10% relative.
void CheckFairness(const std::shared_ptr<const Topology>& topo,
                   Checks& check) {
  service::ServiceConfig config = BaseConfig();
  config.queue_bound = 256;
  service::SchedulingService svc(topo, config);

  service::Request req;
  req.algorithm = algorithms::RingAllReduce(topo->nranks());
  req.run.launch.buffer = Size::MiB(4);
  const int per_tenant = 48;
  for (int i = 0; i < per_tenant; ++i) {
    for (const service::TenantSpec& t : Tenants()) {
      req.tenant = t.name;
      (void)svc.Submit(req);
    }
  }
  // Serve half the backlog: every tenant must still be backlogged at the
  // end, otherwise the lighter tenants' queues drain and the shares drift
  // toward uniform.
  const int steps = per_tenant * static_cast<int>(Tenants().size()) / 2 /
                    config.max_in_flight;
  for (int s = 0; s < steps; ++s) check(svc.Step(), "backlog must not drain");

  const service::SchedulingService::Stats stats = svc.stats();
  double weight_total = 0;
  std::int64_t bytes_total = 0;
  for (const service::TenantSpec& t : Tenants()) {
    weight_total += t.weight;
    bytes_total += stats.served_bytes.at(t.name);
  }
  std::printf("fairness (backlogged, weights 4:2:1:1):\n");
  for (const service::TenantSpec& t : Tenants()) {
    const double share = static_cast<double>(stats.served_bytes.at(t.name)) /
                         static_cast<double>(bytes_total);
    const double target = t.weight / weight_total;
    std::printf("  %-6s share %.3f target %.3f\n", t.name.c_str(), share,
                target);
    check(std::fabs(share - target) <= 0.1 * target,
          "backlogged tenant share must track weight within 10%");
  }
  std::printf("\n");
  svc.RunUntilQuiescent();
}

void WriteServiceJson(const char* path, const std::vector<LoadPoint>& points,
                      double coalesce_rate, Checks& check) {
  std::FILE* f = std::fopen(path, "w");
  check(f != nullptr, "cannot write the section's JSON");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_service\",\n");
  std::fprintf(f, "  \"requests\": %d,\n", kRequests);
  std::fprintf(f, "  \"queue_bound\": %zu,\n", kQueueBound);
  std::fprintf(f, "  \"coalesce_rate_identical\": %.4f,\n", coalesce_rate);
  for (const LoadPoint& p : points) {
    std::fprintf(f, "  \"mean_us%.0f\": {\n", p.mean_interarrival_us);
    std::fprintf(f, "    \"served\": %" PRIu64 ",\n", p.served);
    std::fprintf(f, "    \"rejected\": %" PRIu64 ",\n", p.rejected);
    std::fprintf(f, "    \"shed\": %" PRIu64 ",\n", p.shed);
    std::fprintf(f, "    \"coalesced\": %" PRIu64 ",\n", p.coalesced);
    std::fprintf(f, "    \"compiles\": %" PRIu64 ",\n", p.compiles);
    std::fprintf(f, "    \"max_depth\": %zu,\n", p.max_depth);
    std::fprintf(f, "    \"mean_wait_us\": %.2f,\n", p.mean_wait_us);
    std::fprintf(f, "    \"makespan_us\": %.2f,\n", p.makespan_us);
    std::fprintf(f, "    \"served_per_sec\": %.1f\n", p.served_per_sec);
    std::fprintf(f, "  },\n");
  }
  const LoadPoint& sat = points.back();
  std::fprintf(f, "  \"saturation\": {\n");
  std::fprintf(f, "    \"served\": %" PRIu64 ",\n", sat.served);
  std::fprintf(f, "    \"dropped\": %" PRIu64 ",\n",
               sat.rejected + sat.shed);
  std::fprintf(f, "    \"served_per_sec\": %.1f\n", sat.served_per_sec);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Service(const Args& /*args*/) {
  Checks check;
  auto topo =
      std::make_shared<const Topology>(presets::A100(/*nodes=*/2,
                                                     /*gpus_per_node=*/8));
  const double coalesce_rate = CheckCoalescing(topo, check);
  CheckFairness(topo, check);

  // Sweep mean interarrival from an idle server (10ms between requests)
  // past saturation (10us): offered load rises ~1000x left to right.
  std::vector<LoadPoint> points;
  TextTable table({"mean_us", "served", "rejected", "shed", "max_depth",
                   "mean_wait_us", "served_per_sec"});
  for (const double mean_us : {10000.0, 2000.0, 500.0, 100.0, 10.0}) {
    points.push_back(RunPoint(topo, mean_us, /*shapes=*/4, check));
    const LoadPoint& p = points.back();
    table.AddRow({Fixed(p.mean_interarrival_us, 0),
                  std::to_string(p.served), std::to_string(p.rejected),
                  std::to_string(p.shed), std::to_string(p.max_depth),
                  Fixed(p.mean_wait_us, 1), Fixed(p.served_per_sec, 1)});
  }
  std::printf("%s", table.ToString().c_str());

  // The idle end must not drop anything; the saturated end must shed/reject.
  check(points.front().rejected + points.front().shed == 0,
        "an idle server must not drop requests");
  check(points.back().rejected + points.back().shed > 0,
        "the saturated point must exercise backpressure");

  // Determinism: replaying the saturated point is bit-identical.
  const LoadPoint replay_a = RunPoint(topo, 10.0, 4, check);
  const LoadPoint replay_b = RunPoint(topo, 10.0, 4, check);
  check(replay_a.digest == replay_b.digest &&
            replay_a.served == replay_b.served &&
            replay_a.makespan_us == replay_b.makespan_us,
        "replaying the saturated point must be bit-identical");

  WriteServiceJson("BENCH_service.json", points, coalesce_rate, check);
  if (check.failed == 0) {
    std::printf("\nself-checks: all passed; wrote BENCH_service.json\n\n");
  }
  return check.failed;
}

// ---------------------------------------------------------------------------
// plan_cache: the two wall-clock bars of the compile-once workflow. The
// deterministic cache behavior (hits, misses, one Prepare per selector
// candidate, verified artifacts reused) is pinned in tests/.

// A warm lookup does no compilation; anything near the cold cost means the
// cache is being bypassed. 100us is orders of magnitude below a compile.
constexpr double kWarmPrepareBudgetUs = 100.0;

void WarmLookup(Checks& check) {
  std::printf("--- cold vs warm Communicator::AllReduce (2 servers x 8) ---\n");
  const Communicator comm(presets::A100(2, 8), BackendKind::kResCCL);
  RunRequest request;
  request.launch.buffer = Size::MiB(256);

  const CollectiveReport cold = comm.AllReduce(request);
  const CollectiveReport warm = comm.AllReduce(request);
  const PlanCache::Stats stats = comm.plan_cache().stats();
  // The lookup the warm AllReduce made, timed on its own: the same key
  // through the same cache.
  const Algorithm algo = DefaultAlgorithm(
      BackendKind::kResCCL, CollectiveOp::kAllReduce, comm.topology());
  const auto topo = std::make_shared<const Topology>(comm.topology());
  const CompileOptions options = DefaultCompileOptions(BackendKind::kResCCL);
  const PlanCache::Lookup lookup =
      comm.plan_cache().GetOrPrepare(algo, topo, options).value();

  TextTable table({"Call", "Algo GB/s"});
  table.AddRow({"cold", Fixed(cold.algo_bw.gbps(), 1)});
  table.AddRow({"warm", Fixed(warm.algo_bw.gbps(), 1)});
  std::printf("%s", table.ToString().c_str());
  std::printf("cache after both: %llu compile(s), %llu hit(s); warm lookup "
              "%.1f us\n\n",
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.hits), lookup.prepare_us);
  check(stats.misses == 1, "the warm AllReduce must not compile again");
  check(lookup.hit && lookup.prepare_us < kWarmPrepareBudgetUs,
        "a warm lookup must be ~0 us (no compile)");
}

void StrictVerifyOverhead(Checks& check) {
  std::printf("--- strict-verify overhead on Prepare (2 servers x 8) ---\n");
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  CompileOptions relaxed = DefaultCompileOptions(BackendKind::kResCCL);
  CompileOptions strict = relaxed;
  strict.strict_verify = true;

  // Each rep is a relaxed then a strict Prepare. The Prepare columns are
  // the fastest rep; verify time and the verify/compile ratio (both
  // measured inside the same strict Prepare) are the median rep, so one
  // preempted rep cannot decide the bar either way.
  constexpr int kReps = 7;
  double relaxed_us = 1e300;
  double strict_us = 1e300;
  std::vector<double> verify_us;
  std::vector<double> ratios;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = NowUs();
    (void)Prepare(algo, topo, relaxed, "relaxed").value();
    const double t1 = NowUs();
    const PreparedPlan b = Prepare(algo, topo, strict, "strict").value();
    const double t2 = NowUs();
    relaxed_us = std::min(relaxed_us, t1 - t0);
    strict_us = std::min(strict_us, t2 - t1);
    verify_us.push_back(b->plan.stats.verify_us);
    ratios.push_back(b->plan.stats.verify_us / b->plan.stats.total_us());
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + kReps / 2, v.end());
    return v[kReps / 2];
  };
  const double ratio = median(ratios);

  TextTable table({"Mode", "Prepare us", "Verify us", "Verify/compile"});
  table.AddRow({"relaxed", Fixed(relaxed_us, 1), "-", "-"});
  table.AddRow({"strict", Fixed(strict_us, 1), Fixed(median(verify_us), 1),
                Fixed(100.0 * ratio, 1) + "%"});
  std::printf("%s\n", table.ToString().c_str());

  // The verifier independently re-derives the hazard DAG, the Eq. 7
  // activity timeline, and a canonical lowering — work comparable to the
  // compile phases it validates — so its median rep measures 0.43-0.44x
  // the Fig. 10(a) compile total in a Release build on a shared 4-vCPU x86
  // host. The bar asserts it stays strictly cheaper than the compile it
  // certifies (with headroom for host noise); docs/static_analysis.md
  // discusses the cost model.
  check(ratio < 0.80,
        "strict verification must stay well under the compile cost");
}

int PlanCacheBars(const Args& /*args*/) {
  Checks check;
  WarmLookup(check);
  StrictVerifyOverhead(check);
  if (check.failed == 0) std::printf("all plan-cache checks passed\n");
  return check.failed;
}

// ---------------------------------------------------------------------------
// The section table.

struct Section {
  std::string_view name;
  Header header;
  int (*run)(const Args& args);  // returns the failed self-checks
};

const Section kSections[] = {
    {"sim",
     {"micro — simulator hot-path throughput",
      "perf-regression harness (not a paper figure)", ""},
     Sim},
    {"scale",
     {"micro — thousand-rank scaling",
      "scaling harness for RailClos + composed collectives "
      "(not a paper figure)",
      ""},
     Scale},
    {"service",
     {"micro — scheduling-service load sweep",
      "perf-regression harness for the scheduling service "
      "(not a paper figure)",
      ""},
     Service},
    {"plan_cache",
     {"micro — compiled-plan cache amortization",
      "offline compile-once workflow of §4.1/§5.3",
      "Self-checking: non-zero exit if a warm lookup recompiles or strict "
      "verification costs as much as the compile."},
     PlanCacheBars},
};

}  // namespace

int main(int argc, char** argv) {
  return RunNamed("micro", argc, argv, kSections, {"--require-sweep-assert"},
                  [](const Section& s, const Args& args) {
                    return s.run(args);
                  });
}
