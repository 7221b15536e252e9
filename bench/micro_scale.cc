// Thousand-rank scaling harness for the simulator (self-checking).
//
// The rail-aligned Clos presets and the N-level composed collectives exist
// so the repo can reason about fabrics far beyond the paper's 32-GPU
// testbed. This bench pins down that the simulator actually scales there:
// it runs the composed AllReduce on RailClos fabrics of 64, 256 and 1024
// ranks — the 1024-rank point is the acceptance bar — and emits
// machine-readable metrics to BENCH_scale.json (CI compares them against a
// checked-in baseline via tools/check_perf.py).
//
// Each size runs two workloads:
//
//   1. A solo verified Execute — the 1024-rank composed AllReduce is not
//      just simulated, the data engine replays it and checks every rank's
//      result. Events/sec from this run is the throughput headline.
//   2. A 4-job co-run (four copies of the plan merged into one machine by
//      an ExecContext co-run) — the contended regime the flow aggregation
//      targets: dirty resources touch many flows at once, so the walk's
//      cost per flow is what decides whether 1024 ranks are affordable.
//      Reports re-rates and walk visits per flow.
//
// Self-checks:
//   * The solo run completes with verified data at every size.
//   * The walk's binding tests (walk visits) per flow grow sub-linearly
//     from 64 to 1024 ranks: the growth ratio must stay under half the
//     rank growth. A per-flow walk would visit every (resource, flow)
//     incidence, so its visits/flow would track the per-resource flow
//     population; the aggregated walk visits (resource, bucket) pairs and
//     buckets stay few. check_perf.py also caps visits/flow at 1024 ranks.
//
// That the walk's timing is right is tests/test_fluid_reference.cc's job,
// which replays the 64-rank co-run through a reference solver.
//
// The composed AllReduce runs with a coarse chunk count (64, a multiple of
// every gpus_per_node here) so the 1024-rank plan stays ~130k transfers;
// chunk classes still cover all rails evenly, so the plan is rail-aligned.
//
// Flags: --out=PATH (default BENCH_scale.json in the current directory —
// CI runs from the repo root).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "algorithms/composition.h"
#include "bench/bench_util.h"
#include "runtime/exec_context.h"

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

// Chunk count for every size: coarse enough that 1024 ranks stay ~130k
// transfers, a multiple of gpus_per_node (8) so chunk classes stripe all
// rails, and identical across sizes so visits/flow compares like with like.
constexpr int kChunks = 64;

// Co-run width: four copies of the collective contending for the fabric,
// matching micro_sim's re-rate workload.
constexpr int kCoJobs = 4;

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

ScalePoint MeasureSize(int nodes, int racks) {
  const Topology topo(presets::RailClos(nodes, /*gpus_per_node=*/8,
                                        /*nics_per_node=*/4, racks));
  ScalePoint p;
  p.ranks = topo.nranks();
  p.nodes = nodes;
  p.racks = racks;
  p.pods = topo.pods();

  algorithms::CompositionSpec spec;
  spec.chunks = kChunks;
  const Algorithm algo = algorithms::ComposedAllReduce(topo, spec);
  const PreparedPlan plan = PrepareOrDie(algo, topo, BackendKind::kResCCL);

  RunRequest request;
  request.launch.buffer = Size::MiB(64);
  request.verify = true;  // data engine replays + checks every rank

  ExecContext ctx;
  const CollectiveReport& solo = ctx.Execute(plan, request);
  Check(solo.verified, "composed AllReduce must verify");
  p.flows = solo.sim.fluid.flows_started;
  p.events = solo.sim.events;

  // Throughput headline: steady-state replay of the verified plan through
  // the warm ExecContext (verify off — the data engine is not the
  // simulator; the first Execute above doubles as the warm-up). This is
  // the same regime micro_sim's events/sec pins, so the 64 -> 1024 ratio
  // check_perf.py enforces compares simulator cost, not allocator or
  // data-engine cost.
  request.verify = false;
  // Best of three identical reps: the minimum is the rep least disturbed
  // by the host, the stable estimator for CI boxes (same protocol as
  // micro_sim's events/sec).
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowUs();
    const CollectiveReport& timed = ctx.Execute(plan, request);
    const double rep_us = NowUs() - t0;
    Check(timed.sim.events == p.events,
          "replay through a warm context must fire identical events");
    if (p.wall_us == 0 || rep_us < p.wall_us) p.wall_us = rep_us;
  }
  p.events_per_sec =
      p.wall_us > 0 ? static_cast<double>(p.events) / (p.wall_us / 1e6) : 0;

  // Contended co-run: kCoJobs copies of the plan merged into one machine.
  const std::vector<ExecJob> jobs(kCoJobs, ExecJob{plan, request.launch});
  ExecContext co;
  p.co = co.Execute(jobs, request).sim.fluid;
  const auto flows = static_cast<double>(p.co.flows_started);
  p.rerates_per_flow = static_cast<double>(p.co.recompute_calls) / flows;
  p.visits_per_flow = static_cast<double>(p.co.walk_visits) / flows;
  return p;
}

void WriteJson(const char* path, const std::vector<ScalePoint>& points) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    ++failures;
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_scale\",\n");
  std::fprintf(f, "  \"chunks\": %d,\n", kChunks);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
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
  const double rank_growth =
      static_cast<double>(hi.ranks) / static_cast<double>(lo.ranks);
  std::fprintf(f, "  \"scaling\": {\n");
  std::fprintf(f, "    \"rank_growth\": %.1f,\n", rank_growth);
  std::fprintf(f, "    \"visits_per_flow_growth\": %.4f\n",
               hi.visits_per_flow / lo.visits_per_flow);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }

  PrintHeader("micro — thousand-rank scaling",
              "scaling harness for RailClos + composed collectives "
              "(not a paper figure)",
              "");

  // 64 -> 256 -> 1024 ranks; racks grow with the fabric so the 256- and
  // 1024-rank points exercise the pod/spine tier.
  const std::vector<ScalePoint> points = {
      MeasureSize(/*nodes=*/8, /*racks=*/2),
      MeasureSize(/*nodes=*/32, /*racks=*/4),
      MeasureSize(/*nodes=*/128, /*racks=*/8),
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

  // The acceptance bar: the walk's per-flow binding-test count must grow
  // sub-linearly in rank count (under half the rank growth).
  Check(visit_growth <= 0.5 * rank_growth,
        "walk visits/flow must grow sub-linearly (<= half the rank growth) "
        "from 64 to 1024 ranks");

  WriteJson(out, points);
  std::printf("wrote %s\n", out);

  if (failures != 0) {
    std::fprintf(stderr, "%d perf self-check(s) failed\n", failures);
    return 1;
  }
  std::printf("all perf self-checks passed\n");
  return 0;
}
