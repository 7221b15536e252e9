// The paper's evaluation (§5) in one binary: Tables 1 and 3, Figs. 2-4 and
// 6-13, and the chunk-size, contention, protocol and fault-robustness
// ablations, as a table of experiments. Each prints the rows or series the
// paper reports next to the paper's reference values.
//
//   paper [--jobs=N] [name...]
//
// With no name, runs every experiment in table order; otherwise runs the
// named ones in the order given. An unknown name or flag, or a --jobs value
// that is not a positive integer, exits 2. A failed self-check exits 1.
// Every experiment but fig10a (host wall-clock) is deterministic, and its
// output is byte-identical at any --jobs value (ParallelRows);
// bench/baselines/paper/<name>.txt pins each one. `protocols` also writes
// BENCH_protocols.json for tools/check_perf.py.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "algorithms/synthesized.h"
#include "bench/bench_util.h"
#include "core/compiler.h"
#include "lang/emit.h"
#include "lang/eval.h"
#include "obs/critical_path.h"
#include "obs/timeline.h"
#include "runtime/multi_job.h"
#include "sim/machine.h"
#include "train/trainer.h"

using namespace resccl;
using namespace resccl::bench;

namespace {

using MakeAlgorithm = Algorithm (*)(const Topology&);

// ---------------------------------------------------------------------------
// Shared panels.

// The columns an expert-bandwidth panel prints.
struct BandwidthColumns {
  int digits;       // decimals of the GB/s columns
  bool pct_of_opt;  // ResCCL's percent of the static lower bound
};

// Figs. 6, 8 and 11: NCCL's ring against the hierarchical-mesh expert
// algorithm on MSCCL and ResCCL, across `grid`. Each backend compiles once;
// the sweep replays the plans.
void ExpertBandwidthPanel(const std::string& label, const Topology& topo,
                          CollectiveOp op, const std::vector<Size>& grid,
                          BandwidthColumns cols, int jobs) {
  const Algorithm expert = DefaultAlgorithm(BackendKind::kResCCL, op, topo);
  const Algorithm ring = DefaultAlgorithm(BackendKind::kNcclLike, op, topo);
  const PreparedPlan nccl_plan =
      PrepareOrDie(ring, topo, BackendKind::kNcclLike);
  const PreparedPlan msccl_plan =
      PrepareOrDie(expert, topo, BackendKind::kMscclLike);
  const PreparedPlan resccl_plan =
      PrepareOrDie(expert, topo, BackendKind::kResCCL);

  std::printf("--- %s ---\n", label.c_str());
  std::vector<std::string> header{"Buffer",      "NCCL GB/s", "MSCCL GB/s",
                                  "ResCCL GB/s", "vs NCCL",   "vs MSCCL"};
  if (cols.pct_of_opt) header.push_back("% of opt");
  TextTable table(header);
  const auto rows = ParallelRows<std::vector<std::string>>(
      jobs, grid.size(), [&](std::size_t i) {
        const Size buffer = grid[i];
        const double nccl = MeasurePrepared(*nccl_plan, buffer).algo_bw.gbps();
        const double msccl =
            MeasurePrepared(*msccl_plan, buffer).algo_bw.gbps();
        const CollectiveReport ours_report =
            MeasurePrepared(*resccl_plan, buffer);
        const double ours = ours_report.algo_bw.gbps();
        std::vector<std::string> row{SizeLabel(buffer),
                                     Fixed(nccl, cols.digits),
                                     Fixed(msccl, cols.digits),
                                     Fixed(ours, cols.digits),
                                     Fixed(ours / nccl, 2) + "x",
                                     Fixed(ours / msccl, 2) + "x"};
        if (cols.pct_of_opt) {
          row.push_back(Fixed(OptimalityPct(topo, expert, ours_report.elapsed,
                                            buffer),
                              1) +
                        "%");
        }
        return row;
      });
  for (const auto& row : rows) table.AddRow(row);
  std::printf("%s\n", table.ToString().c_str());
}

// Figs. 7 and 9: ResCCL's speedup over MSCCL on the same synthesized
// (TACCL-like / TECCL-like) algorithms. MSCCL is the 1.0x baseline.
void SynthesizedSpeedupPanel(const std::string& label, const Topology& topo,
                             const std::vector<Size>& grid, int jobs) {
  struct Algo {
    const char* name;
    Algorithm algo;
    PreparedPlan msccl;
    PreparedPlan resccl;
  };
  std::vector<Algo> algos;
  for (const auto& [name, make] :
       {std::pair<const char*, MakeAlgorithm>{
            "TACCL-AG", algorithms::TacclLikeAllGather},
        {"TACCL-AR", algorithms::TacclLikeAllReduce},
        {"TECCL-AG", algorithms::TecclLikeAllGather},
        {"TECCL-AR", algorithms::TecclLikeAllReduce}}) {
    Algorithm algo = make(topo);
    PreparedPlan msccl = PrepareOrDie(algo, topo, BackendKind::kMscclLike);
    PreparedPlan resccl = PrepareOrDie(algo, topo, BackendKind::kResCCL);
    algos.push_back({name, std::move(algo), std::move(msccl),
                     std::move(resccl)});
  }

  std::printf("--- %s ---\n", label.c_str());
  std::vector<std::string> header{"Buffer"};
  for (const Algo& a : algos) header.push_back(a.name);
  header.push_back("best % of opt");
  TextTable table(header);
  const auto rows = ParallelRows<std::vector<std::string>>(
      jobs, grid.size(), [&](std::size_t i) {
        const Size buffer = grid[i];
        std::vector<std::string> row{SizeLabel(buffer)};
        // Best percent-of-optimal across the panel's ResCCL runs, each
        // judged against its own algorithm's static lower bound.
        double best_pct = 0;
        for (const Algo& a : algos) {
          const double msccl = MeasurePrepared(*a.msccl, buffer).algo_bw.gbps();
          const CollectiveReport ours = MeasurePrepared(*a.resccl, buffer);
          row.push_back(Fixed(ours.algo_bw.gbps() / msccl, 2) + "x");
          best_pct = std::max(
              best_pct, OptimalityPct(topo, a.algo, ours.elapsed, buffer));
        }
        row.push_back(Fixed(best_pct, 1) + "%");
        return row;
      });
  for (const auto& row : rows) table.AddRow(row);
  std::printf("%s\n", table.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Table 1: global link utilization of expert (MSCCLang) and synthesized
// (TACCL/TECCL) algorithms on the MSCCL-style stage-level backend at 1/2/4
// servers. Without cross-micro-batch scheduling, even good algorithms leave
// links idle most of the time.
//
// Utilization comes from the exact per-link rate timelines
// (obs/timeline.h): busy time is the measure of {t : rate(t) > 0} on each
// link's piecewise-constant rate function, with no sampling grid. Each cell
// self-checks the timelines against the simulator's own link accounting.

// Mean busy fraction over links that carried data, from the timelines.
double TimelineUtilization(const Topology& topo, const CollectiveReport& r) {
  const std::vector<obs::LinkTimeline> timelines =
      obs::BuildLinkTimelines(topo, r.sim);
  double sum = 0;
  int carriers = 0;
  for (const obs::LinkTimeline& tl : timelines) {
    if (tl.bytes == 0) continue;
    // Timeline invariants vs the simulator's per-resource accounting. The
    // integral tolerance covers the sub-millibyte completion residue the
    // fluid model leaves per flow (fluid.h).
    CheckClose("timeline busy == usage.active", tl.BusyTime().us(),
               tl.active.us(), 1e-6);
    CheckClose("timeline integral == bytes carried", tl.IntegralBytes(),
               static_cast<double>(tl.bytes), 1e-6);
    sum += tl.BusyFraction(r.sim.makespan);
    ++carriers;
  }
  const double avg = carriers > 0 ? sum / carriers : 0.0;
  // The headline number must agree with the report's LinkUtilization.
  CheckClose("carriers", carriers, r.links.carriers);
  CheckClose("avg busy fraction", avg, r.links.avg, 1e-6);
  return avg;
}

int Table1(int jobs) {
  const char* const scales[] = {"1 Server (8 GPUs)", "2 Servers (16 GPUs)",
                                "4 Servers (32 GPUs)"};
  const Topology topos[] = {Topology(presets::A100(1, 8)),
                            Topology(presets::A100(2, 8)),
                            Topology(presets::A100(4, 8))};
  const MakeAlgorithm algos[] = {
      algorithms::HierarchicalMeshAllGather,
      algorithms::HierarchicalMeshAllReduce,
      algorithms::TacclLikeAllGather, algorithms::TacclLikeAllReduce,
      algorithms::TecclLikeAllGather};
  constexpr std::size_t kAlgos = std::size(algos);
  const auto cells = ParallelRows<std::string>(
      jobs, std::size(topos) * kAlgos, [&](std::size_t i) {
        const Topology& topo = topos[i / kAlgos];
        const PreparedPlan plan = PrepareOrDie(
            algos[i % kAlgos](topo), topo, BackendKind::kMscclLike);
        const CollectiveReport r = MeasurePrepared(
            *plan, Size::MiB(256), Size::MiB(1), /*observe=*/true);
        return Percent(TimelineUtilization(topo, r));
      });
  TextTable table({"Topo Scale", "MS-AG", "MS-AR", "TA-AG", "TA-AR", "TE-AG"});
  for (std::size_t s = 0; s < std::size(scales); ++s) {
    std::vector<std::string> row{scales[s]};
    const auto first = cells.begin() + static_cast<std::ptrdiff_t>(s * kAlgos);
    row.insert(row.end(), first, first + kAlgos);
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference (measured on real A100 testbed): 1 server "
      "76.7/71.0/51.6/45.7/52.7%%; 2 servers 67.5/61.8/34.3/31.8/33.2%%; "
      "4 servers 66.8/46.1/44.6/41.9/38.1%%.\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Fig. 2: time-cost breakdown of primitives when the existing (MSCCL-like)
// backend runs custom and synthesized single-node AllReduce. (a) Extra-
// channel TBs sit idle almost all the time; (b) synchronization blocking
// dominates many TBs' lifetimes.

void PrintBreakdown(const char* label, const std::string& algo_name,
                    const CollectiveReport& r) {
  std::printf("--- %s (%s, MSCCL-like backend) ---\n", label,
              algo_name.c_str());
  TextTable table({"TB bucket", "count", "avg exec", "avg sync(idle)",
                   "avg overhead"});
  // Bucket TBs by idle ratio, mirroring the figure's "main" vs "extra
  // channel" populations.
  struct Bucket {
    const char* name;
    double lo, hi;
  };
  for (const Bucket& b : {Bucket{"busy TBs   (idle < 50%)", 0.0, 0.5},
                          Bucket{"blocked TBs (idle 50-90%)", 0.5, 0.9},
                          Bucket{"idle TBs   (idle >= 90%)", 0.9, 1.01}}) {
    int n = 0;
    double exec = 0, sync = 0, ovh = 0;
    for (const TbStats& tb : r.sim.tbs) {
      if (tb.finish <= SimTime::Zero()) continue;
      const double idle = tb.sync / tb.finish;
      if (idle < b.lo || idle >= b.hi) continue;
      ++n;
      exec += tb.busy / tb.finish;
      sync += idle;
      ovh += tb.overhead / tb.finish;
    }
    table.AddRow({b.name, std::to_string(n), n ? Percent(exec / n) : "-",
                  n ? Percent(sync / n) : "-", n ? Percent(ovh / n) : "-"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("total TBs %d, max idle ratio %s, avg sync blocking %s\n\n",
              r.total_tbs, Percent(r.sim.MaxIdleRatio()).c_str(),
              Percent(r.sim.AvgIdleRatio()).c_str());
}

int Fig2(int jobs) {
  const Topology topo(presets::A100(1, 8));
  struct Case {
    const char* label;
    Algorithm algo;
  };
  const Case cases[] = {
      {"(a) custom single-node AllReduce",
       algorithms::HierarchicalMeshAllReduce(topo)},
      {"(b) synthesized single-node AllReduce",
       algorithms::TacclLikeAllReduce(topo)},
  };
  const auto reports = ParallelRows<CollectiveReport>(
      jobs, std::size(cases), [&](std::size_t i) {
        return MeasurePrepared(
            *PrepareOrDie(cases[i].algo, topo, BackendKind::kMscclLike),
            Size::MiB(256));
      });
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    PrintBreakdown(cases[i].label, cases[i].algo.name, reports[i]);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Fig. 3: runtime interpreter vs directly generated kernel. Identical
// algorithm, schedule and TB plan; only the engine differs. The interpreter
// pays a per-primitive decode, a per-micro-batch reload, and a copy-
// throughput tax for the control flow inside its primitive loop.

int Fig3(int jobs) {
  const Topology topo(presets::A100(2, 8));
  struct Case {
    const char* label;
    PreparedPlan kernel;
    PreparedPlan interp;
  };
  std::vector<Case> cases;
  for (const auto& [label, algo] :
       {std::pair<const char*, Algorithm>{
            "ring AllReduce", algorithms::MultiChannelRingAllReduce(topo, 4)},
        {"ring AllGather", algorithms::MultiChannelRingAllGather(topo, 4)},
        {"hier AllReduce", algorithms::HierarchicalMeshAllReduce(topo)}}) {
    CompileOptions opts = DefaultCompileOptions(BackendKind::kResCCL);
    PreparedPlan kernel = PrepareOrDie(algo, topo, opts, "kernel");
    opts.engine = RuntimeEngine::kInterpreter;
    cases.push_back(
        {label, std::move(kernel), PrepareOrDie(algo, topo, opts, "interp")});
  }
  const Size buffers[] = {Size::MiB(128), Size::MiB(512), Size::MiB(2048)};
  struct Row {
    std::vector<std::string> cells;
    double loss = 0;
  };
  const auto rows = ParallelRows<Row>(
      jobs, cases.size() * std::size(buffers), [&](std::size_t i) {
        const Case& c = cases[i / std::size(buffers)];
        const Size buffer = buffers[i % std::size(buffers)];
        const double kernel = MeasurePrepared(*c.kernel, buffer).algo_bw.gbps();
        const double interp = MeasurePrepared(*c.interp, buffer).algo_bw.gbps();
        const double loss = 1.0 - interp / kernel;
        return Row{{c.label, SizeLabel(buffer), Fixed(kernel, 1),
                    Fixed(interp, 1), Percent(loss)},
                   loss};
      });
  TextTable table({"Algorithm", "Buffer", "Kernel GB/s", "Interp GB/s",
                   "Loss"});
  double losses = 0;
  for (const Row& row : rows) {
    table.AddRow(row.cells);
    losses += row.loss;
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("average interpreter loss: %s (paper: 17.1%%)\n",
              Percent(losses / static_cast<double>(rows.size())).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Fig. 4: TB parallelism vs bandwidth. A P2P transfer over one NIC is split
// across a varying number of narrow (4-warp) TB pairs. Bandwidth ramps while
// the TBs' aggregate copy rate is below line rate, peaks around 4 TBs, then
// degrades as contention overhead grows: the paper's motivation for
// communication dependencies.

double P2pBandwidth(const Topology& topo, int ntbs, Size total) {
  SimProgram p;
  const std::int64_t per_tb = total.bytes() / ntbs;
  for (int i = 0; i < ntbs; ++i) {
    SimTransferDecl decl;
    decl.src = 0;
    decl.dst = 8;
    decl.bytes = per_tb;
    p.AddTransfer(decl);
    SimTb send;
    send.rank = 0;
    send.warps = 4;  // the narrow TBs of the paper's experiment
    send.program = {SimInstr{SimInstr::Kind::kSendSide, i, -1, {}}};
    SimTb recv;
    recv.rank = 8;
    recv.warps = 4;
    recv.program = {SimInstr{SimInstr::Kind::kRecvSide, i, -1, {}}};
    p.tbs.push_back(std::move(send));
    p.tbs.push_back(std::move(recv));
  }
  const CostModel cost;
  SimMachine machine(topo, cost);
  const SimRunReport r = machine.Run(p);
  return static_cast<double>(total.bytes()) / 1e3 / r.makespan.us();
}

int Fig4(int jobs) {
  const Topology topo(presets::A100(2, 8));
  const int tb_counts[] = {1, 2, 3, 4, 6, 8, 12, 16};
  const auto gbps = ParallelRows<double>(
      jobs, std::size(tb_counts), [&](std::size_t i) {
        return P2pBandwidth(topo, tb_counts[i], Size::MiB(256));
      });
  TextTable table({"TBs", "Aggregate GB/s", "NIC line-rate fraction"});
  for (std::size_t i = 0; i < std::size(tb_counts); ++i) {
    table.AddRow({std::to_string(tb_counts[i]), Fixed(gbps[i], 2),
                  Percent(gbps[i] / topo.spec().nic.gbps())});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Figs. 6, 8 and 11 (expert algorithms) and Figs. 7 and 9 (synthesized
// algorithms) across buffer sizes and topologies.

int Fig6(int jobs) {
  const Topology a100_2x8(presets::A100(2, 8));
  const Topology a100_4x8(presets::A100(4, 8));
  const BandwidthColumns cols{1, true};
  ExpertBandwidthPanel("(a) AllGather, 2 servers / 16 GPUs", a100_2x8,
                       CollectiveOp::kAllGather, BufferGrid(), cols, jobs);
  ExpertBandwidthPanel("(b) AllGather, 4 servers / 32 GPUs", a100_4x8,
                       CollectiveOp::kAllGather, BufferGrid(true), cols, jobs);
  ExpertBandwidthPanel("(c) AllReduce, 2 servers / 16 GPUs", a100_2x8,
                       CollectiveOp::kAllReduce, BufferGrid(), cols, jobs);
  ExpertBandwidthPanel("(d) AllReduce, 4 servers / 32 GPUs", a100_4x8,
                       CollectiveOp::kAllReduce, BufferGrid(true), cols, jobs);
  return 0;
}

int Fig7(int jobs) {
  SynthesizedSpeedupPanel(
      "2 servers / 16 GPUs (speedup of ResCCL over MSCCL = 1.0x baseline)",
      Topology(presets::A100(2, 8)), BufferGrid(), jobs);
  SynthesizedSpeedupPanel(
      "4 servers / 32 GPUs (speedup of ResCCL over MSCCL = 1.0x baseline)",
      Topology(presets::A100(4, 8)), BufferGrid(true), jobs);
  return 0;
}

int Fig8(int jobs) {
  const Topology a100_2x4(presets::A100(2, 4));
  const Topology a100_4x4(presets::A100(4, 4));
  const BandwidthColumns cols{1, true};
  ExpertBandwidthPanel("(a) AllGather, 2 x 4 GPUs", a100_2x4,
                       CollectiveOp::kAllGather, BufferGrid(true), cols, jobs);
  ExpertBandwidthPanel("(b) AllGather, 4 x 4 GPUs", a100_4x4,
                       CollectiveOp::kAllGather, BufferGrid(true), cols, jobs);
  ExpertBandwidthPanel("(c) AllReduce, 2 x 4 GPUs", a100_2x4,
                       CollectiveOp::kAllReduce, BufferGrid(true), cols, jobs);
  ExpertBandwidthPanel("(d) AllReduce, 4 x 4 GPUs", a100_4x4,
                       CollectiveOp::kAllReduce, BufferGrid(true), cols, jobs);
  return 0;
}

int Fig9(int jobs) {
  SynthesizedSpeedupPanel("2 x 4 GPUs (ResCCL speedup over MSCCL)",
                          Topology(presets::A100(2, 4)), BufferGrid(true),
                          jobs);
  SynthesizedSpeedupPanel("4 x 4 GPUs (ResCCL speedup over MSCCL)",
                          Topology(presets::A100(4, 4)), BufferGrid(true),
                          jobs);
  return 0;
}

int Fig11(int jobs) {
  const Topology v100(presets::V100(2, 8));
  const std::vector<Size> grid{Size::MiB(16), Size::MiB(64), Size::MiB(256),
                               Size::MiB(1024), Size::MiB(4096)};
  const BandwidthColumns cols{2, false};
  ExpertBandwidthPanel("HM-AllGather (V100, 100G RoCE, 2 x 8 GPUs)", v100,
                       CollectiveOp::kAllGather, grid, cols, jobs);
  ExpertBandwidthPanel("HM-ReduceScatter (V100, 100G RoCE, 2 x 8 GPUs)", v100,
                       CollectiveOp::kReduceScatter, grid, cols, jobs);
  ExpertBandwidthPanel("HM-AllReduce (V100, 100G RoCE, 2 x 8 GPUs)", v100,
                       CollectiveOp::kAllReduce, grid, cols, jobs);
  return 0;
}

// ---------------------------------------------------------------------------
// Fig. 10(a): scalability of the offline workflow on emulated clusters up to
// 1024 GPUs: Parsing (ResCCLang to transfer list), Analysis (dependency
// DAG), Scheduling (HPDS), Validate (the schedule check Compile runs),
// Allocation (stage partition and TB allocation) and Lowering (plan
// assembly). Host wall-clock, so it runs serially and is not pinned.

double Ms(double us) { return us / 1000.0; }

// Fig. 10(a) also checks its own shape: from 256 GPUs up, the schedule
// check must cost no more than the scheduling it checks. Both times come
// from the same Compile, so the bar is a ratio, not an absolute time; a
// quadratic check crosses it by an order of magnitude.
int Fig10a(int /*jobs*/) {
  std::printf(
      "--- (a) per-phase wall-clock across emulated cluster scales ---\n");
  TextTable table({"GPUs", "Tasks", "Parse ms", "Analyze ms", "Schedule ms",
                   "Validate ms", "Alloc ms", "Lower ms", "Total ms"});
  bool shape_ok = true;
  for (int gpus_total : {16, 32, 64, 128, 256, 512, 1024}) {
    const int nodes = gpus_total / 8;
    const auto t0 = std::chrono::steady_clock::now();
    auto algo =
        lang::CompileSource(lang::HierarchicalMeshAllReduceSource(nodes, 8));
    const double parse_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    if (!algo.ok()) {
      std::fprintf(stderr, "DSL error: %s\n", algo.status().ToString().c_str());
      return 1;
    }
    const Topology topo(presets::A100(nodes, 8));
    const CompiledCollective cc =
        Compile(algo.value(), topo, DefaultCompileOptions(BackendKind::kResCCL))
            .value();
    const CompileStats& s = cc.stats;
    table.AddRow({std::to_string(gpus_total), std::to_string(cc.algo.ntasks()),
                  Fixed(Ms(parse_us), 1), Fixed(Ms(s.analysis_us), 1),
                  Fixed(Ms(s.scheduling_us), 1), Fixed(Ms(s.validate_us), 1),
                  Fixed(Ms(s.allocation_us), 1), Fixed(Ms(s.lowering_us), 1),
                  Fixed(Ms(parse_us + s.total_us() + s.validate_us), 1)});
    if (gpus_total >= 256 && s.validate_us > s.scheduling_us) {
      std::fprintf(stderr,
                   "fig10a: Validate %.1f ms exceeds Schedule %.1f ms at %d "
                   "GPUs\n",
                   Ms(s.validate_us), Ms(s.scheduling_us), gpus_total);
      shape_ok = false;
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return shape_ok ? 0 : 1;
}

// Fig. 10(b): HPDS against the round-robin scheduling baseline.
int Fig10b(int jobs) {
  std::printf("--- (b) HPDS vs round-robin (2 servers x 8 GPUs) ---\n");
  const Topology topo(presets::A100(2, 8));
  struct Case {
    const char* label;
    Algorithm algo;
  };
  const Case cases[] = {
      {"expert AllGather", algorithms::HierarchicalMeshAllGather(topo)},
      {"expert AllReduce", algorithms::HierarchicalMeshAllReduce(topo)},
      {"synth TACCL-AR", algorithms::TacclLikeAllReduce(topo)},
      {"synth TECCL-AG", algorithms::TecclLikeAllGather(topo)},
  };
  const auto rows = ParallelRows<std::vector<std::string>>(
      jobs, std::size(cases), [&](std::size_t i) -> std::vector<std::string> {
        const Case& c = cases[i];
        CompileOptions opts = DefaultCompileOptions(BackendKind::kResCCL);
        opts.scheduler = SchedulerKind::kRoundRobin;
        const double rr =
            MeasurePrepared(*PrepareOrDie(c.algo, topo, opts, "rr"),
                            Size::MiB(1024))
                .algo_bw.gbps();
        opts.scheduler = SchedulerKind::kHpds;
        const double hpds =
            MeasurePrepared(*PrepareOrDie(c.algo, topo, opts, "hpds"),
                            Size::MiB(1024))
                .algo_bw.gbps();
        return {c.label, Fixed(rr, 1), Fixed(hpds, 1),
                Fixed(hpds / rr, 2) + "x"};
      });
  TextTable table({"Algorithm", "RR GB/s", "HPDS GB/s", "HPDS speedup"});
  for (const auto& row : rows) table.AddRow(row);
  std::printf("%s", table.ToString().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Fig. 12: per-TB time-cost breakdown for ResCCL and MSCCL executing the
// same expert and synthesized algorithms on the V100 cluster, including the
// early-release saving of ResCCL's smaller plan.
//
// The numbers come from the critical-path analyzer (obs/critical_path.h)
// rather than the raw TbStats: each TB's execution time is split into
// alpha (startup latency), bandwidth (bytes at the solo rate) and contention
// (gamma·L(z) sharing), and the makespan is additionally attributed along
// the realized critical chain. Each run self-checks the analyzer's
// invariant: every TB's buckets sum to its finish, and both makespan views
// tile the makespan.

struct CriticalPathRun {
  CollectiveReport report;
  obs::CriticalPathReport cp;
};

CriticalPathRun AnalyzedRun(const Algorithm& algo, const Topology& topo,
                            BackendKind kind) {
  CriticalPathRun run;
  run.report = MeasurePrepared(*PrepareOrDie(algo, topo, kind), Size::MiB(256),
                               Size::MiB(1), /*observe=*/true);
  run.cp = obs::AnalyzeCriticalPath(run.report.lowered->program,
                                    run.report.sim);
  return run;
}

int Fig12(int jobs) {
  const Topology topo(presets::V100(2, 8));
  struct Case {
    const char* label;
    Algorithm algo;
  };
  const Case cases[] = {
      {"(a) expert-designed (HM AllReduce)",
       algorithms::HierarchicalMeshAllReduce(topo)},
      {"(b) synthesized (TACCL-like AllReduce)",
       algorithms::TacclLikeAllReduce(topo)},
  };
  const BackendKind kinds[] = {BackendKind::kMscclLike, BackendKind::kResCCL};
  const auto runs = ParallelRows<CriticalPathRun>(
      jobs, std::size(cases) * std::size(kinds), [&](std::size_t i) {
        const CriticalPathRun run =
            AnalyzedRun(cases[i / std::size(kinds)].algo, topo,
                        kinds[i % std::size(kinds)]);
        const obs::CriticalPathReport& cp = run.cp;
        for (const obs::TbBreakdown& tb : cp.tbs) {
          CheckClose("TB buckets sum to finish", tb.buckets.Total().us(),
                     tb.finish.us());
        }
        CheckClose("critical-TB view sums to makespan",
                   cp.critical_tb_buckets.Total().us(), cp.makespan.us());
        CheckClose("critical-chain view sums to makespan",
                   cp.path_buckets.Total().us(), cp.makespan.us());
        return run;
      });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i % std::size(kinds) == 0) {
      std::printf("--- %s ---\n", cases[i / std::size(kinds)].label);
    }
    const obs::CriticalPathReport& cp = runs[i].cp;
    // Show rank 0's TBs, the figure's "workers".
    TextTable table({"TB", "alpha ms", "bw ms", "cont ms", "sync ms",
                     "release ms", "saving vs makespan"});
    int shown = 0;
    for (const obs::TbBreakdown& tb : cp.tbs) {
      if (tb.rank != 0) continue;
      const obs::AttributionBuckets& b = tb.buckets;
      table.AddRow({"TB" + std::to_string(shown++), Fixed(b.alpha.ms(), 2),
                    Fixed(b.bandwidth.ms(), 2), Fixed(b.contention.ms(), 2),
                    Fixed(b.sync.ms(), 2), Fixed(tb.finish.ms(), 2),
                    Fixed((cp.makespan - tb.finish).ms(), 2)});
    }
    std::printf("%s backend: %d TBs on rank 0 (total %d), makespan %.2f ms\n",
                BackendName(kinds[i % std::size(kinds)]), shown,
                runs[i].report.total_tbs, cp.makespan.ms());
    std::printf("%s", table.ToString().c_str());
    const obs::AttributionBuckets& pb = cp.path_buckets;
    std::printf("critical chain (TB%d): alpha %.1f%%, bandwidth %.1f%%, "
                "contention %.1f%%, sync %.1f%%, overhead %.1f%%%s\n\n",
                cp.critical_tb, pb.alpha / cp.makespan * 100,
                pb.bandwidth / cp.makespan * 100,
                pb.contention / cp.makespan * 100,
                pb.sync / cp.makespan * 100, pb.overhead / cp.makespan * 100,
                cp.chain_complete ? "" : " [chain incomplete]");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Fig. 13: end-to-end Megatron training throughput with ResCCL, MSCCL and
// NCCL as the communication backend: GPT-3 models under tensor parallelism,
// T5 models under data parallelism.

void TrainingPanel(const char* label,
                   const std::vector<train::ModelSpec>& models, int tp,
                   int dp_small, int dp_large, int jobs) {
  std::printf("--- %s ---\n", label);
  const auto rows = ParallelRows<std::vector<std::string>>(
      jobs, models.size(), [&](std::size_t i) -> std::vector<std::string> {
        const train::ModelSpec& m = models[i];
        const bool large = m.params_billion >= 13.0;
        train::TrainConfig c;
        c.model = m;
        c.tp = tp;
        c.dp = large ? dp_large : dp_small;
        c.global_batch = large ? 32 : 16;
        double thr[3];
        double comm = 0;
        const BackendKind kinds[] = {BackendKind::kNcclLike,
                                     BackendKind::kMscclLike,
                                     BackendKind::kResCCL};
        for (int k = 0; k < 3; ++k) {
          c.backend = kinds[k];
          const train::IterationReport r = train::SimulateIteration(c);
          thr[k] = r.samples_per_sec;
          if (k == 2) comm = r.comm_fraction;
        }
        return {m.name,
                std::to_string(c.tp * c.dp),
                Fixed(thr[0], 1),
                Fixed(thr[1], 1),
                Fixed(thr[2], 1),
                "+" + Percent(thr[2] / thr[0] - 1.0),
                "+" + Percent(thr[2] / thr[1] - 1.0),
                Percent(comm)};
      });
  TextTable table({"Model", "GPUs", "NCCL samp/s", "MSCCL samp/s",
                   "ResCCL samp/s", "vs NCCL", "vs MSCCL", "comm frac"});
  for (const auto& row : rows) table.AddRow(row);
  std::printf("%s\n", table.ToString().c_str());
}

int Fig13(int jobs) {
  TrainingPanel("(a) GPT-3, tensor parallelism (tp=8)", train::Gpt3Family(),
                8, 2, 4, jobs);
  TrainingPanel("(b) T5, data parallelism (16 GPUs)", train::T5Family(), 1,
                16, 16, jobs);
  return 0;
}

// ---------------------------------------------------------------------------
// Table 3: TB resource utilization of ResCCL vs MSCCL across the four
// topologies (2x4, 2x8, 4x4, 4x8) for expert and synthesized AllReduce /
// AllGather: per-GPU TB count, mean communication (busy) share, mean and max
// idle ratio.
//
// Busy/idle shares come from the critical-path analyzer's per-TB buckets:
// busy = alpha + bandwidth + contention (transfers in flight), idle = sync.
// Each cell self-checks that these reproduce the simulator's own
// AvgBusyRatio/AvgIdleRatio/MaxIdleRatio exactly.

struct TbMetrics {
  int tbs = 0;
  double comm = 0, avg_idle = 0, max_idle = 0;
};

TbMetrics MeasureTbMetrics(const Algorithm& algo, const Topology& topo,
                           BackendKind kind) {
  const CriticalPathRun run = AnalyzedRun(algo, topo, kind);
  const obs::CriticalPathReport& cp = run.cp;
  TbMetrics m;
  m.tbs = run.report.max_tbs_per_rank;
  for (const obs::TbBreakdown& tb : cp.tbs) {
    if (tb.finish <= SimTime::Zero()) continue;
    const obs::AttributionBuckets& b = tb.buckets;
    const SimTime busy = b.alpha + b.bandwidth + b.contention;
    m.comm += busy / tb.finish;
    m.avg_idle += b.sync / tb.finish;
    m.max_idle = std::max(m.max_idle, b.sync / tb.finish);
  }
  if (!cp.tbs.empty()) {
    m.comm /= static_cast<double>(cp.tbs.size());
    m.avg_idle /= static_cast<double>(cp.tbs.size());
  }
  // The analyzer's buckets must reproduce the simulator's own ratios: the
  // alpha/bandwidth/contention tiling partitions exactly the machine's
  // recorded in-flight (busy) time, and the analyzer's sync is the machine's.
  const SimRunReport& sim = run.report.sim;
  CheckClose("analyzer busy share == AvgBusyRatio", m.comm,
             sim.AvgBusyRatio());
  CheckClose("analyzer idle share == AvgIdleRatio", m.avg_idle,
             sim.AvgIdleRatio());
  CheckClose("analyzer max idle == MaxIdleRatio", m.max_idle,
             sim.MaxIdleRatio());
  return m;
}

void TbUtilizationSection(const char* label, MakeAlgorithm make, int jobs) {
  std::printf("--- %s ---\n", label);
  const BackendKind kinds[] = {BackendKind::kMscclLike, BackendKind::kResCCL};
  constexpr std::size_t kTopos = 4;
  const auto cells = ParallelRows<TbMetrics>(
      jobs, std::size(kinds) * kTopos, [&](std::size_t i) {
        const int index = static_cast<int>(i % kTopos) + 1;
        const Topology topo(presets::Table3Topo(index));
        return MeasureTbMetrics(make(topo), topo, kinds[i / kTopos]);
      });
  TextTable table({"Backend", "Metric", "Topo1 (2x4)", "Topo2 (2x8)",
                   "Topo3 (4x4)", "Topo4 (4x8)"});
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    const auto add_row = [&](const char* metric, auto cell) {
      std::vector<std::string> row{BackendName(kinds[k]), metric};
      for (std::size_t t = 0; t < kTopos; ++t) {
        row.push_back(cell(cells[k * kTopos + t]));
      }
      table.AddRow(row);
    };
    add_row("# TB / GPU",
            [](const TbMetrics& m) { return std::to_string(m.tbs); });
    add_row("Comm Time", [](const TbMetrics& m) { return Percent(m.comm); });
    add_row("Avg Idle", [](const TbMetrics& m) { return Percent(m.avg_idle); });
    add_row("Max Idle", [](const TbMetrics& m) { return Percent(m.max_idle); });
  }
  std::printf("%s\n", table.ToString().c_str());
}

int Table3(int jobs) {
  TbUtilizationSection("Expert AllReduce (hierarchical mesh)",
                       algorithms::HierarchicalMeshAllReduce, jobs);
  TbUtilizationSection("Expert AllGather (hierarchical mesh)",
                       algorithms::HierarchicalMeshAllGather, jobs);
  TbUtilizationSection("Synthesized AllReduce (TACCL-like)",
                       algorithms::TacclLikeAllReduce, jobs);
  TbUtilizationSection("Synthesized AllGather (TACCL-like)",
                       algorithms::TacclLikeAllGather, jobs);
  return 0;
}

// ---------------------------------------------------------------------------
// Ablation: transfer-chunk granularity. The paper fixes the chunk at 1 MB
// (Table 2, ~1% of the synchronized buffer). Small chunks multiply
// per-primitive overheads and startup latencies; huge chunks starve the
// pipeline of micro-batches to schedule across.

int Chunk(int jobs) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan resccl = PrepareOrDie(algo, topo, BackendKind::kResCCL);
  const PreparedPlan msccl = PrepareOrDie(algo, topo, BackendKind::kMscclLike);
  const Size chunks[] = {Size::KiB(64), Size::KiB(256), Size::MiB(1),
                         Size::MiB(4),  Size::MiB(16),  Size::MiB(64)};
  const auto rows = ParallelRows<std::vector<std::string>>(
      jobs, std::size(chunks), [&](std::size_t i) -> std::vector<std::string> {
        const CollectiveReport ours =
            MeasurePrepared(*resccl, Size::GiB(1), chunks[i]);
        const CollectiveReport theirs =
            MeasurePrepared(*msccl, Size::GiB(1), chunks[i]);
        return {SizeLabel(chunks[i]), std::to_string(ours.nmicrobatches),
                Fixed(ours.algo_bw.gbps(), 1), Fixed(theirs.algo_bw.gbps(), 1)};
      });
  TextTable table({"Chunk", "Micro-batches", "ResCCL GB/s", "MSCCL GB/s"});
  for (const auto& row : rows) table.AddRow(row);
  std::printf("%s", table.ToString().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Ablation: multi-job network contention (§4.4's "Network contention"
// discussion). Two identical AllReduce jobs share the cluster; the table
// reports each backend's isolated completion, co-run completion, and the
// effective bandwidth retained under sharing (the merged report's algo_bw
// over both buffers). ResCCL's connection-limited schedules keep the fabric
// out of the superlinear contention regime. Fails if any job's data fails
// to verify or any job co-runs faster than it runs alone.

int Contention(int /*jobs*/) {
  const Topology topo(presets::A100(2, 8));
  TextTable table({"Backend", "isolated ms", "co-run ms", "slowdown",
                   "co-run agg GB/s"});
  Checks check;
  for (BackendKind kind : {BackendKind::kNcclLike, BackendKind::kMscclLike,
                           BackendKind::kResCCL}) {
    JobSpec job;
    job.name = "ar";
    job.algorithm = DefaultAlgorithm(kind, CollectiveOp::kAllReduce, topo);
    job.options = DefaultCompileOptions(kind);
    job.launch.buffer = Size::MiB(256);
    JobSpec job2 = job;
    job2.name = "ar2";

    const CoRunReport report = RunConcurrently({job, job2}, topo);
    for (const JobOutcome& outcome : report.jobs) {
      check(outcome.verified && outcome.slowdown >= 1.0 - 1e-9,
            "co-run job must verify and run no faster than alone");
    }
    const JobOutcome& a = report.jobs[0];
    table.AddRow({BackendName(kind), Fixed(a.isolated.ms(), 2),
                  Fixed(report.merged.elapsed.ms(), 2),
                  Fixed(a.slowdown, 2) + "x",
                  Fixed(report.merged.algo_bw.gbps(), 1)});
  }
  std::printf("%s", table.ToString().c_str());
  return check.failed;
}

// ---------------------------------------------------------------------------
// Ablation: transport protocols (Table 2). Simple vs LL vs LL128 across
// buffer sizes on the latency-sensitive ring and the bandwidth-oriented
// hierarchical mesh: LL wins tiny messages, LL128 the mid-range, Simple the
// sustained-bandwidth regime — the crossover every CCL tunes around. The
// Auto column runs the same point with Protocol::kAuto and must land
// bit-identically on one of the explicit columns (the crossover model picks
// a protocol, never a fourth behavior).
//
// Writes BENCH_protocols.json (tools/check_perf.py compares the crossover
// points and best-protocol labels exactly and the bandwidths within
// tolerance against bench/baselines/ablation_protocols_baseline.json).

// The launch the sweep uses at one buffer size: the chunk is derived from a
// fixed micro-batch target so every point pipelines the same depth. When
// the buffer is too small for the target at a sane chunk floor, the *batch
// count* shrinks (clamped, never below one) — the chunk is what the
// geometry implies, not a clamp artifact that silently changes the
// micro-batch count across the sweep.
Size ProtocolChunk(Size buffer, int nchunks) {
  constexpr int kTargetMicroBatches = 8;
  constexpr std::int64_t kChunkFloor = 1024;  // 1 KiB
  const std::int64_t max_mb =
      buffer.bytes() / (kChunkFloor * static_cast<std::int64_t>(nchunks));
  const std::int64_t mb = std::clamp<std::int64_t>(
      max_mb, 1, static_cast<std::int64_t>(kTargetMicroBatches));
  const std::int64_t chunk =
      buffer.bytes() / (mb * static_cast<std::int64_t>(nchunks));
  return Size::Bytes(chunk < 1 ? 1 : chunk);
}

struct ProtocolPoint {
  double gbps[3] = {0, 0, 0};  // Simple, LL, LL128
  SimTime elapsed[3];
  std::string best;      // "+"-joined labels of every protocol within tie
                         // tolerance of the fastest (deterministic order)
  Protocol auto_pick = Protocol::kSimple;  // what kAuto resolved to
  SimTime auto_elapsed;
};

constexpr Protocol kProtos[3] = {Protocol::kSimple, Protocol::kLL,
                                 Protocol::kLL128};

CollectiveReport RunProtocol(const PreparedCollective& prepared,
                             Protocol proto, Size buffer, Size chunk) {
  RunRequest request;
  request.launch.buffer = buffer;
  request.launch.chunk = chunk;
  request.launch.protocol = proto;
  return Execute(prepared, request);
}

ProtocolPoint MeasureProtocols(const PreparedCollective& prepared,
                               Size buffer, Size chunk) {
  ProtocolPoint p;
  for (int i = 0; i < 3; ++i) {
    const CollectiveReport rep =
        RunProtocol(prepared, kProtos[i], buffer, chunk);
    p.gbps[i] = rep.algo_bw.gbps();
    p.elapsed[i] = rep.elapsed;
  }
  // A "best" label that never hides a tie behind comparison order: every
  // protocol within relative tolerance of the fastest is listed, joined in
  // the fixed Simple, LL, LL128 order.
  constexpr double kTieTol = 1e-9;
  SimTime fastest = p.elapsed[0];
  for (int i = 1; i < 3; ++i) fastest = std::min(fastest, p.elapsed[i]);
  for (int i = 0; i < 3; ++i) {
    if (p.elapsed[i].us() <= fastest.us() * (1.0 + kTieTol)) {
      if (!p.best.empty()) p.best += "+";
      p.best += ProtocolName(kProtos[i]);
    }
  }
  const CollectiveReport auto_rep =
      RunProtocol(prepared, Protocol::kAuto, buffer, chunk);
  p.auto_pick = auto_rep.protocol;
  p.auto_elapsed = auto_rep.elapsed;
  return p;
}

struct ProtocolCase {
  const char* key = nullptr;  // JSON section name
  std::vector<Size> sizes;
  std::vector<ProtocolPoint> points;
  std::int64_t crossover_to_simple = -1;  // first size Simple is (co-)best
};

void WriteProtocolsJson(const char* path,
                        const std::vector<ProtocolCase>& cases) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::abort();
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_protocols\",\n");
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const ProtocolCase& pc = cases[c];
    std::fprintf(f, "  \"%s\": {\n", pc.key);
    for (std::size_t i = 0; i < pc.points.size(); ++i) {
      const std::string label = SizeLabel(pc.sizes[i]);
      const ProtocolPoint& p = pc.points[i];
      std::fprintf(f, "    \"best_%s\": \"%s\",\n", label.c_str(),
                   p.best.c_str());
      std::fprintf(f, "    \"auto_%s\": \"%s\",\n", label.c_str(),
                   ProtocolName(p.auto_pick));
      std::fprintf(f, "    \"simple_gbps_%s\": %.6f,\n", label.c_str(),
                   p.gbps[0]);
      std::fprintf(f, "    \"ll_gbps_%s\": %.6f,\n", label.c_str(),
                   p.gbps[1]);
      std::fprintf(f, "    \"ll128_gbps_%s\": %.6f,\n", label.c_str(),
                   p.gbps[2]);
    }
    std::fprintf(f, "    \"crossover_to_simple_bytes\": %" PRId64 "\n",
                 pc.crossover_to_simple);
    std::fprintf(f, "  }%s\n", c + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Protocols(int /*jobs*/) {
  const Topology topo(presets::A100(2, 8));
  struct Case {
    const char* label;
    Algorithm algo;  // its name keys BENCH_protocols.json
  };
  const Case cases[] = {
      {"ring AllGather", algorithms::RingAllGather(16)},
      {"HM AllReduce", algorithms::HierarchicalMeshAllReduce(topo)},
  };
  const std::vector<Size> sizes = {Size::KiB(64), Size::KiB(256),
                                   Size::MiB(1),  Size::MiB(8),
                                   Size::MiB(64), Size::MiB(512)};

  Checks check;
  std::vector<ProtocolCase> results;
  for (const Case& c : cases) {
    std::printf("--- %s ---\n", c.label);
    const PreparedPlan prepared =
        PrepareOrDie(c.algo, topo, BackendKind::kResCCL);
    const int nchunks = c.algo.nchunks > 0 ? c.algo.nchunks : c.algo.nranks;
    ProtocolCase pc;
    pc.key = c.algo.name.c_str();
    pc.sizes = sizes;
    TextTable table({"Buffer", "Simple GB/s", "LL GB/s", "LL128 GB/s",
                     "best", "auto"});
    for (const Size buffer : sizes) {
      const ProtocolPoint p = MeasureProtocols(
          *prepared, buffer, ProtocolChunk(buffer, nchunks));

      // kAuto must reproduce its explicit column exactly: same resolved
      // protocol -> same lowered program -> bit-identical makespan.
      for (int i = 0; i < 3; ++i) {
        if (kProtos[i] != p.auto_pick) continue;
        check(p.auto_elapsed.us() == p.elapsed[i].us(),
              "auto run must be bit-identical to its explicit protocol");
      }

      if (pc.crossover_to_simple < 0 &&
          p.best.find("Simple") != std::string::npos) {
        pc.crossover_to_simple = buffer.bytes();
      }
      table.AddRow({SizeLabel(buffer), Fixed(p.gbps[0], 2),
                    Fixed(p.gbps[1], 2), Fixed(p.gbps[2], 2), p.best,
                    ProtocolName(p.auto_pick)});
      pc.points.push_back(p);
    }
    std::printf("%s\n", table.ToString().c_str());
    results.push_back(std::move(pc));
  }

  // The crossover shape on the latency-sensitive ring: LL (co-)fastest at
  // the smallest point, Simple at the largest, and the auto picks walk
  // monotonically LL -> LL128 -> Simple left to right.
  const ProtocolCase& ring = results.front();
  check(ring.points.front().best.find("LL") != std::string::npos,
        "ring: LL must be (co-)fastest at the smallest buffer");
  check(ring.points.back().best.find("Simple") != std::string::npos,
        "ring: Simple must be (co-)fastest at the largest buffer");
  check(ring.points.front().auto_pick == Protocol::kLL,
        "ring: auto must pick LL at the smallest buffer");
  check(ring.points.back().auto_pick == Protocol::kSimple,
        "ring: auto must pick Simple at the largest buffer");
  const auto rank_of = [](Protocol p) {
    return p == Protocol::kLL ? 0 : p == Protocol::kLL128 ? 1 : 2;
  };
  for (std::size_t i = 1; i < ring.points.size(); ++i) {
    check(rank_of(ring.points[i].auto_pick) >=
              rank_of(ring.points[i - 1].auto_pick),
          "ring: auto picks must cross over monotonically");
  }

  WriteProtocolsJson("BENCH_protocols.json", results);
  if (check.failed == 0) {
    std::printf("self-checks: all passed; wrote BENCH_protocols.json\n");
  }
  return check.failed;
}

// ---------------------------------------------------------------------------
// Robustness under injected faults: one prepared plan per (algorithm,
// backend) replayed across escalating fault intensities, tabulating the
// makespan inflation of ResCCL's task-level schedule against the MSCCL-like
// and NCCL-like baselines. All faulted runs reuse the plan compiled by the
// clean run — faults are Execute-time only and never enter the compile
// fingerprint. Fails if any run fails verification (faults must perturb
// timing, never data), if a faulted run reports a slowdown below 1.0, or if
// any post-warm Execute misses the plan cache.

// One (algorithm, backend) case: its table row plus any failed checks.
// Cases are independent (each owns its Communicator and plan cache), so
// the sweep fans them out over the pool; within a case the clean run must
// stay first (it compiles the plan the faulted replays must hit).
struct RobustnessRow {
  std::vector<std::string> cells;
  std::vector<const char*> failures;
};

RobustnessRow RobustnessCase(const char* label, MakeAlgorithm make,
                             BackendKind kind) {
  constexpr std::uint64_t kSeed = 20250806;
  RobustnessRow result;
  auto check = [&result](bool ok, const char* what) {
    if (!ok) result.failures.push_back(what);
  };

  const Communicator comm(presets::A100(2, 4), kind);
  const Algorithm algo = make(comm.topology());

  RunRequest request;
  request.launch.buffer = Size::MiB(64);
  request.verify = true;

  // Clean run compiles the plan (cache miss) and sets the baseline.
  const CollectiveReport clean = comm.Run(algo, request);
  check(clean.verified, "clean run must verify");

  result.cells = {label, BackendName(kind), Fixed(clean.elapsed.ms(), 3)};
  double last_stall_ms = 0;
  for (const double intensity : {0.25, 0.5, 0.75, 1.0}) {
    RunRequest faulted = request;
    faulted.faults = FaultPlan::Make(kSeed, intensity, comm.topology());
    const CollectiveReport r = comm.Run(algo, faulted);
    check(r.verified, "faulted run must verify (faults never touch data)");
    check(r.fault.faulted, "fault impact must be reported");
    check(r.fault.slowdown_vs_clean >= 1.0 - 1e-9,
          "faults must not speed a schedule up");
    check(r.fault.clean_makespan == clean.elapsed,
          "fault baseline must match the clean replay of the same plan");
    result.cells.push_back(Fixed(r.fault.slowdown_vs_clean, 2) + "x");
    last_stall_ms = r.fault.total_stall.ms();
  }
  result.cells.push_back(Fixed(last_stall_ms, 3));

  const PlanCache::Stats stats = comm.plan_cache().stats();
  check(stats.misses == 1, "exactly one compile per (algo, backend)");
  check(stats.hits == 4, "every faulted run served from the plan cache");
  return result;
}

int Robustness(int jobs) {
  struct Case {
    const char* label;
    MakeAlgorithm make;
    BackendKind kind;
  };
  const std::pair<const char*, MakeAlgorithm> algos[] = {
      {"hm_allreduce", algorithms::HierarchicalMeshAllReduce},
      {"taccl_allreduce", algorithms::TacclLikeAllReduce}};
  std::vector<Case> cases;
  for (const auto& [label, make] : algos) {
    for (const BackendKind kind : {BackendKind::kResCCL,
                                   BackendKind::kMscclLike,
                                   BackendKind::kNcclLike}) {
      cases.push_back({label, make, kind});
    }
  }
  const auto rows = ParallelRows<RobustnessRow>(
      jobs, cases.size(), [&](std::size_t i) {
        return RobustnessCase(cases[i].label, cases[i].make, cases[i].kind);
      });

  TextTable table({"Algorithm", "Backend", "Clean ms", "x0.25", "x0.50",
                   "x0.75", "x1.00", "Stall ms @1.0"});
  Checks check;
  for (const RobustnessRow& r : rows) {
    table.AddRow(r.cells);
    for (const char* what : r.failures) check(false, what);
  }
  std::printf("%s\n", table.ToString().c_str());
  if (check.failed == 0) std::printf("all robustness checks passed\n");
  return check.failed;
}

// ---------------------------------------------------------------------------
// The experiment table.

struct Experiment {
  std::string_view name;
  Header header;
  int (*run)(int jobs);  // returns the failed self-checks
};

const Experiment kExperiments[] = {
    {"table1",
     {"Table 1 — global link utilization on the existing (MSCCL-like) backend",
      "Table 1 of the paper",
      "Utilization = mean busy fraction of links that carried data, over the "
      "full execution (256 MiB buffers, 1 MiB chunks); computed from the "
      "exact fluid-rate timelines and self-checked against the simulator's "
      "link accounting."},
     Table1},
    {"fig2",
     {"Fig. 2 — primitive time-cost breakdown on the existing runtime",
      "Fig. 2 of the paper",
      "Paper: extra-channel TBs idle up to 98.2% of the time (a); sync "
      "blocking reaches 67.1% (b)."},
     Fig2},
    {"fig3",
     {"Fig. 3 — runtime interpreter vs direct kernel execution",
      "Fig. 3 of the paper",
      "Paper: interpretation costs 17.1% performance on average."},
     Fig3},
    {"fig4",
     {"Fig. 4 — TB parallelism vs bandwidth (P2P over one NIC)",
      "Fig. 4 of the paper",
      "Paper: bandwidth increases up to 4 TBs, then decreases."},
     Fig4},
    {"fig6",
     {"Fig. 6 — expert-designed AllGather/AllReduce bandwidth",
      "Fig. 6(a)-(d) of the paper",
      "Paper: AG 16-GPU +28.1%-2.2x vs NCCL, +12.4%-1.6x vs MSCCL; AR "
      "+6.7%-2.5x vs NCCL."},
     Fig6},
    {"fig7",
     {"Fig. 7 — synthesized algorithms: ResCCL speedup over MSCCL",
      "Fig. 7 of the paper",
      "Paper: TECCL 4.6%-1.5x across the range; TACCL up to 1.4x on larger "
      "buffers, slight regressions below 8MB."},
     Fig7},
    {"fig8",
     {"Fig. 8 — expert algorithms on additional topologies",
      "Fig. 8 of the paper",
      "Paper: AG 1.6x-2.3x vs NCCL, +6.8%-23.1% vs MSCCL; AR up to 3.7x vs "
      "NCCL, up to 2.4x vs MSCCL."},
     Fig8},
    {"fig9",
     {"Fig. 9 — synthesized algorithms on additional topologies",
      "Fig. 9 of the paper",
      "Paper: +9.8%-31.1% for synthesized algorithms vs MSCCL; up to 50.1%% "
      "for AllReduce."},
     Fig9},
    {"fig10a",
     {"Fig. 10(a) — offline workflow breakdown", "Fig. 10(a) of the paper",
      "Paper: the full pipeline finishes in ~11 minutes at 1024 GPUs. "
      "Validate is the schedule check inside Compile, outside the paper's "
      "four phases; Total includes it."},
     Fig10a},
    {"fig10b",
     {"Fig. 10(b) — HPDS vs round-robin scheduling", "Fig. 10(b) of the paper",
      "Paper: HPDS outperforms RR by up to 187%."},
     Fig10b},
    {"fig11",
     {"Fig. 11 — custom algorithms on the V100 cluster",
      "Fig. 11 of the paper",
      "Paper: HM-AG 2.1x-3.7x vs NCCL; HM-RS 1.9x-4.2x vs NCCL; HM-AR "
      "2.3x-3.9x vs NCCL, +10.3%-68.2% vs MSCCL."},
     Fig11},
    {"fig12",
     {"Fig. 12 — per-TB sync/execution breakdown (V100)",
      "Fig. 12(a)-(b) of the paper",
      "Paper: ResCCL reduces TB count by up to 75%, cuts occupation time to "
      "as little as 3.8% of MSCCL's, and releases TBs early."},
     Fig12},
    {"fig13",
     {"Fig. 13 — Megatron end-to-end training throughput",
      "Fig. 13(a)-(b) of the paper",
      "Paper: T5 +18%-39% vs native Megatron/NCCL, up to 1.8x vs MSCCL; "
      "GPT-3 +11%-20% vs NCCL, +7.5%-29.3% vs MSCCL."},
     Fig13},
    {"table3",
     {"Table 3 — TB resource utilization, ResCCL vs MSCCL",
      "Table 3 of the paper",
      "Paper: ResCCL reduces TB consumption by up to 77.8%, cuts average "
      "idle time by 41.6%, and its max idle never exceeds ~21.4% on expert "
      "algorithms (vs up to 99.9% for MSCCL)."},
     Table3},
    {"chunk",
     {"Ablation — transfer chunk size (ResCCL, HM AllReduce, 2x8)",
      "design choice from Table 2 (ChunkSize = 1MB)",
      "Buffer fixed at 1 GiB per rank; only the chunk granularity varies."},
     Chunk},
    {"contention",
     {"Ablation — co-running jobs under network contention",
      "§4.4 (network contention) of the paper",
      "Two identical HM AllReduce jobs (256 MiB each) share the 2x8 "
      "cluster."},
     Contention},
    {"protocols",
     {"Ablation — transport protocols (ResCCL backend, 2x8)",
      "design choice from Table 2 (Protocol = Simple)",
      "Chunk derived from a fixed micro-batch target so every point "
      "pipelines alike; Auto must match one explicit column "
      "bit-identically."},
     Protocols},
    {"robustness",
     {"fig — robustness to fabric faults",
      "fault-injection study on the schedules of §4/§5",
      "Slowdown vs clean replay of the same prepared plan, fault seed "
      "fixed; higher is worse."},
     Robustness},
};

}  // namespace

int main(int argc, char** argv) {
  return RunNamed("paper", argc, argv, kExperiments, {},
                  [](const Experiment& e, const Args& args) {
                    return e.run(ThreadPool::ResolveJobs(args.jobs));
                  });
}
