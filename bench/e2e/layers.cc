#include "layers.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "analysis/analyzer.h"
#include "core/compiler.h"
#include "core/connection.h"
#include "core/dag.h"
#include "core/hpds.h"
#include "core/schedule.h"
#include "core/tb_alloc.h"
#include "runtime/data_engine.h"
#include "runtime/exec_context.h"
#include "runtime/lowering.h"
#include "sim/machine.h"

namespace e2e {

using namespace resccl;

namespace {

// Both passes run this many times; each step keeps its fastest run.
constexpr int kPassReps = 3;

bool SameTbPlan(const TbPlan& a, const TbPlan& b) {
  if (a.tbs.size() != b.tbs.size() || a.send_tb != b.send_tb ||
      a.recv_tb != b.recv_tb) {
    return false;
  }
  for (std::size_t i = 0; i < a.tbs.size(); ++i) {
    const TbPlan::Tb& x = a.tbs[i];
    const TbPlan::Tb& y = b.tbs[i];
    if (x.rank != y.rank || x.refs.size() != y.refs.size()) return false;
    for (std::size_t k = 0; k < x.refs.size(); ++k) {
      if (x.refs[k].task != y.refs[k].task || x.refs[k].dir != y.refs[k].dir ||
          x.refs[k].wave != y.refs[k].wave ||
          x.refs[k].order != y.refs[k].order) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void RecordVerified(Cell& cell, const CollectiveReport& report,
                    RunResult& result) {
  result.Check(report.verified, "data engine rejected the set-up run of " +
                                    report.algorithm + ": " +
                                    report.verify_error);
  cell.algorithm = report.algorithm;
  cell.makespan = report.sim.makespan;
  cell.events = report.sim.events;
  cell.algbw_gbps = report.algo_bw.gbps();
  cell.max_tbs_per_rank = report.max_tbs_per_rank;
  if (report.fault.faulted) {
    cell.clean_makespan = report.fault.clean_makespan;
    cell.fault_slowdown = report.fault.slowdown_vs_clean;
    result.Check(report.sim.makespan >= report.fault.clean_makespan,
                 "faulted makespan below the clean one for " +
                     report.algorithm);
  }
}

bool Reproduces(const Cell& cell, const CollectiveReport& report) {
  return report.sim.makespan == cell.makespan &&
         report.sim.events == cell.events &&
         (!report.fault.faulted ||
          report.fault.clean_makespan == cell.clean_makespan);
}

void SetSimMetrics(RunResult& result, const std::vector<Cell>& cells) {
  std::vector<double> algbw;
  std::vector<double> slowdown;
  std::map<std::string, int> tbs_by_algorithm;
  for (const Cell& c : cells) {
    algbw.push_back(c.algbw_gbps);
    slowdown.push_back(c.fault_slowdown);
    tbs_by_algorithm[c.algorithm] = c.max_tbs_per_rank;
  }
  std::vector<double> tbs;
  for (const auto& entry : tbs_by_algorithm) {
    tbs.push_back(static_cast<double>(entry.second));
  }
  // Cells come in seed-dependent order (serve_live finds them in its request
  // stream); sorted, the sums below are the same bits for every seed.
  std::sort(algbw.begin(), algbw.end());
  std::sort(slowdown.begin(), slowdown.end());
  result.Set("sim_algbw_gbps", GeoMean(algbw), "GB/s");
  result.Set("tbs_per_rank", Mean(tbs), "count");
  result.Set("fault_slowdown", GeoMean(slowdown), "x");
}

void SetLayerDefaults(RunResult& result) {
  result.Set("lang.tasks", 0, "count");
  result.Set("lang.parse_share", 0, "frac");
  result.Set("plan_cache.hit_frac", 0, "frac");
  result.Set("plan_cache.compiles", 0, "count");
  result.Set("service.drop_frac_backlog", 0, "frac");
  result.Set("service.coalesced_frac", 0, "frac");
  result.Set("service.max_queue_depth", 0, "count");
}

void CompileLayers(const std::vector<PreparedPlan>& plans, Recorder& rec,
                   RunResult& result) {
  double compile_us = 0;
  CompileStats phases;
  double validate_algo_us = 0;
  double validate_schedule_us = 0;
  double analyze_us = 0;
  double tbs = 0;
  for (const PreparedPlan& plan : plans) {
    const Algorithm& algo = plan->plan.algo;
    const Topology& topo = *plan->topo;
    const CompileOptions& opts = plan->plan.options;

    std::optional<CompiledCollective> cc;
    compile_us += Timed(rec, "Compile", [&] {
      Result<CompiledCollective> compiled = Compile(algo, topo, opts);
      if (compiled.ok()) cc.emplace(std::move(compiled).value());
    });
    if (!result.Check(cc.has_value(), "Compile failed for " + algo.name)) {
      continue;
    }
    phases.analysis_us += cc->stats.analysis_us;
    phases.scheduling_us += cc->stats.scheduling_us;
    phases.allocation_us += cc->stats.allocation_us;
    phases.lowering_us += cc->stats.lowering_us;
    tbs += cc->tbs.total_tbs();

    // The step-by-step replay covers the pipeline the ResCCL backend runs.
    if (!result.Check(opts.scheduler == SchedulerKind::kHpds &&
                          opts.mode == ExecutionMode::kTaskLevel,
                      "compile replay needs an HPDS task-level plan")) {
      continue;
    }
    const int steps = rec.Open("Compile.steps", NowUs());
    Status algo_ok;
    validate_algo_us += Timed(rec, "Algorithm::Validate",
                              [&] { algo_ok = algo.Validate(); });
    ConnectionTable connections(topo);
    std::optional<DependencyGraph> dag;
    Timed(rec, "DependencyGraph", [&] { dag.emplace(algo, connections); });
    Schedule schedule;
    Timed(rec, "HpdsScheduler::Build",
          [&] { schedule = HpdsScheduler().Build(*dag, connections); });
    Status schedule_ok;
    validate_schedule_us += Timed(rec, "ValidateSchedule", [&] {
      schedule_ok = ValidateSchedule(schedule, *dag, connections);
    });
    TbPlan tb_plan;
    Timed(rec, "AllocateTbs", [&] {
      TbAllocParams params;
      params.policy = opts.tb_alloc;
      params.channels_per_peer = topo.spec().channels_per_peer;
      tb_plan = AllocateTbs(
          *dag, schedule, connections, params,
          std::vector<int>(static_cast<std::size_t>(dag->ntasks()), 0));
    });
    std::vector<int> waves;
    std::vector<std::vector<int>> preds;
    Timed(rec, "assembly", [&] {
      waves = schedule.WaveOf(dag->ntasks());
      preds.resize(static_cast<std::size_t>(dag->ntasks()));
      for (int t = 0; t < dag->ntasks(); ++t) {
        for (const TaskId p : dag->node(TaskId(t)).preds) {
          preds[static_cast<std::size_t>(t)].push_back(p.value);
        }
      }
    });
    rec.Close(steps, NowUs());
    result.Check(algo_ok.ok() && schedule_ok.ok(),
                 "step replay rejected " + algo.name);
    result.Check(SameTbPlan(tb_plan, cc->tbs) && waves == cc->wave_of_task &&
                     preds == cc->preds,
                 "step replay of " + algo.name +
                     " differs from Compile's TB plan and waves");

    AnalysisReport verdict;
    analyze_us += Timed(rec, "AnalyzePlan",
                        [&] { verdict = AnalyzePlan(*cc, &topo); });
    result.Check(verdict.clean(),
                 "analyzer rejected " + algo.name + ": " + verdict.Summary());
  }
  result.Set("core.compile_ms", compile_us / 1e3, "ms");
  result.Set("core.analysis_ms", phases.analysis_us / 1e3, "ms");
  result.Set("core.scheduling_ms", phases.scheduling_us / 1e3, "ms");
  result.Set("core.allocation_ms", phases.allocation_us / 1e3, "ms");
  result.Set("core.assembly_ms", phases.lowering_us / 1e3, "ms");
  result.Set("core.unattributed_ms", (compile_us - phases.total_us()) / 1e3,
             "ms");
  result.Set("core.validate_algo_ms", validate_algo_us / 1e3, "ms");
  result.Set("core.validate_schedule_ms", validate_schedule_us / 1e3, "ms");
  result.Set("core.tbs", tbs, "count");
  result.Set("analysis.verify_ms", analyze_us / 1e3, "ms");
}

void ExecuteLayers(const std::vector<Cell>& cells, bool one_shot,
                   Recorder& rec, RunResult& result) {
  const std::size_t n = cells.size();
  // Per cell, the least-disturbed (minimum) time of each step over the
  // repetitions — the overhead is a small difference of large timings —
  // and the simulator's counters, which every repetition reproduces.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  struct CellTimes {
    bool relowered = false;
    double exec_us = kNone;
    std::uint64_t allocs = std::numeric_limits<std::uint64_t>::max();
    double lower_us = kNone;
    double run_us = kNone;
    double clean_us = kNone;
    double verify_us = kNone;
    SimTime makespan;
    SimTime clean_makespan;
    std::uint64_t events = 0;
    std::size_t transfers = 0;
    FluidNetwork::Stats fluid;
    std::uint64_t peak_heap = 0;
  };
  std::vector<CellTimes> times(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Cell& c = cells[i];
    const Cell& prev = cells[(i + n - 1) % n];
    // A warm context re-lowers exactly where (plan, launch) changes from
    // the cell before; the first cell follows the last one of the cycle.
    times[i].relowered = one_shot || prev.plan != c.plan ||
                         prev.request.launch.buffer.bytes() !=
                             c.request.launch.buffer.bytes();
  }

  ExecContext ctx;
  if (!one_shot) {
    for (const Cell& c : cells) (void)ctx.Execute(c.plan, c.request);
  }
  const CostModel cost;
  std::map<const Topology*, std::unique_ptr<SimMachine>> machines;
  LoweredProgram lowered;
  SimRunReport run;
  SimRunReport clean;
  std::uint64_t diverged = 0;
  std::uint64_t rejected = 0;
  for (int rep = 0; rep < kPassReps; ++rep) {
    // Pass 1: Execute as the runtime does it.
    for (std::size_t i = 0; i < n; ++i) {
      const Cell& c = cells[i];
      CellTimes& t = times[i];
      const auto keep = [&t](const CollectiveReport& report) {
        t.makespan = report.sim.makespan;
        t.clean_makespan = report.fault.clean_makespan;
        t.events = report.sim.events;
      };
      const std::uint64_t allocs_before = AllocCount();
      const double us =
          one_shot ? Timed(rec, "Execute",
                           [&] { keep(Execute(*c.plan, c.request)); })
                   : Timed(rec, "ExecContext::Execute",
                           [&] { keep(ctx.Execute(c.plan, c.request)); });
      t.allocs = std::min(t.allocs, AllocCount() - allocs_before);
      t.exec_us = std::min(t.exec_us, us);
    }

    // Pass 2: the same cells, one public call per layer.
    for (std::size_t i = 0; i < n; ++i) {
      const Cell& c = cells[i];
      CellTimes& t = times[i];
      const CompiledCollective& cc = c.plan->plan;
      const Topology& topo = *c.plan->topo;
      std::unique_ptr<SimMachine>& machine = machines[&topo];
      if (!machine) machine = std::make_unique<SimMachine>(topo, cost);
      const bool faulted = !c.request.faults.empty();

      const int span = rec.Open("cell", NowUs());
      LaunchConfig launch = c.request.launch;
      Timed(rec, "ResolveProtocol", [&] {
        launch.protocol =
            ResolveProtocol(topo, cost, launch, cc.algo.nchunks);
      });
      const double lower_us = Timed(rec, "LowerInto", [&] {
        LowerInto(cc, cost, launch, lowered, topo.spec().channels_per_peer);
      });
      const double run_us = Timed(
          rec, faulted ? "SimMachine::RunInto.faulted" : "SimMachine::RunInto",
          [&] {
            machine->RunInto(lowered.program,
                             faulted ? &c.request.faults : nullptr, run);
          });
      double clean_us = 0;
      if (faulted) {
        clean_us = Timed(rec, "SimMachine::RunInto.clean", [&] {
          machine->RunInto(lowered.program, nullptr, clean);
        });
      }
      // The data engine checks the first repetition only: its buffers evict
      // the simulator's working set, which would slow the next cell's steps
      // here but not in pass 1.
      if (rep == 0) {
        VerifyResult verdict;
        t.verify_us = Timed(rec, "VerifyLoweredExecution", [&] {
          verdict =
              VerifyLoweredExecution(cc, lowered, run, c.request.verify_elems);
        });
        if (!verdict.ok) ++rejected;
      }
      rec.Close(span, NowUs());

      if (run.makespan != t.makespan || run.events != t.events ||
          (faulted && clean.makespan != t.clean_makespan)) {
        ++diverged;
      }
      t.lower_us = std::min(t.lower_us, lower_us);
      t.run_us = std::min(t.run_us, run_us);
      t.clean_us = std::min(t.clean_us, clean_us);
      t.transfers = lowered.program.transfers.size();
      t.fluid = run.fluid;
      t.peak_heap = run.queue.peak_heap;
    }
  }
  result.Check(diverged == 0,
               std::to_string(diverged) +
                   " cell runs: the layer-by-layer pass differs from Execute");
  result.Check(rejected == 0, std::to_string(rejected) +
                                  " cell runs: data engine rejected pass 2");

  double lower_us = 0;
  double run_us = 0;
  double verify_us = 0;
  double overhead_us = 0;
  double allocs = 0;
  double faulted_run_us = 0;
  double clean_run_us = 0;
  double faulted_exec_us = 0;
  int faulted_cells = 0;
  double transfers = 0;
  double events = 0;
  double flows = 0;
  double visits = 0;
  double recomputes = 0;
  std::uint64_t peak_heap = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const CellTimes& t = times[i];
    lower_us += t.lower_us;
    run_us += t.run_us;
    verify_us += t.verify_us;
    allocs += static_cast<double>(t.allocs);
    overhead_us += t.exec_us - (t.relowered ? t.lower_us : 0) - t.run_us -
                   t.clean_us;
    if (!cells[i].request.faults.empty()) {
      ++faulted_cells;
      faulted_run_us += t.run_us;
      clean_run_us += t.clean_us;
      faulted_exec_us += t.exec_us;
    }
    transfers += static_cast<double>(t.transfers);
    events += static_cast<double>(t.events);
    flows += static_cast<double>(t.fluid.flows_started);
    visits += static_cast<double>(t.fluid.walk_visits);
    recomputes += static_cast<double>(t.fluid.recompute_calls);
    peak_heap = std::max(peak_heap, t.peak_heap);
  }
  const auto per_cell = [n](double v) { return v / static_cast<double>(n); };
  result.Set("lowering.ms", per_cell(lower_us) / 1e3, "ms");
  result.Set("lowering.transfers", per_cell(transfers), "count");
  result.Set("sim.run_ms", per_cell(run_us) / 1e3, "ms");
  result.Set("sim.events", per_cell(events), "count");
  result.Set("sim.events_per_s", events / (run_us / 1e6), "1/s");
  result.Set("sim.flows", per_cell(flows), "count");
  result.Set("sim.walk_visits_per_flow", visits / flows, "count");
  result.Set("sim.recompute_per_flow", recomputes / flows, "count");
  result.Set("sim.peak_heap", static_cast<double>(peak_heap), "count");
  result.Set("verify.ms", per_cell(verify_us) / 1e3, "ms");
  result.Set("verify.calls", static_cast<double>(n), "count");
  result.Set("exec.overhead_ms", per_cell(overhead_us) / 1e3, "ms");
  result.Set("exec.allocs_per_call", per_cell(allocs), "count");
  result.Set("fault.clean_replay_share",
             faulted_cells > 0 ? clean_run_us / faulted_exec_us : 0, "frac");
  if (faulted_cells > 0) {
    result.Set("fault.faulted_run_ms", faulted_run_us / faulted_cells / 1e3,
               "ms");
    result.Set("fault.clean_replay_ms", clean_run_us / faulted_cells / 1e3,
               "ms");
  }
}

}  // namespace e2e
