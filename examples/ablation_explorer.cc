// Ablation explorer: isolate each of ResCCL's three techniques on one
// workload — execution granularity (§4.3), TB allocation (§4.4), and kernel
// generation (§4.5) — by toggling one compiler option at a time.
//
//   $ ./build/examples/ablation_explorer
#include <cstdio>

#include "algorithms/hierarchical.h"
#include "common/table.h"
#include "runtime/backend.h"

int main() {
  using namespace resccl;

  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  RunRequest request;
  request.launch.buffer = Size::MiB(1024);
  request.verify = true;

  struct Variant {
    const char* label;
    CompileOptions options;
  };
  CompileOptions full = DefaultCompileOptions(BackendKind::kResCCL);

  CompileOptions algo_level = full;
  algo_level.mode = ExecutionMode::kAlgorithmLevel;
  CompileOptions stage_level = full;
  stage_level.mode = ExecutionMode::kStageLevel;
  stage_level.nstages = 2;
  stage_level.tb_alloc = TbAllocPolicy::kConnectionBased;
  CompileOptions rr = full;
  rr.scheduler = SchedulerKind::kRoundRobin;
  CompileOptions conn_alloc = full;
  conn_alloc.tb_alloc = TbAllocPolicy::kConnectionBased;
  CompileOptions interp = full;
  interp.engine = RuntimeEngine::kInterpreter;

  const Variant variants[] = {
      {"ResCCL (full)", full},
      {"- task-level -> algorithm-level", algo_level},
      {"- task-level -> stage-level", stage_level},
      {"- HPDS -> round-robin", rr},
      {"- state-based -> connection TBs", conn_alloc},
      {"- generated kernel -> interpreter", interp},
  };

  TextTable table({"Variant", "GB/s", "TBs", "Avg idle", "Verified"});
  double base = 0;
  for (const Variant& v : variants) {
    const Result<PreparedPlan> prepared =
        Prepare(algo, topo, v.options, v.label);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", v.label,
                   prepared.status().ToString().c_str());
      return 1;
    }
    const CollectiveReport rep = Execute(*prepared.value(), request);
    if (base == 0) base = rep.algo_bw.gbps();
    table.AddRow({v.label,
                  Fixed(rep.algo_bw.gbps(), 1) + " (" +
                      Fixed(rep.algo_bw.gbps() / base, 2) + "x)",
                  std::to_string(rep.total_tbs),
                  Percent(rep.sim.AvgIdleRatio()),
                  rep.verified ? "yes" : "NO"});
  }
  std::printf("HM AllReduce, 2 x 8 GPUs, 1 GiB per rank:\n\n%s",
              table.ToString().c_str());
  return 0;
}
