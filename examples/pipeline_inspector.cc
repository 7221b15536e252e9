// Pipeline inspector: compile an algorithm and dump the debugging
// artifacts the toolchain produces — a Chrome/Perfetto execution trace of
// the simulated run, and the auto-selector's scoreboard for the same
// collective.
//
//   $ ./build/examples/pipeline_inspector
//   # open ring_trace.json in https://ui.perfetto.dev
#include <cstdio>
#include <fstream>

#include "algorithms/ring.h"
#include "runtime/selector.h"
#include "runtime/trace.h"

int main() {
  using namespace resccl;

  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::RingAllGather(topo.nranks());

  // Simulated run → Chrome trace.
  const CompiledCollective compiled =
      Compile(algo, topo, DefaultCompileOptions(BackendKind::kResCCL)).value();
  const CostModel cost;
  LaunchConfig launch;
  launch.buffer = Size::MiB(64);
  const LoweredProgram lowered = Lower(compiled, cost, launch);
  SimMachine machine(topo, cost);
  const SimRunReport report = machine.Run(lowered.program);
  {
    std::ofstream out("ring_trace.json");
    out << ExportChromeTrace(compiled, lowered, report);
  }
  std::printf("wrote ring_trace.json (%zu transfer slices, makespan %.2f ms)\n",
              report.transfers.size(), report.makespan.ms());

  // Selector scoreboard for the same collective.
  RunRequest request;
  request.launch = launch;
  const SelectionResult sel =
      SelectAlgorithm(CollectiveOp::kAllGather, topo, BackendKind::kResCCL,
                      request);
  std::printf("\nauto-selector scoreboard (AllGather, 64 MiB, %d GPUs):\n",
              topo.nranks());
  for (const CandidateScore& s : sel.scoreboard) {
    std::printf("  %-22s %8.1f GB/s  %8.2f ms%s\n", s.name.c_str(), s.gbps,
                s.elapsed.ms(),
                s.name == sel.algorithm.name ? "   <- selected" : "");
  }
  return 0;
}
