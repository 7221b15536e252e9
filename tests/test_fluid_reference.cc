// Differential test of the fluid model against the trace-replay reference
// (fluid_reference.h). Every flow a real SimMachine run started is replayed
// through a solver that recomputes every rate at every event; each
// transfer's completion time and each resource's busy time must agree to
// 1e-9 × makespan, and each resource's carried bytes exactly.
//
// The matrix is the bound soundness sweep's: 20 library algorithms × 3
// backends × 3 topologies (algo_cases.h), each run clean and under two
// sampled fault plans, at a 4 MiB buffer in 128 KiB chunks. On top of it
// come the contended co-runs the perf harnesses time: four copies of one
// collective merged into one machine, where many flows share each resource
// and the incremental walk skips the most work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "algo_cases.h"
#include "common/check.h"
#include "fluid_reference.h"
#include "runtime/backend.h"
#include "runtime/lowering.h"
#include "runtime/multi_job.h"
#include "sim/faults.h"
#include "sim/machine.h"

namespace resccl {
namespace {

using tests::AlgoCase;
using tests::AlgorithmCases;
using tests::TopoCase;
using tests::TopoCases;

constexpr double kTolerance = 1e-9;

// Runs `program` on `machine` and checks the run against the reference.
void ExpectMatchesReference(SimMachine& machine, const Topology& topo,
                            const SimProgram& program, const FaultPlan* faults,
                            const std::string& label) {
  const SimRunReport run = machine.Run(program, faults);
  const std::vector<tests::ReferenceFlow> flows =
      tests::FlowsOf(topo, program, run);
  const tests::ReferenceResult ref =
      tests::SolveReference(topo, flows, faults);
  const double tol = kTolerance * run.makespan.us();

  double worst_complete = 0;
  for (std::size_t t = 0; t < run.transfers.size(); ++t) {
    worst_complete = std::max(
        worst_complete,
        std::abs(run.transfers[t].complete.us() - ref.complete[t].us()));
  }
  EXPECT_LE(worst_complete, tol)
      << label << ": worst transfer completion error over "
      << run.transfers.size() << " flows";

  ASSERT_EQ(run.link_usage.size(), ref.usage.size());
  int byte_mismatches = 0;
  double worst_busy = 0;
  for (std::size_t r = 0; r < ref.usage.size(); ++r) {
    if (run.link_usage[r].bytes != ref.usage[r].bytes) ++byte_mismatches;
    worst_busy = std::max(worst_busy, std::abs(run.link_usage[r].active.us() -
                                               ref.usage[r].active.us()));
  }
  EXPECT_EQ(byte_mismatches, 0) << label << ": per-resource carried bytes";
  EXPECT_LE(worst_busy, tol) << label << ": worst per-resource busy time";
}

class FluidReference : public ::testing::TestWithParam<
                           std::tuple<AlgoCase, BackendKind, TopoCase>> {};

TEST_P(FluidReference, CleanAndFaultedRunsMatchReference) {
  const auto& [algo_case, backend, topo_case] = GetParam();
  const Topology topo(topo_case.make());
  const Result<PreparedPlan> prepared =
      Prepare(algo_case.make(topo), topo, backend);
  if (!prepared.ok()) {
    GTEST_SKIP() << "not preparable here: " << prepared.status().ToString();
  }
  LaunchConfig launch;
  launch.buffer = Size::MiB(4);
  launch.chunk = Size::KiB(128);
  const CostModel cost;
  const LoweredProgram lowered = Lower(prepared.value()->plan, cost, launch,
                                       topo.spec().channels_per_peer);

  const FaultPlan half = FaultPlan::Make(1001, 0.5, topo);
  const FaultPlan full = FaultPlan::Make(1002, 1.0, topo);
  SimMachine machine(topo, cost);
  ExpectMatchesReference(machine, topo, lowered.program, nullptr, "clean");
  ExpectMatchesReference(machine, topo, lowered.program, &half, "faults 0.5");
  ExpectMatchesReference(machine, topo, lowered.program, &full, "faults 1.0");
}

std::string FluidReferenceName(
    const ::testing::TestParamInfo<std::tuple<AlgoCase, BackendKind, TopoCase>>&
        info) {
  const auto& [a, b, t] = info.param;
  return a.label + "_" + BackendName(b) + "_" + t.label;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FluidReference,
    ::testing::Combine(::testing::ValuesIn(AlgorithmCases()),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike),
                       ::testing::ValuesIn(TopoCases())),
    FluidReferenceName);

// Four copies of `algo`'s 64 MiB program merged into one machine.
SimProgram FourJobCoRun(const Algorithm& algo, const Topology& topo) {
  const Result<PreparedPlan> prepared =
      Prepare(algo, topo, BackendKind::kResCCL);
  RESCCL_CHECK(prepared.ok());
  LaunchConfig launch;
  launch.buffer = Size::MiB(64);
  const LoweredProgram lowered =
      Lower(prepared.value()->plan, CostModel{}, launch,
            topo.spec().channels_per_peer);
  SimProgram merged;
  for (int j = 0; j < 4; ++j) AppendProgram(merged, lowered.program);
  return merged;
}

// bench/micro_sim's re-rate workload.
TEST(FluidReferenceCoRun, HierarchicalAllReduceOnA100) {
  const Topology topo(presets::A100(2, 8));
  const SimProgram merged =
      FourJobCoRun(algorithms::HierarchicalMeshAllReduce(topo), topo);
  const FaultPlan faults = FaultPlan::Make(1001, 0.5, topo);
  const CostModel cost;
  SimMachine machine(topo, cost);
  ExpectMatchesReference(machine, topo, merged, nullptr, "clean");
  ExpectMatchesReference(machine, topo, merged, &faults, "faults 0.5");
}

// bench/micro_scale's 64-rank point. Clean only: the reference re-rates
// every active flow per event, which faulted runs make slow at this size.
TEST(FluidReferenceCoRun, ComposedAllReduceOn64RankRailClos) {
  const Topology topo(presets::RailClos(8, 8, 4, 2));
  algorithms::CompositionSpec spec;
  spec.chunks = 64;
  const SimProgram merged =
      FourJobCoRun(algorithms::ComposedAllReduce(topo, spec), topo);
  const CostModel cost;
  SimMachine machine(topo, cost);
  ExpectMatchesReference(machine, topo, merged, nullptr, "clean");
}

}  // namespace
}  // namespace resccl
