// Property suite for the observability layer, swept across the full
// algorithm library × every backend, clean and under fault injection:
//   * every TB's attribution buckets sum to its finish time;
//   * both critical-path views (critical-TB buckets and chain buckets)
//     sum to the makespan — all at 1e-9 relative;
//   * fault-stall attribution is zero exactly when the run was clean;
//   * each link timeline's integral equals the bytes the simulator says
//     the link carried, and its busy time equals the link's active time.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "algo_cases.h"
#include "algorithms/hierarchical.h"
#include "obs/critical_path.h"
#include "obs/timeline.h"
#include "runtime/backend.h"
#include "sim/faults.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using tests::AlgoCase;
using tests::AlgorithmCases;

void ExpectClose(const char* what, double got, double want, double tol) {
  EXPECT_LE(std::abs(got - want), tol * std::max(1.0, std::abs(want)))
      << what << ": got " << got << " want " << want;
}

class ObsProperty
    : public ::testing::TestWithParam<std::tuple<AlgoCase, BackendKind>> {};

TEST_P(ObsProperty, BucketsTileMakespanAndTimelinesMatchUsage) {
  const auto& [algo_case, backend] = GetParam();
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algo_case.make(topo);
  const PreparedPlan prepared = Prepare(algo, topo, backend).value();

  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  request.launch.chunk = Size::KiB(128);
  request.observe = true;

  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "clean");
    request.faults =
        faulted ? FaultPlan::Make(7, 0.5, topo) : FaultPlan();
    if (faulted) {
      ASSERT_FALSE(request.faults.empty());
    }

    const CollectiveReport r = Execute(*prepared, request);
    ASSERT_NE(r.lowered, nullptr);

    // AnalyzeCriticalPath asserts both makespan tilings internally
    // (RESCCL_CHECK); re-assert here so a failure names the algorithm.
    const obs::CriticalPathReport cp =
        obs::AnalyzeCriticalPath(r.lowered->program, r.sim);
    EXPECT_EQ(cp.makespan.us(), r.sim.makespan.us());
    ExpectClose("critical TB view sums to makespan",
                cp.critical_tb_buckets.Total().us(), cp.makespan.us(), 1e-9);
    ExpectClose("critical chain view sums to makespan",
                cp.path_buckets.Total().us(), cp.makespan.us(), 1e-9);

    ASSERT_EQ(cp.tbs.size(), r.sim.tbs.size());
    SimTime total_fault_stall;
    for (const obs::TbBreakdown& tb : cp.tbs) {
      SCOPED_TRACE("tb=" + std::to_string(tb.tb));
      ExpectClose("TB buckets sum to finish", tb.buckets.Total().us(),
                  tb.finish.us(), 1e-9);
      // Analyzer sync must reproduce the machine's sync bucket bit-exactly.
      EXPECT_EQ(tb.buckets.sync.us(),
                r.sim.tbs[static_cast<std::size_t>(tb.tb)].sync.us());
      total_fault_stall += tb.buckets.fault_stall;
    }
    if (!faulted) {
      EXPECT_EQ(total_fault_stall.us(), 0.0);
      EXPECT_EQ(cp.path_buckets.fault_stall.us(), 0.0);
    }

    // Link timelines: the replayed rate log must integrate back to the
    // simulator's own byte and busy-time accounting per resource.
    const std::vector<obs::LinkTimeline> timelines =
        obs::BuildLinkTimelines(topo, r.sim);
    ASSERT_FALSE(timelines.empty());
    for (const obs::LinkTimeline& tl : timelines) {
      SCOPED_TRACE("link=" + tl.name);
      if (tl.bytes == 0) continue;
      // Integral tolerance: each flow leaves at most a sub-millibyte
      // completion residue, and each sample contributes rounding.
      const double integral_tol =
          1e-3 * static_cast<double>(tl.samples.size()) +
          1e-6 * static_cast<double>(tl.bytes);
      EXPECT_LE(std::abs(tl.IntegralBytes() - static_cast<double>(tl.bytes)),
                integral_tol)
          << "integral " << tl.IntegralBytes() << " bytes " << tl.bytes;
      ExpectClose("busy time equals active", tl.BusyTime().us(),
                  tl.active.us(), 1e-6);
      EXPECT_GE(tl.BusyFraction(r.sim.makespan), 0.0);
      EXPECT_LE(tl.BusyFraction(r.sim.makespan), 1.0 + 1e-9);
    }
  }
}

TEST(CriticalPathTest, RejectsUnobservedReport) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan prepared =
      Prepare(algo, topo, BackendKind::kResCCL).value();
  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  const CollectiveReport plain = Execute(*prepared, request);
  ASSERT_TRUE(plain.sim.segments.empty());
  // The same request observed supplies the program the plain run executed.
  request.observe = true;
  const CollectiveReport observed = Execute(*prepared, request);
  ASSERT_NE(observed.lowered, nullptr);
  EXPECT_THROW(
      (void)obs::AnalyzeCriticalPath(observed.lowered->program, plain.sim),
      std::logic_error);
}

std::string ObsPropertyName(
    const ::testing::TestParamInfo<std::tuple<AlgoCase, BackendKind>>& info) {
  const auto& [a, b] = info.param;
  return std::string(a.name) + "_" + BackendName(b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ObsProperty,
    ::testing::Combine(::testing::ValuesIn(AlgorithmCases()),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike)),
    ObsPropertyName);

}  // namespace
}  // namespace resccl
