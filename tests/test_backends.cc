// Backend integration tests: the paper's qualitative results must hold in
// the simulator — ResCCL beats the baselines on bandwidth, uses fewer TBs,
// idles less; the interpreter costs; HPDS does not lose to RR.
#include <gtest/gtest.h>

#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "algorithms/synthesized.h"
#include "runtime/backend.h"
#include "runtime/communicator.h"
#include "topology/topology.h"

namespace resccl {
namespace {

CollectiveReport RunBackend(const Algorithm& algo, const Topology& topo,
                     BackendKind kind, Size buffer = Size::MiB(512)) {
  RunRequest request;
  request.launch.buffer = buffer;
  return Execute(*Prepare(algo, topo, kind).value(), request);
}

TEST(BackendTest, DefaultOptionsMatchPersonalities) {
  const CompileOptions rescc = DefaultCompileOptions(BackendKind::kResCCL);
  EXPECT_EQ(rescc.mode, ExecutionMode::kTaskLevel);
  EXPECT_EQ(rescc.engine, RuntimeEngine::kGeneratedKernel);
  EXPECT_EQ(rescc.tb_alloc, TbAllocPolicy::kStateBased);
  EXPECT_EQ(rescc.scheduler, SchedulerKind::kHpds);

  const CompileOptions msccl = DefaultCompileOptions(BackendKind::kMscclLike);
  EXPECT_EQ(msccl.mode, ExecutionMode::kStageLevel);
  EXPECT_EQ(msccl.engine, RuntimeEngine::kInterpreter);
  EXPECT_EQ(msccl.tb_alloc, TbAllocPolicy::kConnectionBased);

  const CompileOptions nccl = DefaultCompileOptions(BackendKind::kNcclLike);
  EXPECT_EQ(nccl.mode, ExecutionMode::kAlgorithmLevel);
  EXPECT_EQ(nccl.engine, RuntimeEngine::kGeneratedKernel);
}

TEST(BackendTest, ResCCLBeatsMscclOnExpertAlgorithms) {
  const Topology topo(presets::A100(2, 8));
  for (const Algorithm& algo : {algorithms::HierarchicalMeshAllGather(topo),
                                algorithms::HierarchicalMeshAllReduce(topo)}) {
    const CollectiveReport ours = RunBackend(algo, topo, BackendKind::kResCCL);
    const CollectiveReport theirs = RunBackend(algo, topo, BackendKind::kMscclLike);
    EXPECT_GT(ours.algo_bw.gbps(), theirs.algo_bw.gbps()) << algo.name;
  }
}

TEST(BackendTest, ResCCLBeatsNcclOnItsOwnAlgorithm) {
  const Topology topo(presets::A100(2, 8));
  const CollectiveReport ours =
      RunBackend(DefaultAlgorithm(BackendKind::kResCCL, CollectiveOp::kAllReduce,
                           topo),
          topo, BackendKind::kResCCL);
  const CollectiveReport nccl =
      RunBackend(DefaultAlgorithm(BackendKind::kNcclLike, CollectiveOp::kAllReduce,
                           topo),
          topo, BackendKind::kNcclLike);
  // The paper reports up to 2.5× on AllReduce at 16 GPUs.
  EXPECT_GT(ours.algo_bw.gbps(), 1.5 * nccl.algo_bw.gbps());
}

TEST(BackendTest, ResCCLUsesFewerTbsAndIdlesLess) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const CollectiveReport ours = RunBackend(algo, topo, BackendKind::kResCCL);
  const CollectiveReport msccl = RunBackend(algo, topo, BackendKind::kMscclLike);
  EXPECT_LT(ours.total_tbs, msccl.total_tbs);
  EXPECT_LT(ours.max_tbs_per_rank, msccl.max_tbs_per_rank);
  EXPECT_LT(ours.sim.AvgIdleRatio(), msccl.sim.AvgIdleRatio());
  EXPECT_LT(ours.sim.MaxIdleRatio(), msccl.sim.MaxIdleRatio());
  EXPECT_GT(ours.sim.AvgBusyRatio(), msccl.sim.AvgBusyRatio());
}

TEST(BackendTest, InterpreterCostsThroughput) {
  // Ring links are exclusive per connection, so the interpreter's control
  // overhead cuts directly into the TB's attainable copy rate (Fig. 3).
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::MultiChannelRingAllReduce(topo, 4);
  CompileOptions opts = DefaultCompileOptions(BackendKind::kResCCL);
  RunRequest request;
  request.launch.buffer = Size::MiB(512);
  const CollectiveReport kernel =
      Execute(*Prepare(algo, topo, opts).value(), request);
  opts.engine = RuntimeEngine::kInterpreter;
  const CollectiveReport interp =
      Execute(*Prepare(algo, topo, opts).value(), request);
  // Fig. 3: interpretation loses throughput; direct kernels win.
  EXPECT_GT(kernel.algo_bw.gbps(), interp.algo_bw.gbps());
}

TEST(BackendTest, HpdsAtLeastMatchesRoundRobin) {
  const Topology topo(presets::A100(2, 8));
  for (const Algorithm& algo :
       {algorithms::HierarchicalMeshAllGather(topo),
        algorithms::HierarchicalMeshAllReduce(topo),
        algorithms::TacclLikeAllReduce(topo),
        algorithms::TecclLikeAllGather(topo)}) {
    CompileOptions opts = DefaultCompileOptions(BackendKind::kResCCL);
    RunRequest request;
    request.launch.buffer = Size::MiB(512);
    opts.scheduler = SchedulerKind::kHpds;
    const double hpds =
        Execute(*Prepare(algo, topo, opts).value(), request).algo_bw.gbps();
    opts.scheduler = SchedulerKind::kRoundRobin;
    const double rr =
        Execute(*Prepare(algo, topo, opts).value(), request).algo_bw.gbps();
    EXPECT_GE(hpds, rr * 0.99) << algo.name;  // never meaningfully worse
  }
}

TEST(BackendTest, LargerBuffersAmortizeFillCost) {
  // §5.2: ResCCL's advantage grows with buffer size as the pipeline fill
  // amortizes; algorithm bandwidth must be non-decreasing in buffer size.
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  double prev = 0;
  for (int mib : {32, 128, 512, 2048}) {
    const CollectiveReport r =
        RunBackend(algo, topo, BackendKind::kResCCL, Size::MiB(mib));
    EXPECT_GE(r.algo_bw.gbps(), prev * 0.98) << mib;
    prev = r.algo_bw.gbps();
  }
}

TEST(BackendTest, DeterministicResults) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const CollectiveReport a = RunBackend(algo, topo, BackendKind::kResCCL);
  const CollectiveReport b = RunBackend(algo, topo, BackendKind::kResCCL);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.total_tbs, b.total_tbs);
  ASSERT_EQ(a.sim.tbs.size(), b.sim.tbs.size());
  for (std::size_t i = 0; i < a.sim.tbs.size(); ++i) {
    EXPECT_EQ(a.sim.tbs[i].finish, b.sim.tbs[i].finish);
  }
}

TEST(BackendTest, PlanCarriesCompileStatsAndReportNamesIt) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan plan = Prepare(algo, topo, BackendKind::kResCCL).value();
  EXPECT_GT(plan->plan.stats.total_us(), 0.0);
  const CollectiveReport r = Execute(*plan, RunRequest{});
  EXPECT_EQ(r.backend, "ResCCL");
  EXPECT_EQ(r.algorithm, "hm_allreduce");
}

TEST(BackendTest, InvalidAlgorithmSurfacesStatus) {
  const Topology topo(presets::A100(2, 4));
  Algorithm bad;
  bad.nranks = 8;
  bad.nchunks = 8;
  EXPECT_FALSE(Prepare(bad, topo, BackendKind::kResCCL).ok());
}

}  // namespace
}  // namespace resccl
