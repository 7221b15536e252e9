// Lowering tests: micro-batch derivation, per-mode program shapes, barrier
// wiring, interpreter overhead accounting.
#include <gtest/gtest.h>

#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "core/compiler.h"
#include "runtime/lowering.h"
#include "topology/topology.h"

namespace resccl {
namespace {

TEST(LaunchConfigTest, MicroBatchDerivation) {
  LaunchConfig l;
  l.buffer = Size::MiB(256);
  l.chunk = Size::MiB(1);
  EXPECT_EQ(l.MicroBatches(16), 16);   // 256 / (16 × 1)
  EXPECT_EQ(l.MicroBatches(8), 32);
  l.buffer = Size::MiB(4);
  EXPECT_EQ(l.MicroBatches(16), 1);    // clamped to at least one
  l.buffer = Size::MiB(24);
  EXPECT_EQ(l.MicroBatches(16), 1);    // floor division
}

class LoweringTest : public ::testing::Test {
 protected:
  LoweringTest() : topo_(presets::A100(2, 4)) {}

  CompiledCollective CompileWith(ExecutionMode mode, RuntimeEngine engine,
                                 int nstages = 2) {
    const Algorithm algo = algorithms::RingAllReduce(8);
    CompileOptions opts;
    opts.mode = mode;
    opts.engine = engine;
    opts.nstages = nstages;
    if (mode != ExecutionMode::kTaskLevel) {
      opts.tb_alloc = TbAllocPolicy::kConnectionBased;
      opts.scheduler = SchedulerKind::kRoundRobin;
    }
    return Compile(algo, topo_, opts).value();
  }

  Topology topo_;
  CostModel cost_;
  LaunchConfig launch_ = {Size::MiB(64), Size::MiB(1)};  // 8 micro-batches
};

TEST_F(LoweringTest, TransferDeclsCoverAllInvocations) {
  const CompiledCollective cc =
      CompileWith(ExecutionMode::kTaskLevel, RuntimeEngine::kGeneratedKernel);
  const LoweredProgram lp = Lower(cc, cost_, launch_);
  EXPECT_EQ(lp.nmicrobatches, 8);
  EXPECT_EQ(lp.program.transfers.size(),
            static_cast<std::size_t>(cc.algo.ntasks()) * 8);
  // Declaration i is task i / nmb on micro-batch i % nmb: it moves that
  // task's endpoints, and its dependencies are that task's predecessors on
  // the same micro-batch.
  const std::size_t nmb = static_cast<std::size_t>(lp.nmicrobatches);
  for (std::size_t i = 0; i < lp.program.transfers.size(); ++i) {
    const std::size_t task = i / nmb;
    const std::size_t mb = i % nmb;
    const SimTransferDecl& decl = lp.program.transfers[i];
    EXPECT_EQ(decl.src, cc.algo.transfers[task].src);
    EXPECT_EQ(decl.dst, cc.algo.transfers[task].dst);
    const std::vector<int>& preds = cc.preds[task];
    const std::span<const int> deps = lp.program.DepsOf(i);
    ASSERT_EQ(deps.size(), preds.size());
    for (std::size_t d = 0; d < preds.size(); ++d) {
      const auto dep = static_cast<std::size_t>(deps[d]);
      EXPECT_EQ(dep / nmb, static_cast<std::size_t>(preds[d]));
      EXPECT_EQ(dep % nmb, mb);
    }
  }
}

TEST_F(LoweringTest, TaskLevelHasNoBarriers) {
  const CompiledCollective cc =
      CompileWith(ExecutionMode::kTaskLevel, RuntimeEngine::kGeneratedKernel);
  const LoweredProgram lp = Lower(cc, cost_, launch_);
  EXPECT_TRUE(lp.program.barrier_parties.empty());
  // Task-major: each TB walks task by task, with all 8 micro-batch
  // invocations (consecutive declaration indices) inside.
  for (const SimTb& tb : lp.program.tbs) {
    ASSERT_EQ(tb.program.size() % 8, 0u);
    for (std::size_t g = 0; g < tb.program.size(); g += 8) {
      for (std::size_t k = 1; k < 8; ++k) {
        EXPECT_EQ(tb.program[g + k].transfer,
                  tb.program[g].transfer + static_cast<int>(k));
      }
    }
  }
}

TEST_F(LoweringTest, AlgorithmLevelBarriersPerMicroBatch) {
  const CompiledCollective cc = CompileWith(ExecutionMode::kAlgorithmLevel,
                                            RuntimeEngine::kGeneratedKernel);
  const LoweredProgram lp = Lower(cc, cost_, launch_);
  ASSERT_EQ(lp.program.barrier_parties.size(), 8u);  // one per micro-batch
  const int total_tbs = static_cast<int>(lp.program.tbs.size());
  for (int parties : lp.program.barrier_parties) {
    EXPECT_EQ(parties, total_tbs);  // global barrier
  }
  // Every TB ends each micro-batch with its barrier.
  for (const SimTb& tb : lp.program.tbs) {
    int barriers = 0;
    for (const SimInstr& i : tb.program) {
      barriers += i.kind == SimInstr::Kind::kBarrier;
    }
    EXPECT_EQ(barriers, 8);
  }
}

TEST_F(LoweringTest, StageLevelBarriersPerStage) {
  const CompiledCollective cc =
      CompileWith(ExecutionMode::kStageLevel, RuntimeEngine::kInterpreter, 2);
  const LoweredProgram lp = Lower(cc, cost_, launch_);
  ASSERT_EQ(lp.program.barrier_parties.size(), 16u);  // 2 stages × 8 mbs
  int stage0_parties = lp.program.barrier_parties[0];
  int stage1_parties = lp.program.barrier_parties[8];
  EXPECT_GT(stage0_parties, 0);
  EXPECT_GT(stage1_parties, 0);
  EXPECT_EQ(stage0_parties + stage1_parties,
            static_cast<int>(lp.program.tbs.size()));
}

TEST_F(LoweringTest, InterpreterChargesMoreOverhead) {
  const CompiledCollective gen = CompileWith(ExecutionMode::kAlgorithmLevel,
                                             RuntimeEngine::kGeneratedKernel);
  const CompiledCollective interp =
      CompileWith(ExecutionMode::kAlgorithmLevel, RuntimeEngine::kInterpreter);
  const LoweredProgram lp_gen = Lower(gen, cost_, launch_);
  const LoweredProgram lp_int = Lower(interp, cost_, launch_);
  auto total_overhead = [](const LoweredProgram& lp) {
    SimTime sum = SimTime::Zero();
    for (const SimTb& tb : lp.program.tbs) {
      for (const SimInstr& i : tb.program) sum += i.overhead;
    }
    return sum;
  };
  EXPECT_GT(total_overhead(lp_int).us(), total_overhead(lp_gen).us());
}

}  // namespace
}  // namespace resccl
