// Compiler pipeline tests: options plumbing, stage partitioning, stats,
// error handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo_cases.h"
#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "core/compiler.h"
#include "lang/emit.h"
#include "lang/eval.h"
#include "runtime/backend.h"
#include "topology/topology.h"

namespace resccl {
namespace {

TEST(CompilerTest, CompilesHmAllReduce) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const Result<CompiledCollective> r = Compile(algo, topo, {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CompiledCollective& cc = r.value();
  EXPECT_EQ(cc.algo.ntasks(), algo.ntasks());
  EXPECT_EQ(cc.schedule.ntasks(), algo.ntasks());
  EXPECT_EQ(static_cast<int>(cc.wave_of_task.size()), algo.ntasks());
  EXPECT_EQ(PlanStages(cc), 1);
  EXPECT_EQ(static_cast<int>(cc.preds.size()), algo.ntasks());
  EXPECT_GT(cc.tbs.total_tbs(), 0);
}

TEST(CompilerTest, StatsArePopulated) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const CompiledCollective cc = Compile(algo, topo, {}).value();
  EXPECT_GT(cc.stats.analysis_us, 0.0);
  EXPECT_GT(cc.stats.scheduling_us, 0.0);
  EXPECT_GT(cc.stats.allocation_us, 0.0);
  EXPECT_GE(cc.stats.lowering_us, 0.0);
  EXPECT_NEAR(cc.stats.total_us(),
              cc.stats.analysis_us + cc.stats.scheduling_us +
                  cc.stats.allocation_us + cc.stats.lowering_us,
              1e-9);
}

TEST(CompilerTest, StageLevelStripesChunksAcrossInstances) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  CompileOptions opts;
  opts.mode = ExecutionMode::kStageLevel;
  opts.nstages = 3;
  const CompiledCollective cc = Compile(algo, topo, opts).value();
  EXPECT_EQ(PlanStages(cc), 3);
  // MSCCL-style channel instances stripe the chunks: a task's instance is
  // its chunk id mod nstages, so every task of one chunk stays together.
  std::vector<int> seen(3, 0);
  for (int t = 0; t < algo.ntasks(); ++t) {
    const int s = StageOf(cc, t);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 3);
    EXPECT_EQ(s, algo.transfers[static_cast<std::size_t>(t)].chunk % 3);
    ++seen[static_cast<std::size_t>(s)];
  }
  EXPECT_GT(seen[0], 0);
  EXPECT_GT(seen[1], 0);
  EXPECT_GT(seen[2], 0);
}

TEST(CompilerTest, TaskLevelIgnoresStageCount) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::RingAllGather(8);
  CompileOptions opts;
  opts.mode = ExecutionMode::kTaskLevel;
  opts.nstages = 4;
  const CompiledCollective cc = Compile(algo, topo, opts).value();
  EXPECT_EQ(PlanStages(cc), 1);
  for (int t = 0; t < algo.ntasks(); ++t) EXPECT_EQ(StageOf(cc, t), 0);
}

TEST(CompilerTest, RankMismatchRejected) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::RingAllGather(8);  // 8 ranks vs 16
  const Result<CompiledCollective> r = Compile(algo, topo, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerTest, InvalidAlgorithmRejected) {
  const Topology topo(presets::A100(2, 4));
  Algorithm bad;
  bad.nranks = 8;
  bad.nchunks = 8;
  const Result<CompiledCollective> r = Compile(bad, topo, {});
  EXPECT_FALSE(r.ok());
}

TEST(CompilerTest, InvalidOptionsRejected) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::RingAllGather(8);
  CompileOptions opts;
  opts.nstages = 0;
  EXPECT_FALSE(Compile(algo, topo, opts).ok());
}

TEST(CompilerTest, SchedulerChoiceChangesSchedule) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  CompileOptions hpds;
  hpds.scheduler = SchedulerKind::kHpds;
  CompileOptions rr;
  rr.scheduler = SchedulerKind::kRoundRobin;
  const int hpds_waves = Compile(algo, topo, hpds).value().schedule.nwaves();
  const int rr_waves = Compile(algo, topo, rr).value().schedule.nwaves();
  EXPECT_LT(hpds_waves, rr_waves);  // chain coalescing shrinks the pipeline
}

TEST(CompilerTest, DeterministicAcrossRuns) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const CompiledCollective a = Compile(algo, topo, {}).value();
  const CompiledCollective b = Compile(algo, topo, {}).value();
  ASSERT_EQ(a.schedule.nwaves(), b.schedule.nwaves());
  for (int w = 0; w < a.schedule.nwaves(); ++w) {
    EXPECT_EQ(a.schedule.sub_pipelines[static_cast<std::size_t>(w)],
              b.schedule.sub_pipelines[static_cast<std::size_t>(w)]);
  }
  EXPECT_EQ(a.tbs.total_tbs(), b.tbs.total_tbs());
}

// FNV-1a, byte by byte, over compiled plans' outputs: wave_of_task, preds,
// the schedule's sub-pipelines, every TB's rank and refs (task, direction,
// wave, order), then send_tb and recv_tb.
class PlanHasher {
 public:
  void Add(const CompiledCollective& cc) {
    Add(cc.wave_of_task);
    Add(cc.preds.size());
    for (const std::vector<int>& p : cc.preds) Add(p);
    Add(cc.schedule.sub_pipelines.size());
    for (const std::vector<TaskId>& wave : cc.schedule.sub_pipelines) {
      Add(wave.size());
      for (TaskId t : wave) Add(t.value);
    }
    Add(cc.tbs.tbs.size());
    for (const TbPlan::Tb& tb : cc.tbs.tbs) {
      Add(tb.rank);
      Add(tb.refs.size());
      for (const TbTaskRef& ref : tb.refs) {
        Add(ref.task.value);
        Add(static_cast<int>(ref.dir));
        Add(ref.wave);
        Add(ref.order);
      }
    }
    Add(cc.tbs.send_tb);
    Add(cc.tbs.recv_tb);
  }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * kPrime;
  }
  void Add(int v) {
    Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void Add(const std::vector<int>& v) {
    Add(v.size());
    for (int x : v) Add(x);
  }

  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Pins the compiler's output bit for bit: every library algorithm on every
// shared fabric under the three backends' options, plus the Fig. 16 HM
// program through the DSL at 16x8. Any change to waves, dependencies, TB
// packing or issue order moves the digest, and so does listing a wave's
// tasks in another order. The pinned values were computed after HPDS
// stopped sorting each wave, which reordered waves but no TB's issue
// sequence; a change that means to alter plans must say so and re-pin
// them. hc_allreduce_coarse is pinned by a digest of its own.
TEST(CompilerTest, PlansMatchPinnedDigest) {
  constexpr BackendKind kBackends[] = {
      BackendKind::kResCCL, BackendKind::kMscclLike, BackendKind::kNcclLike};
  PlanHasher hasher;
  PlanHasher coarse;
  for (const tests::TopoCase& tc : tests::TopoCases()) {
    const Topology topo(tc.make());
    for (const tests::AlgoCase& ac : tests::AlgorithmCases()) {
      const Algorithm algo = ac.make(topo);
      for (BackendKind kind : kBackends) {
        const Result<CompiledCollective> cc =
            Compile(algo, topo, DefaultCompileOptions(kind));
        ASSERT_TRUE(cc.ok()) << tc.label << "/" << ac.name << ": "
                             << cc.status().ToString();
        (ac.name == "hc_allreduce_coarse" ? coarse : hasher).Add(cc.value());
      }
    }
  }
  const Result<Algorithm> hm =
      lang::CompileSource(lang::HierarchicalMeshAllReduceSource(16, 8));
  ASSERT_TRUE(hm.ok()) << hm.status().ToString();
  const Topology a100(presets::A100(16, 8));
  for (BackendKind kind : kBackends) {
    const Result<CompiledCollective> cc =
        Compile(hm.value(), a100, DefaultCompileOptions(kind));
    ASSERT_TRUE(cc.ok()) << cc.status().ToString();
    hasher.Add(cc.value());
  }
  EXPECT_EQ(hasher.digest(), 0x3bfb1b3e471e2872ULL)
      << std::hex << "digest 0x" << hasher.digest();
  EXPECT_EQ(coarse.digest(), 0x692132ef7e2797faULL)
      << std::hex << "coarse digest 0x" << coarse.digest();
}

}  // namespace
}  // namespace resccl
