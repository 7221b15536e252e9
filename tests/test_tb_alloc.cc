// TB allocation tests: connection-based counts, stage duplication, the
// state-based timeline merge, and assignment completeness.
#include <gtest/gtest.h>

#include "algorithms/hierarchical.h"
#include "algorithms/synthesized.h"
#include "core/compiler.h"
#include "core/hpds.h"
#include "core/tb_alloc.h"
#include "topology/topology.h"

namespace resccl {
namespace {

struct Compiled {
  Topology topo;
  ConnectionTable conns;
  DependencyGraph dag;
  Schedule schedule;

  Compiled(TopologySpec spec, const Algorithm& algo)
      : topo(std::move(spec)), conns(topo), dag(algo, conns) {
    HpdsScheduler hpds;
    schedule = hpds.Build(dag, conns);
  }
};

TEST(TbAllocTest, ConnectionBasedMatchesConnectionEndpoints) {
  // HM AllReduce on 2×8: each GPU talks to 7 local peers (both directions)
  // plus its two ring-aligned inter peers: 16 endpoints per GPU — the
  // paper's Table 3 "# TB = 16" for ResCCL on Topo2.
  const Algorithm algo =
      algorithms::HierarchicalMeshAllReduce(Topology(presets::A100(2, 8)));
  Compiled c(presets::A100(2, 8), algo);
  TbAllocParams params;
  params.policy = TbAllocPolicy::kConnectionBased;
  const TbPlan plan = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
  EXPECT_EQ(plan.MaxTbsPerRank(16), 16);
  EXPECT_EQ(plan.total_tbs(), 256);
}

TEST(TbAllocTest, Topo1MatchesPaperCount) {
  // 2×4: 3 local peers ×2 directions + 2 inter = 8 TBs per GPU (Table 3).
  const Algorithm algo =
      algorithms::HierarchicalMeshAllReduce(Topology(presets::A100(2, 4)));
  Compiled c(presets::A100(2, 4), algo);
  TbAllocParams params;
  params.policy = TbAllocPolicy::kStateBased;
  const TbPlan plan = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
  EXPECT_EQ(plan.MaxTbsPerRank(8), 8);
}

TEST(TbAllocTest, StageDuplicationMultipliesTbs) {
  const Algorithm algo =
      algorithms::HierarchicalMeshAllReduce(Topology(presets::A100(2, 8)));
  Compiled c(presets::A100(2, 8), algo);
  // Fake a 2-stage split on step parity of the task's wave position.
  std::vector<int> stage(static_cast<std::size_t>(c.dag.ntasks()), 0);
  Step max_step = 0;
  for (int t = 0; t < c.dag.ntasks(); ++t) {
    max_step = std::max(max_step, c.dag.node(TaskId(t)).transfer.step);
  }
  for (int t = 0; t < c.dag.ntasks(); ++t) {
    stage[static_cast<std::size_t>(t)] =
        c.dag.node(TaskId(t)).transfer.step > max_step / 2 ? 1 : 0;
  }
  TbAllocParams params;
  params.policy = TbAllocPolicy::kConnectionBased;
  const TbPlan single = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
  const TbPlan staged = AllocateTbs(c.dag, c.schedule, c.conns, params, stage);
  EXPECT_GT(staged.total_tbs(), single.total_tbs());
}

TEST(TbAllocTest, StateBasedNeverExceedsConnectionBased) {
  for (int preset = 1; preset <= 4; ++preset) {
    const TopologySpec spec = presets::Table3Topo(preset);
    const Topology topo(spec);
    for (const Algorithm& algo :
         {algorithms::HierarchicalMeshAllReduce(topo),
          algorithms::TacclLikeAllGather(topo),
          algorithms::TecclLikeAllReduce(topo)}) {
      Compiled c(spec, algo);
      TbAllocParams params;
      params.policy = TbAllocPolicy::kConnectionBased;
      const TbPlan conn = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
      params.policy = TbAllocPolicy::kStateBased;
      const TbPlan state = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
      EXPECT_LE(state.total_tbs(), conn.total_tbs()) << algo.name;
    }
  }
}

TEST(TbAllocTest, EveryTaskHasBothEndpoints) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::TacclLikeAllReduce(topo);
  Compiled c(presets::A100(2, 8), algo);
  for (auto policy :
       {TbAllocPolicy::kConnectionBased, TbAllocPolicy::kStateBased}) {
    TbAllocParams params;
    params.policy = policy;
    const TbPlan plan = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
    for (int t = 0; t < c.dag.ntasks(); ++t) {
      const int send = plan.send_tb[static_cast<std::size_t>(t)];
      const int recv = plan.recv_tb[static_cast<std::size_t>(t)];
      ASSERT_GE(send, 0);
      ASSERT_GE(recv, 0);
      const Transfer& tr = c.dag.node(TaskId(t)).transfer;
      EXPECT_EQ(plan.tbs[static_cast<std::size_t>(send)].rank, tr.src);
      EXPECT_EQ(plan.tbs[static_cast<std::size_t>(recv)].rank, tr.dst);
    }
  }
}

TEST(TbAllocTest, RefsSortedByGlobalOrder) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  Compiled c(presets::A100(2, 8), algo);
  TbAllocParams params;
  params.policy = TbAllocPolicy::kStateBased;
  const TbPlan plan = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
  for (const TbPlan::Tb& tb : plan.tbs) {
    for (std::size_t i = 1; i < tb.refs.size(); ++i) {
      EXPECT_LT(tb.refs[i - 1].order, tb.refs[i].order);
    }
  }
}

TEST(TbAllocTest, PhaseSeparatedStreamsMerge) {
  // Synthetic: chunk 0 moves 0->1 early; much later (after a long chain on
  // chunk 1), 15->0 fires. The timeline models kTimelineWindow
  // micro-batches, so the chain is longer than the window: the (0->1) and
  // (0<-15) endpoints on rank 0 are never active simultaneously and merge
  // under state-based allocation.
  constexpr int kRanks = 16;
  static_assert(kRanks - 2 > kTimelineWindow);
  Algorithm a;
  a.name = "phases";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = kRanks;
  a.nchunks = kRanks;
  a.transfers = {{0, 1, 0, 0, TransferOp::kRecv}};
  // Long chain on chunk 1 keeping the timeline busy: 1->2->3->...->15->0.
  for (int i = 1; i < kRanks; ++i) {
    a.transfers.push_back({i, (i + 1) % kRanks, i - 1, 1, TransferOp::kRecv});
  }
  Compiled c(presets::A100(2, 8), a);
  TbAllocParams params;
  params.policy = TbAllocPolicy::kStateBased;
  const TbPlan state = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
  params.policy = TbAllocPolicy::kConnectionBased;
  const TbPlan conn = AllocateTbs(c.dag, c.schedule, c.conns, params, {});
  EXPECT_LT(state.TbCountForRank(0), conn.TbCountForRank(0));
}

}  // namespace
}  // namespace resccl
