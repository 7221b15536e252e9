// Structural tests for the algorithm library: transfer counts, phase
// boundaries, duality assembly, multi-channel NIC striping.
#include <gtest/gtest.h>

#include <set>

#include "algorithms/assembly.h"
#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "algorithms/synthesized.h"
#include "algorithms/tree.h"
#include "topology/topology.h"

namespace resccl::algorithms {
namespace {

TEST(RingTest, TransferCounts) {
  EXPECT_EQ(RingAllGather(8).transfers.size(), 8u * 7);
  EXPECT_EQ(RingReduceScatter(8).transfers.size(), 8u * 7);
  EXPECT_EQ(RingAllReduce(8).transfers.size(), 2u * 8 * 7);
  EXPECT_TRUE(RingAllReduce(8).Validate().ok());
}

TEST(RingTest, EveryRankUsesOnlyRingNeighbours) {
  const Algorithm a = RingAllGather(6);
  for (const Transfer& t : a.transfers) {
    EXPECT_EQ(t.dst, (t.src + 1) % 6);
  }
}

TEST(RingTest, ReduceScatterHomesChunkAtOwner) {
  const Algorithm a = RingReduceScatter(5);
  for (ChunkId c = 0; c < 5; ++c) {
    Step last = -1;
    Rank final_dst = kInvalidRank;
    for (const Transfer& t : a.transfers) {
      if (t.chunk == c && t.step > last) {
        last = t.step;
        final_dst = t.dst;
      }
    }
    EXPECT_EQ(final_dst, c);
  }
}

TEST(HierarchicalTest, AllGatherCoversEveryRank) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm a = HierarchicalMeshAllGather(topo);
  ASSERT_TRUE(a.Validate().ok());
  // Every (rank, chunk) pair other than the owner's must be written once.
  std::set<std::pair<Rank, ChunkId>> written;
  for (const Transfer& t : a.transfers) {
    EXPECT_TRUE(written.emplace(t.dst, t.chunk).second)
        << "duplicate delivery to rank " << t.dst << " chunk " << t.chunk;
  }
  EXPECT_EQ(written.size(), 16u * 15);
}

TEST(HierarchicalTest, AllReducePhaseBoundaries) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm a = HierarchicalMeshAllReduce(topo);
  ASSERT_TRUE(a.Validate().ok());
  const int nodes = 2, gpus = 4;
  const Step intra_rs_end = nodes * (gpus - 1);          // 6
  const Step inter_rs_end = intra_rs_end + (nodes - 1);  // 7
  const Step inter_ag_end = inter_rs_end + (nodes - 1);  // 8
  for (const Transfer& t : a.transfers) {
    const bool inter = topo.NodeOf(t.src) != topo.NodeOf(t.dst);
    if (t.step < intra_rs_end) {
      EXPECT_FALSE(inter);
      EXPECT_EQ(t.op, TransferOp::kRecvReduceCopy);
    } else if (t.step < inter_rs_end) {
      EXPECT_TRUE(inter);
      EXPECT_EQ(t.op, TransferOp::kRecvReduceCopy);
    } else if (t.step < inter_ag_end) {
      EXPECT_TRUE(inter);
      EXPECT_EQ(t.op, TransferOp::kRecv);
    } else {
      EXPECT_FALSE(inter);
      EXPECT_EQ(t.op, TransferOp::kRecv);
    }
  }
}

TEST(HierarchicalTest, SingleNodeDegeneratesToMesh) {
  const Topology topo(presets::A100(1, 8));
  const Algorithm ag = HierarchicalMeshAllGather(topo);
  for (const Transfer& t : ag.transfers) {
    EXPECT_TRUE(topo.SameNode(t.src, t.dst));
  }
  EXPECT_EQ(ag.transfers.size(), 8u * 7);
  EXPECT_TRUE(HierarchicalMeshAllReduce(topo).Validate().ok());
}

TEST(HierarchicalTest, SingleGpuNodesDegenerateToRing) {
  TopologySpec spec = presets::A100(4, 1);
  spec.nics_per_node = 1;
  const Topology topo(spec);
  const Algorithm ag = HierarchicalMeshAllGather(topo);
  ASSERT_TRUE(ag.Validate().ok());
  for (const Transfer& t : ag.transfers) {
    EXPECT_EQ(t.dst, (t.src + 1) % 4);  // pure ring
  }
}

TEST(TreeTest, DoubleBinaryTreeStructure) {
  const Algorithm a = DoubleBinaryTreeAllReduce(8);
  ASSERT_TRUE(a.Validate().ok());
  // Per chunk: N−1 reduce edges up + N−1 broadcast edges down.
  EXPECT_EQ(a.transfers.size(), 8u * 2 * 7);
  int rrc = 0;
  for (const Transfer& t : a.transfers) {
    rrc += t.op == TransferOp::kRecvReduceCopy;
  }
  EXPECT_EQ(rrc, 8 * 7);
}

TEST(TreeTest, MirroredTreesBalanceLoad) {
  const Algorithm a = DoubleBinaryTreeAllReduce(16);
  // Even and odd chunks must use mirrored roots: the set of destinations of
  // the final reduce step differs between parities.
  std::set<Rank> even_roots, odd_roots;
  Step max_even = -1, max_odd = -1;
  for (const Transfer& t : a.transfers) {
    if (t.op != TransferOp::kRecvReduceCopy) continue;
    Step& mx = (t.chunk % 2 == 0) ? max_even : max_odd;
    mx = std::max(mx, t.step);
  }
  for (const Transfer& t : a.transfers) {
    if (t.op != TransferOp::kRecvReduceCopy) continue;
    if (t.chunk % 2 == 0 && t.step == max_even) even_roots.insert(t.dst);
    if (t.chunk % 2 == 1 && t.step == max_odd) odd_roots.insert(t.dst);
  }
  EXPECT_EQ(even_roots.size(), 1u);
  EXPECT_EQ(odd_roots.size(), 1u);
  EXPECT_NE(*even_roots.begin(), *odd_roots.begin());
}

TEST(AssemblyTest, ReverseSwapsEndpointsAndFlipsSteps) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm ag = TacclLikeAllGather(topo);
  const Algorithm rs = ReverseToReduceScatter(ag);
  ASSERT_EQ(rs.transfers.size(), ag.transfers.size());
  EXPECT_EQ(rs.collective, CollectiveOp::kReduceScatter);
  Step max_step = 0;
  for (const Transfer& t : ag.transfers) max_step = std::max(max_step, t.step);
  for (std::size_t i = 0; i < ag.transfers.size(); ++i) {
    EXPECT_EQ(rs.transfers[i].src, ag.transfers[i].dst);
    EXPECT_EQ(rs.transfers[i].dst, ag.transfers[i].src);
    EXPECT_EQ(rs.transfers[i].step, max_step - ag.transfers[i].step);
    EXPECT_EQ(rs.transfers[i].op, TransferOp::kRecvReduceCopy);
  }
}

TEST(AssemblyTest, AllReduceConcatenatesPhases) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm ag = TacclLikeAllGather(topo);
  const Algorithm ar = AssembleAllReduce(ag);
  EXPECT_EQ(ar.collective, CollectiveOp::kAllReduce);
  EXPECT_EQ(ar.transfers.size(), 2 * ag.transfers.size());
  EXPECT_TRUE(ar.Validate().ok());
}

TEST(SynthesizedTest, TacclSkewsNicLoad) {
  // The TACCL-like sketch funnels all inter-node traffic through NIC 0.
  const Topology topo(presets::A100(2, 8));
  const Algorithm a = TacclLikeAllGather(topo);
  ASSERT_TRUE(a.Validate().ok());
  for (const Transfer& t : a.transfers) {
    if (!topo.SameNode(t.src, t.dst)) {
      EXPECT_EQ(topo.RailOf(t.src), 0);
      EXPECT_EQ(topo.RailOf(t.dst), 0);
    }
  }
}

TEST(SynthesizedTest, TecclChainsAreSerial) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm a = TecclLikeAllGather(topo);
  ASSERT_TRUE(a.Validate().ok());
  // Intra-node distribution uses only i -> i+1 chain hops and the funnel
  // into the relay.
  for (const Transfer& t : a.transfers) {
    if (topo.SameNode(t.src, t.dst)) {
      EXPECT_TRUE(t.dst == t.src + 1 ||
                  topo.LocalIndex(t.dst) == 0)
          << "r" << t.src << "->r" << t.dst;
    }
  }
}

TEST(SynthesizedTest, AllVariantsValidateOnTable3Topologies) {
  for (int i = 1; i <= 4; ++i) {
    const Topology topo(presets::Table3Topo(i));
    EXPECT_TRUE(TacclLikeAllGather(topo).Validate().ok());
    EXPECT_TRUE(TacclLikeAllReduce(topo).Validate().ok());
    EXPECT_TRUE(TecclLikeAllGather(topo).Validate().ok());
    EXPECT_TRUE(TecclLikeAllReduce(topo).Validate().ok());
  }
}

TEST(MultiChannelRingTest, ChannelsCrossDistinctNics) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm a = MultiChannelRingAllGather(topo, 4);
  ASSERT_TRUE(a.Validate().ok());
  std::set<NicId> nics_used;
  for (const Transfer& t : a.transfers) {
    if (!topo.SameNode(t.src, t.dst)) nics_used.insert(topo.RailOf(t.src));
  }
  EXPECT_EQ(nics_used.size(), 4u);  // load spread over every NIC
}

TEST(MultiChannelRingTest, OneChannelEqualsPlainRingShape) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm mc = MultiChannelRingAllGather(topo, 1);
  const Algorithm plain = RingAllGather(8);
  EXPECT_EQ(mc.transfers.size(), plain.transfers.size());
}

}  // namespace
}  // namespace resccl::algorithms
