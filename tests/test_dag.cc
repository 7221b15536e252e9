// Dependency-analysis tests: RAW/WAW/WAR hazards, step-group concurrency,
// per-chunk isolation, connection resolution.
#include <gtest/gtest.h>

#include <algorithm>

#include "algorithms/ring.h"
#include "core/dag.h"
#include "topology/topology.h"

namespace resccl {
namespace {

bool HasEdge(const DependencyGraph& dag, int from, int to) {
  const auto& succs = dag.node(TaskId(from)).succs;
  return std::find(succs.begin(), succs.end(), TaskId(to)) != succs.end();
}

Algorithm Make(int nranks, std::vector<Transfer> transfers) {
  Algorithm a;
  a.name = "t";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = nranks;
  a.nchunks = nranks;
  a.transfers = std::move(transfers);
  return a;
}

class DagTest : public ::testing::Test {
 protected:
  DagTest() : topo_(presets::A100(2, 4)) {}
  Topology topo_;
};

TEST_F(DagTest, RawChain) {
  // 0->1 writes chunk 0 at rank 1; 1->2 then reads it: RAW edge.
  const Algorithm a = Make(8, {{0, 1, 0, 0, TransferOp::kRecv},
                               {1, 2, 1, 0, TransferOp::kRecv}});
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  EXPECT_TRUE(HasEdge(dag, 0, 1));
  EXPECT_EQ(dag.total_edges(), 1);
  EXPECT_EQ(dag.node(TaskId(1)).preds.size(), 1u);
}

TEST_F(DagTest, WawOnSameDestination) {
  // Two reductions into the same slot at different steps must serialize.
  const Algorithm a = Make(8, {{0, 2, 0, 0, TransferOp::kRecvReduceCopy},
                               {1, 2, 1, 0, TransferOp::kRecvReduceCopy}});
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  EXPECT_TRUE(HasEdge(dag, 0, 1));
}

TEST_F(DagTest, WarReaderBlocksOverwrite) {
  // Rank 1 sends its copy at step 0; an overwrite of rank 1's slot at step 1
  // must wait for that read.
  const Algorithm a = Make(8, {{1, 2, 0, 0, TransferOp::kRecv},
                               {3, 1, 1, 0, TransferOp::kRecv}});
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  EXPECT_TRUE(HasEdge(dag, 0, 1));
}

TEST_F(DagTest, SameStepTasksAreConcurrent) {
  // Two reads of rank 0's chunk at the same step: no edges either way.
  const Algorithm a = Make(8, {{0, 1, 0, 0, TransferOp::kRecv},
                               {0, 2, 0, 0, TransferOp::kRecv}});
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  EXPECT_EQ(dag.total_edges(), 0);
}

TEST_F(DagTest, DifferentChunksNeverDepend) {
  const Algorithm a = Make(8, {{0, 1, 0, 0, TransferOp::kRecv},
                               {1, 2, 1, 1, TransferOp::kRecv},
                               {2, 3, 2, 2, TransferOp::kRecv}});
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  EXPECT_EQ(dag.total_edges(), 0);
}

TEST_F(DagTest, ChunkGrouping) {
  const Algorithm a = Make(8, {{0, 1, 0, 0, TransferOp::kRecv},
                               {0, 1, 1, 2, TransferOp::kRecv},
                               {1, 2, 1, 0, TransferOp::kRecv}});
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  ASSERT_EQ(dag.nchunks(), 8);
  EXPECT_EQ(dag.chunk_tasks()[0].size(), 2u);
  EXPECT_EQ(dag.chunk_tasks()[2].size(), 1u);
  EXPECT_EQ(dag.chunk_tasks()[1].size(), 0u);
}

TEST_F(DagTest, RingAllGatherChains) {
  const Algorithm a = algorithms::RingAllGather(8);
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  EXPECT_EQ(dag.ntasks(), 8 * 7);
  // Each chunk forms a forwarding chain: exactly 6 edges per chunk. WAR/WAW
  // add nothing extra for a pure pipeline.
  EXPECT_EQ(dag.total_edges(), 8 * 6);
  for (const auto& chunk : dag.chunk_tasks()) {
    int roots = 0;
    for (TaskId t : chunk) roots += dag.node(t).preds.empty();
    EXPECT_EQ(roots, 1);  // one chain head per chunk
  }
}

TEST_F(DagTest, ConnectionsResolvedPerPair) {
  const Algorithm a = Make(8, {{0, 1, 0, 0, TransferOp::kRecv},
                               {0, 1, 1, 1, TransferOp::kRecv},
                               {1, 0, 0, 2, TransferOp::kRecv}});
  ConnectionTable conns(topo_);
  DependencyGraph dag(a, conns);
  EXPECT_EQ(conns.count(), 2);  // (0->1) reused, (1->0) distinct
  EXPECT_EQ(dag.node(TaskId(0)).connection, dag.node(TaskId(1)).connection);
  EXPECT_NE(dag.node(TaskId(0)).connection, dag.node(TaskId(2)).connection);
}

// Every rank talks to every other one, as in one-shot AllGather: ids come
// out dense in first-use order, each pair keeps its id, and the pair's
// endpoints read back.
TEST_F(DagTest, ConnectionIdsDenseInFirstUseOrderAcrossAllPairs) {
  const Topology topo(presets::A100(2, 8));
  ConnectionTable conns(topo);
  int next = 0;
  for (Rank src = 0; src < 16; ++src) {
    for (Rank dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(conns.Resolve(src, dst).value, next++);
    }
  }
  EXPECT_EQ(conns.count(), 16 * 15);
  for (Rank src = 0; src < 16; ++src) {
    for (Rank dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      const LinkId id = conns.Resolve(src, dst);
      EXPECT_EQ(conns.src(id), src);
      EXPECT_EQ(conns.dst(id), dst);
    }
  }
  EXPECT_EQ(conns.count(), 16 * 15);
  EXPECT_THROW((void)conns.Resolve(0, 16), std::logic_error);
  EXPECT_THROW((void)conns.Resolve(-1, 0), std::logic_error);
  EXPECT_EQ(conns.count(), 16 * 15);
}

TEST_F(DagTest, ConflictSemantics) {
  ConnectionTable conns(topo_);
  const LinkId intra_a = conns.Resolve(0, 1);
  const LinkId intra_b = conns.Resolve(0, 2);   // same egress, different pair
  const LinkId inter_a = conns.Resolve(0, 4);   // node0 nic0 (2x4: 1 GPU/NIC?)
  const LinkId inter_b = conns.Resolve(4, 0);
  // Same link conflicts with itself.
  EXPECT_TRUE(conns.Conflicts(intra_a, intra_a));
  // Distinct intra pairs do not serialize (fabric is a crossbar).
  EXPECT_FALSE(conns.Conflicts(intra_a, intra_b));
  // Opposite network directions use different NIC queues.
  EXPECT_FALSE(conns.Conflicts(inter_a, inter_b));
}

TEST_F(DagTest, NicSharingConflicts) {
  // On 2×8 (two GPUs per NIC), inter-node transfers from GPUs 0 and 1 share
  // node0.nic0.up: communication dependency (§4.4).
  const Topology topo(presets::A100(2, 8));
  ConnectionTable conns(topo);
  const LinkId a = conns.Resolve(0, 8);
  const LinkId b = conns.Resolve(1, 9);
  const LinkId c = conns.Resolve(2, 10);  // nic1
  EXPECT_TRUE(conns.Conflicts(a, b));
  EXPECT_FALSE(conns.Conflicts(a, c));
}

TEST_F(DagTest, InvalidAlgorithmRejected) {
  Algorithm bad = Make(8, {{0, 0, 0, 0, TransferOp::kRecv}});
  ConnectionTable conns(topo_);
  EXPECT_THROW(DependencyGraph(bad, conns), std::logic_error);
}

}  // namespace
}  // namespace resccl
