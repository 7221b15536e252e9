// ResCCLang emitter tests: emitted source compiles back to the same
// algorithm for every library algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "algorithms/recursive.h"
#include "algorithms/ring.h"
#include "algorithms/rooted.h"
#include "algorithms/synthesized.h"
#include "algorithms/tree.h"
#include "lang/emit.h"
#include "lang/eval.h"
#include "topology/topology.h"

namespace resccl::lang {
namespace {

// Transfer multiset equality, independent of emission order.
bool SameTransfers(const Algorithm& a, const Algorithm& b) {
  if (a.transfers.size() != b.transfers.size()) return false;
  auto key = [](const Transfer& t) {
    return std::tuple(t.src, t.dst, t.step, t.chunk, t.op);
  };
  std::vector<std::tuple<Rank, Rank, Step, ChunkId, TransferOp>> ka, kb;
  for (const Transfer& t : a.transfers) ka.push_back(key(t));
  for (const Transfer& t : b.transfers) kb.push_back(key(t));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

TEST(EmitTest, HeaderReflectsAlgorithm) {
  const Algorithm a = algorithms::RingAllGather(4);
  const std::string src = EmitSource(a).value();
  EXPECT_NE(src.find("nRanks=4"), std::string::npos);
  EXPECT_NE(src.find("OpType=\"Allgather\""), std::string::npos);
  EXPECT_NE(src.find("AlgoName=\"ring_allgather\""), std::string::npos);
  EXPECT_NE(src.find("# step 0"), std::string::npos);
}

TEST(EmitTest, RoundTripsEveryLibraryAlgorithm) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algos[] = {
      algorithms::RingAllGather(16),
      algorithms::RingAllReduce(16),
      algorithms::MultiChannelRingAllReduce(topo, 4),
      algorithms::HierarchicalMeshAllGather(topo),
      algorithms::HierarchicalMeshAllReduce(topo),
      algorithms::DoubleBinaryTreeAllReduce(16),
      algorithms::TacclLikeAllReduce(topo),
      algorithms::TecclLikeAllGather(topo),
      algorithms::RecursiveHalvingDoublingAllReduce(16),
      algorithms::OneShotAllGather(16),
      algorithms::BinomialTreeBroadcast(16, 5),
      algorithms::ChainReduce(16, 9),
  };
  for (const Algorithm& a : algos) {
    const Result<Algorithm> back = CompileSource(EmitSource(a).value());
    ASSERT_TRUE(back.ok()) << a.name << ": " << back.status().ToString();
    EXPECT_EQ(back.value().nranks, a.nranks) << a.name;
    EXPECT_EQ(back.value().collective, a.collective) << a.name;
    EXPECT_EQ(back.value().root, a.root) << a.name;
    EXPECT_TRUE(SameTransfers(a, back.value())) << a.name;
  }
}

TEST(EmitTest, RejectsInvalidAlgorithm) {
  Algorithm bad;
  bad.nranks = 4;
  bad.nchunks = 4;
  const Result<std::string> src = EmitSource(bad);
  ASSERT_FALSE(src.ok());
  EXPECT_EQ(src.status().code(), StatusCode::kInvalidArgument);
}

TEST(EmitTest, RejectsChunkCountOtherThanRankCount) {
  // The coarse composed AllReduce runs one chunk class per local GPU:
  // 8 chunks over 16 ranks, which ResCCLang cannot express.
  algorithms::CompositionSpec spec;
  spec.chunks = 8;
  const Algorithm coarse =
      algorithms::ComposedAllReduce(Topology(presets::A100(2, 8)), spec);
  ASSERT_TRUE(coarse.Validate().ok());
  const Result<std::string> src = EmitSource(coarse);
  ASSERT_FALSE(src.ok());
  EXPECT_EQ(src.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(src.status().message().find("nchunks == nranks"),
            std::string::npos);
}

}  // namespace
}  // namespace resccl::lang
