// Rooted collective tests: Broadcast and Reduce semantics, binomial and
// chain algorithms, arbitrary roots, DSL integration.
#include <gtest/gtest.h>

#include "algorithms/rooted.h"
#include "lang/emit.h"
#include "lang/eval.h"
#include "runtime/communicator.h"

namespace resccl {
namespace {

TEST(RootedReferenceTest, BroadcastInitAndVerify) {
  BufferSet set(4, 4, 2);
  InitForCollective(CollectiveOp::kBroadcast, set, /*root=*/2);
  // Only the root holds payload initially.
  EXPECT_NE(set.rank(2).Chunk(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(set.rank(0).Chunk(0)[0], 0.0);
  // Copy root's buffer everywhere by hand; verification must accept.
  for (Rank r = 0; r < 4; ++r) {
    if (r == 2) continue;
    for (ChunkId c = 0; c < 4; ++c) {
      auto src = set.rank(2).Chunk(c);
      auto dst = set.rank(r).Chunk(c);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  std::string why;
  EXPECT_TRUE(VerifyCollective(CollectiveOp::kBroadcast, set, why, 2)) << why;
  EXPECT_FALSE(VerifyCollective(CollectiveOp::kBroadcast, set, why, 1));
}

TEST(RootedAlgorithmTest, BinomialBroadcastStructure) {
  const Algorithm a = algorithms::BinomialTreeBroadcast(8, 0);
  ASSERT_TRUE(a.Validate().ok());
  // Rounds double coverage: 1 + 2 + 4 senders × nchunks transfers.
  EXPECT_EQ(a.transfers.size(), (1u + 2 + 4) * 8);
  EXPECT_EQ(a.collective, CollectiveOp::kBroadcast);
}

TEST(RootedAlgorithmTest, ChainPipelinesChunks) {
  const Algorithm a = algorithms::ChainBroadcast(6, 0);
  ASSERT_TRUE(a.Validate().ok());
  EXPECT_EQ(a.transfers.size(), 6u * 5);
  // Chunk c leaves the root at step c: hop h carries chunk c at step c+h.
  for (const Transfer& t : a.transfers) {
    EXPECT_EQ(t.step, t.chunk + (t.src - 0));
  }
}

TEST(RootedAlgorithmTest, NonPowerOfTwoAndNonZeroRoots) {
  for (int n : {3, 5, 6, 12}) {
    for (Rank root : {0, 1, n - 1}) {
      EXPECT_TRUE(algorithms::BinomialTreeBroadcast(n, root).Validate().ok());
      EXPECT_TRUE(algorithms::BinomialTreeReduce(n, root).Validate().ok());
      EXPECT_TRUE(algorithms::ChainBroadcast(n, root).Validate().ok());
      EXPECT_TRUE(algorithms::ChainReduce(n, root).Validate().ok());
    }
  }
}

class RootedEndToEnd
    : public ::testing::TestWithParam<std::tuple<int, BackendKind>> {};

TEST_P(RootedEndToEnd, AllVariantsVerify) {
  const auto& [root, backend] = GetParam();
  const Topology topo(presets::A100(2, 4));
  RunRequest request;
  request.launch.buffer = Size::MiB(8);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  for (const Algorithm& algo :
       {algorithms::BinomialTreeBroadcast(8, root),
        algorithms::BinomialTreeReduce(8, root),
        algorithms::ChainBroadcast(8, root),
        algorithms::ChainReduce(8, root)}) {
    const Result<PreparedPlan> prepared = Prepare(algo, topo, backend);
    ASSERT_TRUE(prepared.ok())
        << algo.name << ": " << prepared.status().ToString();
    const CollectiveReport r = Execute(*prepared.value(), request);
    EXPECT_TRUE(r.verified)
        << algo.name << " root=" << root << ": " << r.verify_error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RootsAndBackends, RootedEndToEnd,
    ::testing::Combine(::testing::Values(0, 3, 7),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike)),
    [](const ::testing::TestParamInfo<std::tuple<int, BackendKind>>& pi) {
      return "root" + std::to_string(std::get<0>(pi.param)) + "_" +
             BackendName(std::get<1>(pi.param));
    });

TEST(RootedCommunicatorTest, PublicApi) {
  const Communicator comm(presets::A100(2, 4), BackendKind::kResCCL);
  RunRequest request;
  request.launch.buffer = Size::MiB(8);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  EXPECT_TRUE(comm.Broadcast(request).verified);
  EXPECT_TRUE(comm.Reduce(request).verified);
}

TEST(RootedDslTest, RootParameterRoundTrips) {
  const Algorithm a = algorithms::ChainBroadcast(8, 3);
  const std::string src = lang::EmitSource(a).value();
  EXPECT_NE(src.find("Root=3"), std::string::npos);
  EXPECT_NE(src.find("OpType=\"Broadcast\""), std::string::npos);
  const Result<Algorithm> back = lang::CompileSource(src);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().root, 3);
  EXPECT_EQ(back.value().collective, CollectiveOp::kBroadcast);
  EXPECT_EQ(back.value().transfers.size(), a.transfers.size());
}

TEST(RootedDslTest, HandWrittenBroadcastVerifies) {
  const char* source = R"(
def ResCCLAlgo(nRanks=8, AlgoName="star_bcast", OpType="Broadcast", Root=2):
    N = 8
    for peer in range(0, N):
        for c in range(0, N):
            # direct star from the root; skip the self loop
            step = peer
            dst = (peer + 3) % N
            transfer(2, dst, step, c, recv)
)";
  // The naive program would emit transfer(2, 2, ...) for one peer; the
  // (peer+3)%N rotation happens to avoid the root only for peer==7.
  auto algo = lang::CompileSource(source);
  // A self transfer slips through for (peer+3)%8 == 2: compilation fails
  // loudly rather than producing a corrupt algorithm.
  EXPECT_FALSE(algo.ok());
}

}  // namespace
}  // namespace resccl
