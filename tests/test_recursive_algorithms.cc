// Structural and end-to-end tests for the recursive-distance algorithms.
#include <gtest/gtest.h>

#include <set>

#include "algorithms/recursive.h"
#include "runtime/backend.h"
#include "topology/topology.h"

namespace resccl::algorithms {
namespace {

TEST(RecursiveTest, RhdTransferCounts) {
  // Per phase: N · Σ_k N/2^(k+1) = N(N−1) transfers; two phases.
  const Algorithm a = RecursiveHalvingDoublingAllReduce(8);
  ASSERT_TRUE(a.Validate().ok());
  EXPECT_EQ(a.transfers.size(), 2u * 8 * 7);
  int rrc = 0;
  for (const Transfer& t : a.transfers) {
    rrc += t.op == TransferOp::kRecvReduceCopy;
  }
  EXPECT_EQ(rrc, 8 * 7);
}

TEST(RecursiveTest, RhdPartnersAreXorDistances) {
  const Algorithm a = RecursiveHalvingDoublingAllReduce(16);
  for (const Transfer& t : a.transfers) {
    const int d = t.src ^ t.dst;
    EXPECT_EQ(d & (d - 1), 0) << "partner distance must be a power of two";
  }
}

TEST(RecursiveTest, RequiresPowerOfTwo) {
  EXPECT_THROW((void)RecursiveHalvingDoublingAllReduce(6), std::logic_error);
  EXPECT_THROW((void)RecursiveDoublingAllGather(12), std::logic_error);
  EXPECT_THROW((void)RecursiveHalvingDoublingAllReduce(0), std::logic_error);
}

TEST(RecursiveTest, RdAllGatherBlockGrowth) {
  const Algorithm a = RecursiveDoublingAllGather(8);
  ASSERT_TRUE(a.Validate().ok());
  // Round k ships 2^k chunks per rank: total N·(1+2+4) = N·(N−1).
  EXPECT_EQ(a.transfers.size(), 8u * 7);
  // Round step counts: step k has N·2^k transfers.
  for (int k = 0; k < 3; ++k) {
    int count = 0;
    for (const Transfer& t : a.transfers) count += t.step == k;
    EXPECT_EQ(count, 8 * (1 << k));
  }
}

TEST(RecursiveTest, OneShotIsSingleStepFullMesh) {
  const Algorithm a = OneShotAllGather(6);
  ASSERT_TRUE(a.Validate().ok());
  EXPECT_EQ(a.transfers.size(), 6u * 5);
  std::set<std::pair<Rank, Rank>> pairs;
  for (const Transfer& t : a.transfers) {
    EXPECT_EQ(t.step, 0);
    EXPECT_EQ(t.chunk, t.src);
    pairs.emplace(t.src, t.dst);
  }
  EXPECT_EQ(pairs.size(), 6u * 5);
}

class RecursiveEndToEnd
    : public ::testing::TestWithParam<std::tuple<int, BackendKind>> {};

TEST_P(RecursiveEndToEnd, VerifiesNumerically) {
  const auto& [nranks, backend] = GetParam();
  const Topology topo(presets::A100(nranks / 8 ? nranks / 8 : 1,
                                    nranks >= 8 ? 8 : nranks));
  RunRequest request;
  request.launch.buffer = Size::MiB(8);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  for (const Algorithm& algo :
       {RecursiveHalvingDoublingAllReduce(nranks),
        RecursiveDoublingAllGather(nranks), OneShotAllGather(nranks)}) {
    const Result<PreparedPlan> prepared = Prepare(algo, topo, backend);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const CollectiveReport r = Execute(*prepared.value(), request);
    EXPECT_TRUE(r.verified) << algo.name << ": " << r.verify_error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RecursiveEndToEnd,
    ::testing::Combine(::testing::Values(8, 16, 32),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike)),
    [](const ::testing::TestParamInfo<std::tuple<int, BackendKind>>& param_info) {
      return std::to_string(std::get<0>(param_info.param)) + "ranks_" +
             BackendName(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace resccl::algorithms
