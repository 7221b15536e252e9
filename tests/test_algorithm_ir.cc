// Tests for the Algorithm IR validation rules.
#include <gtest/gtest.h>

#include "core/algorithm.h"

namespace resccl {
namespace {

Algorithm Base() {
  Algorithm a;
  a.name = "test";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = 4;
  a.nchunks = 4;
  a.transfers = {{0, 1, 0, 0, TransferOp::kRecv}};
  return a;
}

TEST(AlgorithmValidateTest, AcceptsMinimal) {
  EXPECT_TRUE(Base().Validate().ok());
}

TEST(AlgorithmValidateTest, RejectsTooFewRanks) {
  Algorithm a = Base();
  a.nranks = 1;
  EXPECT_FALSE(a.Validate().ok());
}

TEST(AlgorithmValidateTest, RejectsNoChunks) {
  Algorithm a = Base();
  a.nchunks = 0;
  EXPECT_FALSE(a.Validate().ok());
}

TEST(AlgorithmValidateTest, RejectsEmptyTransferList) {
  Algorithm a = Base();
  a.transfers.clear();
  EXPECT_FALSE(a.Validate().ok());
}

TEST(AlgorithmValidateTest, RejectsRankOutOfRange) {
  Algorithm a = Base();
  a.transfers.push_back({0, 4, 1, 0, TransferOp::kRecv});
  const Status s = a.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("rank out of range"), std::string::npos);
  a = Base();
  a.transfers.push_back({-1, 1, 1, 0, TransferOp::kRecv});
  EXPECT_FALSE(a.Validate().ok());
}

TEST(AlgorithmValidateTest, RejectsSelfTransfer) {
  Algorithm a = Base();
  a.transfers.push_back({2, 2, 1, 0, TransferOp::kRecv});
  EXPECT_NE(a.Validate().message().find("self transfer"), std::string::npos);
}

TEST(AlgorithmValidateTest, RejectsChunkOutOfRange) {
  Algorithm a = Base();
  a.transfers.push_back({0, 1, 1, 4, TransferOp::kRecv});
  EXPECT_NE(a.Validate().message().find("chunk out of range"),
            std::string::npos);
}

TEST(AlgorithmValidateTest, RejectsNegativeStep) {
  Algorithm a = Base();
  a.transfers.push_back({0, 1, -1, 0, TransferOp::kRecv});
  EXPECT_NE(a.Validate().message().find("negative step"), std::string::npos);
}

TEST(AlgorithmValidateTest, RejectsDuplicateTask) {
  Algorithm a = Base();
  a.transfers.push_back(a.transfers.front());
  EXPECT_NE(a.Validate().message().find("duplicate task"), std::string::npos);
}

// Chunk ids past 16 bits stay distinct: duplicates compare the whole
// (src, dst, step, chunk) tuple.
TEST(AlgorithmValidateTest, ChunksBeyondSixteenBitsAreDistinctTasks) {
  Algorithm a = Base();
  a.nchunks = 65537;
  a.transfers.push_back({0, 1, 0, 65536, TransferOp::kRecv});
  EXPECT_TRUE(a.Validate().ok()) << a.Validate().ToString();
  a.transfers.push_back({0, 1, 0, 65536, TransferOp::kRecv});
  EXPECT_NE(a.Validate().message().find("transfer #2 (r0->r1, step 0, chunk "
                                        "65536, recv): duplicate task"),
            std::string::npos)
      << a.Validate().ToString();
}

TEST(AlgorithmValidateTest, SameTupleDifferentOpIsStillDuplicate) {
  // A task is identified by (src, dst, step, chunk) — §4.2.
  Algorithm a = Base();
  Transfer t = a.transfers.front();
  t.op = TransferOp::kRecvReduceCopy;
  a.transfers.push_back(t);
  EXPECT_FALSE(a.Validate().ok());
}

TEST(AlgorithmValidateTest, DiagnosticsNameTheTransfer) {
  Algorithm a = Base();
  a.transfers.push_back({0, 7, 3, 1, TransferOp::kRecvReduceCopy});
  const std::string msg = a.Validate().message();
  EXPECT_NE(msg.find("r0->r7"), std::string::npos);
  EXPECT_NE(msg.find("step 3"), std::string::npos);
  EXPECT_NE(msg.find("rrc"), std::string::npos);
}

}  // namespace
}  // namespace resccl
