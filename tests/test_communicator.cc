// Public API tests: the Communicator facade and default algorithm choice.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "lang/eval.h"
#include "runtime/communicator.h"
#include "runtime/selector.h"

namespace resccl {
namespace {

RunRequest SmallRequest() {
  RunRequest r;
  r.launch.buffer = Size::MiB(16);
  r.launch.chunk = Size::KiB(256);
  r.verify = true;
  return r;
}

TEST(CommunicatorTest, StandardCollectivesVerified) {
  const Communicator comm(presets::A100(2, 8), BackendKind::kResCCL);
  EXPECT_EQ(comm.topology().nranks(), 16);
  for (const CollectiveReport& r :
       {comm.AllGather(SmallRequest()), comm.AllReduce(SmallRequest()),
        comm.ReduceScatter(SmallRequest())}) {
    EXPECT_TRUE(r.verified) << r.verify_error;
    EXPECT_GT(r.algo_bw.gbps(), 0.0);
  }
}

TEST(CommunicatorTest, BackendSelectionChangesDefaults) {
  const Topology topo(presets::A100(2, 8));
  EXPECT_EQ(DefaultAlgorithm(BackendKind::kResCCL, CollectiveOp::kAllReduce,
                             topo)
                .name,
            "hm_allreduce");
  EXPECT_EQ(DefaultAlgorithm(BackendKind::kMscclLike, CollectiveOp::kAllGather,
                             topo)
                .name,
            "hm_allgather");
  EXPECT_EQ(DefaultAlgorithm(BackendKind::kNcclLike, CollectiveOp::kAllReduce,
                             topo)
                .name,
            "ring_mc_allreduce");
}

TEST(CommunicatorTest, RunsCustomDslAlgorithm) {
  const char* source = R"(
def ResCCLAlgo(nRanks=8, AlgoName="my_algo", OpType="Allgather"):
    N = 8
    for c in range(0, N):
        for s in range(0, N-1):
            transfer((c+s)%N, (c+s+1)%N, s, c, recv)
)";
  auto algo = lang::CompileSource(source);
  ASSERT_TRUE(algo.ok()) << algo.status().ToString();
  const Communicator comm(presets::A100(2, 4), BackendKind::kResCCL);
  const CollectiveReport r = comm.Run(algo.value(), SmallRequest());
  EXPECT_TRUE(r.verified) << r.verify_error;
  EXPECT_EQ(r.algorithm, "my_algo");
}

TEST(CommunicatorTest, MismatchedAlgorithmThrows) {
  const Communicator comm(presets::A100(2, 8), BackendKind::kResCCL);
  const Topology small(presets::A100(2, 4));
  const Algorithm algo =
      DefaultAlgorithm(BackendKind::kResCCL, CollectiveOp::kAllGather, small);
  EXPECT_THROW((void)comm.Run(algo, SmallRequest()), std::invalid_argument);
}

// One rank has no peer: the selector finds no candidate and the
// communicator refuses its default algorithm, both as invalid_argument.
TEST(CommunicatorTest, OneRankIsInvalidArgument) {
  const Topology topo(presets::A100(1, 1));
  RunRequest request;
  request.launch.buffer = Size::MiB(1);
  for (const CollectiveOp op :
       {CollectiveOp::kAllReduce, CollectiveOp::kBroadcast}) {
    EXPECT_TRUE(CandidateAlgorithms(op, topo).empty());
    EXPECT_THROW((void)SelectAlgorithm(op, topo, BackendKind::kResCCL, request),
                 std::invalid_argument);
  }
  const Communicator comm(presets::A100(1, 1), BackendKind::kResCCL);
  try {
    (void)comm.AllReduce(request);
    ADD_FAILURE() << "AllReduce on one rank did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("needs at least 2 ranks"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)comm.Broadcast(request), std::invalid_argument);
}

TEST(CommunicatorTest, AllBackendsProduceVerifiedAllReduce) {
  for (BackendKind kind : {BackendKind::kResCCL, BackendKind::kMscclLike,
                           BackendKind::kNcclLike}) {
    const Communicator comm(presets::A100(2, 4), kind);
    const CollectiveReport r = comm.AllReduce(SmallRequest());
    EXPECT_TRUE(r.verified) << BackendName(kind) << ": " << r.verify_error;
  }
}

// A returned report's `lowered` is its own: a later call that re-lowers
// (a new buffer size) must lower into a fresh program, not rewrite the one
// an earlier report still points at.
TEST(CommunicatorTest, ObservedReportKeepsItsLoweredProgram) {
  const Communicator comm(presets::A100(1, 8), BackendKind::kResCCL);
  RunRequest request;
  request.observe = true;
  request.launch.buffer = Size::MiB(64);
  const CollectiveReport small = comm.AllReduce(request);
  ASSERT_NE(small.lowered, nullptr);
  EXPECT_EQ(small.lowered->program.transfers.size(), 896u);

  request.launch.buffer = Size::MiB(256);
  const CollectiveReport large = comm.AllReduce(request);
  ASSERT_NE(large.lowered, nullptr);
  EXPECT_NE(small.lowered, large.lowered);
  EXPECT_EQ(small.lowered->program.transfers.size(), 896u);
  EXPECT_EQ(large.lowered->program.transfers.size(), 3584u);
  EXPECT_EQ(small.lowered->program.tbs.size(), small.sim.tbs.size());
}

}  // namespace
}  // namespace resccl
