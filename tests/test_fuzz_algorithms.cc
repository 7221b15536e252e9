// Randomized algorithm fuzzing.
//
// Generates random-but-valid collective algorithms — for each chunk, a
// random broadcast arborescence from its owner — and checks that the whole
// compile→schedule→allocate→lower→simulate→verify pipeline holds for every
// backend and scheduler. The paper's backend must execute *any* algorithm
// (§1's first requirement); this suite probes shapes no human would write.
#include <gtest/gtest.h>

#include "algorithms/assembly.h"
#include "common/rng.h"
#include "runtime/backend.h"
#include "topology/topology.h"

namespace resccl {
namespace {

// Random spanning-tree AllGather: chunk c reaches every rank along a random
// arborescence rooted at rank c, hop depth as the step.
Algorithm RandomAllGather(int nranks, Rng& rng) {
  Algorithm algo;
  algo.name = "fuzz_allgather";
  algo.collective = CollectiveOp::kAllGather;
  algo.nranks = nranks;
  algo.nchunks = nranks;
  for (ChunkId c = 0; c < nranks; ++c) {
    std::vector<Rank> reached{c};
    std::vector<int> depth(static_cast<std::size_t>(nranks), 0);
    // Visit the remaining ranks in a random order; each picks a random
    // already-reached parent.
    std::vector<Rank> todo;
    for (Rank r = 0; r < nranks; ++r) {
      if (r != c) todo.push_back(r);
    }
    for (std::size_t i = todo.size(); i > 1; --i) {
      std::swap(todo[i - 1],
                todo[static_cast<std::size_t>(rng.NextInt(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (Rank r : todo) {
      const Rank parent = reached[static_cast<std::size_t>(
          rng.NextInt(0, static_cast<std::int64_t>(reached.size()) - 1))];
      depth[static_cast<std::size_t>(r)] =
          depth[static_cast<std::size_t>(parent)] + 1;
      Transfer t;
      t.src = parent;
      t.dst = r;
      t.step = depth[static_cast<std::size_t>(r)] - 1;
      t.chunk = c;
      t.op = TransferOp::kRecv;
      algo.transfers.push_back(t);
      reached.push_back(r);
    }
  }
  return algo;
}

class FuzzedAlgorithms : public ::testing::TestWithParam<int> {};

TEST_P(FuzzedAlgorithms, AllGatherSurvivesEveryBackend) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = RandomAllGather(topo.nranks(), rng);
  ASSERT_TRUE(algo.Validate().ok());

  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  for (BackendKind kind : {BackendKind::kResCCL, BackendKind::kMscclLike,
                           BackendKind::kNcclLike}) {
    const Result<PreparedPlan> prepared = Prepare(algo, topo, kind);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const CollectiveReport r = Execute(*prepared.value(), request);
    EXPECT_TRUE(r.verified) << "seed " << GetParam() << " on "
                            << BackendName(kind) << ": " << r.verify_error;
  }
}

TEST_P(FuzzedAlgorithms, AssembledAllReduceVerifies) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const Topology topo(presets::A100(2, 4));
  const Algorithm ar =
      algorithms::AssembleAllReduce(RandomAllGather(topo.nranks(), rng));
  ASSERT_TRUE(ar.Validate().ok());

  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  for (SchedulerKind sched :
       {SchedulerKind::kHpds, SchedulerKind::kRoundRobin,
        SchedulerKind::kStepOrder}) {
    CompileOptions opts = DefaultCompileOptions(BackendKind::kResCCL);
    opts.scheduler = sched;
    const Result<PreparedPlan> prepared = Prepare(ar, topo, opts);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const CollectiveReport r = Execute(*prepared.value(), request);
    EXPECT_TRUE(r.verified) << "seed " << GetParam() << ": " << r.verify_error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzedAlgorithms, ::testing::Range(0, 12));

}  // namespace
}  // namespace resccl
