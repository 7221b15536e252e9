// Training-simulator tests: model presets, iteration decomposition,
// backend ordering, configuration validation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "train/trainer.h"

namespace resccl::train {
namespace {

TEST(ModelTest, FamiliesArePopulated) {
  const auto gpt = Gpt3Family();
  ASSERT_EQ(gpt.size(), 4u);
  EXPECT_DOUBLE_EQ(gpt[0].params_billion, 6.7);
  EXPECT_EQ(gpt[0].layers, 32);
  EXPECT_EQ(gpt[0].hidden, 4096);
  const auto t5 = T5Family();
  ASSERT_EQ(t5.size(), 3u);
  EXPECT_DOUBLE_EQ(t5[2].params_billion, 3.0);
  // Sizes increase monotonically within a family.
  for (std::size_t i = 1; i < gpt.size(); ++i) {
    EXPECT_GT(gpt[i].params_billion, gpt[i - 1].params_billion);
  }
}

TrainConfig GptConfig(BackendKind backend) {
  TrainConfig c;
  c.model = Gpt3Family()[0];
  c.tp = 8;
  c.dp = 2;
  c.global_batch = 16;
  c.backend = backend;
  return c;
}

TEST(TrainerTest, IterationDecomposes) {
  const IterationReport r = SimulateIteration(GptConfig(BackendKind::kResCCL));
  EXPECT_GT(r.compute.ms(), 0.0);
  EXPECT_GT(r.tp_comm.ms(), 0.0);
  EXPECT_GT(r.dp_comm.ms(), 0.0);
  EXPECT_NEAR(r.iteration.ms(),
              r.compute.ms() + r.tp_comm.ms() + r.dp_comm.ms(), 1e-6);
  EXPECT_GT(r.samples_per_sec, 0.0);
  EXPECT_GT(r.comm_fraction, 0.0);
  EXPECT_LT(r.comm_fraction, 1.0);
}

TEST(TrainerTest, BackendOrderingHolds) {
  const double ours =
      SimulateIteration(GptConfig(BackendKind::kResCCL)).samples_per_sec;
  const double msccl =
      SimulateIteration(GptConfig(BackendKind::kMscclLike)).samples_per_sec;
  const double nccl =
      SimulateIteration(GptConfig(BackendKind::kNcclLike)).samples_per_sec;
  EXPECT_GT(ours, msccl);
  EXPECT_GT(ours, nccl);
}

TEST(TrainerTest, T5DataParallelGains) {
  TrainConfig c;
  c.model = T5Family()[2];
  c.tp = 1;
  c.dp = 16;
  c.global_batch = 16;
  c.backend = BackendKind::kResCCL;
  const IterationReport ours = SimulateIteration(c);
  EXPECT_DOUBLE_EQ(ours.tp_comm.ms(), 0.0);  // no tensor parallelism
  c.backend = BackendKind::kNcclLike;
  const IterationReport nccl = SimulateIteration(c);
  // Fig. 13: ResCCL accelerates T5 throughput by 18%–39% over NCCL.
  EXPECT_GT(ours.samples_per_sec, 1.10 * nccl.samples_per_sec);
}

TEST(TrainerTest, LargerModelsRunSlower) {
  double prev = 1e18;
  for (const ModelSpec& m : Gpt3Family()) {
    TrainConfig c = GptConfig(BackendKind::kResCCL);
    c.model = m;
    c.dp = 4;
    c.global_batch = 32;
    const IterationReport r = SimulateIteration(c);
    EXPECT_LT(r.samples_per_sec, prev * 1.5);  // broadly decreasing
    prev = r.samples_per_sec;
  }
}

TEST(TrainerTest, CommFractionInPlausibleRange) {
  // Domino (cited in §1) reports 17–43% communication overhead; the
  // simulator should land in that neighbourhood, not at 1% or 90%.
  const IterationReport r = SimulateIteration(GptConfig(BackendKind::kNcclLike));
  EXPECT_GT(r.comm_fraction, 0.05);
  EXPECT_LT(r.comm_fraction, 0.6);
}

TEST(TrainerTest, InvalidConfigsThrow) {
  TrainConfig c = GptConfig(BackendKind::kResCCL);
  c.tp = 16;  // larger than a server
  EXPECT_THROW((void)SimulateIteration(c), std::invalid_argument);
  c = GptConfig(BackendKind::kResCCL);
  c.global_batch = 7;  // not divisible by dp
  EXPECT_THROW((void)SimulateIteration(c), std::invalid_argument);
  c = GptConfig(BackendKind::kResCCL);
  c.dp = 0;
  EXPECT_THROW((void)SimulateIteration(c), std::invalid_argument);
  c = GptConfig(BackendKind::kResCCL);
  c.global_batch = 0;  // zero micro-batches: nothing to iterate over
  EXPECT_THROW((void)SimulateIteration(c), std::invalid_argument);
}

TEST(TrainerTest, PureComputeWithoutParallelism) {
  TrainConfig c;
  c.model = T5Family()[0];
  c.tp = 1;
  c.dp = 1;
  c.global_batch = 4;
  const IterationReport r = SimulateIteration(c);
  EXPECT_DOUBLE_EQ(r.tp_comm.ms(), 0.0);
  EXPECT_DOUBLE_EQ(r.dp_comm.ms(), 0.0);
  EXPECT_DOUBLE_EQ(r.comm_fraction, 0.0);
}

}  // namespace
}  // namespace resccl::train
