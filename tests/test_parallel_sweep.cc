// Determinism of the parallel sweep paths: SelectAlgorithm looped over
// buffer sizes and RunConcurrently must produce bit-identical results at any
// --jobs value (see common/thread_pool.h's determinism contract) — across
// the full candidate library, all three backend personalities, and under an
// active FaultPlan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/multi_job.h"
#include "runtime/plan_cache.h"
#include "runtime/selector.h"
#include "sim/faults.h"
#include "topology/topology.h"

namespace resccl {
namespace {

// Order-sensitive FNV-1a over doubles: any divergence between the serial
// and parallel paths lands in a different hash.
void HashMix(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

// One selection per buffer size, every candidate compiled once through a
// shared cache.
std::vector<SelectionResult> SelectEach(CollectiveOp op, const Topology& topo,
                                        BackendKind kind,
                                        const RunRequest& request,
                                        const std::vector<Size>& sizes,
                                        int jobs) {
  PlanCache cache;
  std::vector<SelectionResult> points;
  for (const Size size : sizes) {
    RunRequest at = request;
    at.launch.buffer = size;
    points.push_back(SelectAlgorithm(op, topo, kind, at, &cache, jobs));
  }
  return points;
}

std::uint64_t HashSweep(const std::vector<SelectionResult>& points) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const SelectionResult& point : points) {
    HashMix(h, point.report.elapsed.us());
    HashMix(h, point.report.algo_bw.gbps());
    for (const CandidateScore& score : point.scoreboard) {
      HashMix(h, static_cast<double>(score.name.size()));
      for (const char c : score.name) HashMix(h, static_cast<double>(c));
      HashMix(h, score.gbps);
      HashMix(h, score.elapsed.us());
    }
  }
  return h;
}

// A deterministic perturbation: degrade the first few fabric resources
// over a window that lands mid-collective for MiB-scale buffers.
FaultPlan MakeFaults(const Topology& topo) {
  FaultPlan plan;
  const Path& path = topo.PathBetween(0, 1);
  for (const ResourceId r : path.resources) {
    FaultPlan::LinkFault fault;
    fault.resource = r;
    fault.start = SimTime::Us(5);
    fault.end = SimTime::Us(400);
    fault.capacity_scale = 0.5;
    plan.AddLinkFault(fault);
  }
  return plan;
}

TEST(ParallelSweepTest, SelectSweepBitIdenticalAcrossJobsAndBackends) {
  const Topology topo(presets::A100(2, 8));
  const std::vector<Size> sizes = {Size::MiB(1), Size::MiB(8), Size::MiB(32)};
  // The full candidate library must be in play, not a trivial subset:
  // every applicable algorithm across the collective ops.
  std::size_t library = 0;
  for (const CollectiveOp op :
       {CollectiveOp::kAllReduce, CollectiveOp::kAllGather,
        CollectiveOp::kReduceScatter, CollectiveOp::kBroadcast,
        CollectiveOp::kReduce}) {
    library += CandidateAlgorithms(op, topo).size();
  }
  EXPECT_GE(library, 10u);

  for (const CollectiveOp op :
       {CollectiveOp::kAllReduce, CollectiveOp::kAllGather}) {
    for (const BackendKind kind : {BackendKind::kResCCL,
                                   BackendKind::kMscclLike,
                                   BackendKind::kNcclLike}) {
      RunRequest request;
      const std::vector<SelectionResult> serial =
          SelectEach(op, topo, kind, request, sizes, /*jobs=*/1);
      const std::vector<SelectionResult> parallel =
          SelectEach(op, topo, kind, request, sizes, /*jobs=*/4);
      EXPECT_EQ(HashSweep(serial), HashSweep(parallel))
          << "backend " << BackendName(kind);
      ASSERT_EQ(serial.size(), parallel.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].report.algorithm, parallel[i].report.algorithm);
      }
    }
  }
}

TEST(ParallelSweepTest, SelectSweepBitIdenticalUnderFaults) {
  const Topology topo(presets::A100(2, 8));
  const FaultPlan faults = MakeFaults(topo);
  const std::vector<Size> sizes = {Size::MiB(4), Size::MiB(16)};

  RunRequest request;
  request.faults = faults;
  const std::vector<SelectionResult> serial = SelectEach(
      CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, request, sizes, 1);
  const std::vector<SelectionResult> parallel = SelectEach(
      CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, request, sizes, 4);
  EXPECT_EQ(HashSweep(serial), HashSweep(parallel));
  // Sanity: the faults actually bit (some candidate slowed down vs clean).
  RunRequest clean;
  const std::vector<SelectionResult> clean_sweep = SelectEach(
      CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, clean, sizes, 1);
  EXPECT_NE(HashSweep(serial), HashSweep(clean_sweep));
}

// The thousand-rank acceptance angle: on a rail-aligned Clos fabric the
// candidate set includes the composed N-level plans, whose flows are
// re-rated through the aggregated per-resource buckets. Serial and
// parallel sweeps must still land on identical bits — aggregation may
// change how the solver walks, never what it computes.
TEST(ParallelSweepTest, SelectSweepBitIdenticalOnRailClosWithAggregation) {
  const Topology topo(presets::RailClos(8, 4, 2, 4, /*oversubscription=*/2.0));
  bool has_composed = false;
  for (const Algorithm& a :
       CandidateAlgorithms(CollectiveOp::kAllReduce, topo)) {
    if (a.name.rfind("hc_", 0) == 0) has_composed = true;
  }
  ASSERT_TRUE(has_composed);

  const std::vector<Size> sizes = {Size::MiB(4), Size::MiB(16)};
  RunRequest request;
  const std::vector<SelectionResult> serial = SelectEach(
      CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, request, sizes, 1);
  const std::vector<SelectionResult> parallel = SelectEach(
      CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, request, sizes, 4);
  EXPECT_EQ(HashSweep(serial), HashSweep(parallel));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].report.algorithm, parallel[i].report.algorithm);
  }
}

TEST(ParallelSweepTest, RunConcurrentlyBitIdenticalAcrossSimJobs) {
  const Topology topo(presets::A100(2, 8));
  std::vector<JobSpec> jobs;
  for (int j = 0; j < 3; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    const auto candidates =
        CandidateAlgorithms(CollectiveOp::kAllReduce, topo);
    spec.algorithm = candidates[static_cast<std::size_t>(j) %
                                candidates.size()];
    spec.options = DefaultCompileOptions(BackendKind::kResCCL);
    spec.launch.buffer = Size::MiB(16);
    jobs.push_back(std::move(spec));
  }

  const CoRunReport serial = RunConcurrently(jobs, topo, nullptr, 1);
  const CoRunReport parallel = RunConcurrently(jobs, topo, nullptr, 8);
  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  EXPECT_EQ(serial.merged.elapsed, parallel.merged.elapsed);
  for (std::size_t j = 0; j < serial.jobs.size(); ++j) {
    EXPECT_EQ(serial.jobs[j].co_run, parallel.jobs[j].co_run) << j;
    EXPECT_EQ(serial.jobs[j].isolated, parallel.jobs[j].isolated) << j;
    EXPECT_EQ(serial.jobs[j].verified, parallel.jobs[j].verified) << j;
  }
}

}  // namespace
}  // namespace resccl
