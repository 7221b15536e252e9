// Tests for the trace exporter and the algorithm auto-selector.
#include <gtest/gtest.h>

#include "algorithms/hierarchical.h"
#include "json_checker.h"
#include "runtime/selector.h"
#include "runtime/trace.h"
#include "sim/faults.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using tests::CountOccurrences;
using tests::JsonChecker;

TEST(TraceTest, ExportsValidSkeleton) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const CompiledCollective compiled =
      Compile(algo, topo, DefaultCompileOptions(BackendKind::kResCCL)).value();
  const CostModel cost;
  LaunchConfig launch;
  launch.buffer = Size::MiB(32);
  const LoweredProgram lowered = Lower(compiled, cost, launch);
  SimMachine machine(topo, cost);
  const SimRunReport report = machine.Run(lowered.program);

  const std::string json = ExportChromeTrace(compiled, lowered, report);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // Process metadata for every rank.
  for (Rank r = 0; r < topo.nranks(); ++r) {
    EXPECT_NE(json.find("\"name\":\"rank " + std::to_string(r) + "\""),
              std::string::npos);
  }
  // Every transfer appears twice (sender + receiver rows). Zero-duration
  // transfers surface as instant events instead of slices, so the count
  // parity holds over slices + instants regardless of durations.
  const std::size_t slices = CountOccurrences(json, "\"ph\":\"X\"");
  const std::size_t instants = CountOccurrences(json, "\"ph\":\"i\"");
  EXPECT_EQ(slices, 2 * report.transfers.size());
  EXPECT_EQ(slices + instants, 2 * report.transfers.size());
  EXPECT_NE(json.find("rrc"), std::string::npos);
  EXPECT_NE(json.find("\"wave\":"), std::string::npos);
}

// Structural properties of the export: the whole document parses as JSON,
// every TB owns a named row, and fault stalls surface as their own phase —
// present exactly when the run was faulted. No goldens.
TEST(TraceTest, StructuralJsonWithFaultStallRows) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const CompiledCollective compiled =
      Compile(algo, topo, DefaultCompileOptions(BackendKind::kResCCL)).value();
  const CostModel cost;
  LaunchConfig launch;
  launch.buffer = Size::MiB(32);
  const LoweredProgram lowered = Lower(compiled, cost, launch);

  // Every TB stalls once: probability 1 keeps the check deterministic
  // without depending on how a particular seed lands.
  FaultPlan faults;
  faults.SetStragglers(/*probability=*/1.0, /*max_stall=*/SimTime::Us(80));
  ASSERT_FALSE(faults.empty());

  SimMachine machine(topo, cost);
  const SimRunReport clean = machine.Run(lowered.program);
  const SimRunReport faulted = machine.Run(lowered.program, &faults);
  ASSERT_TRUE(clean.stalls.empty());
  ASSERT_EQ(faulted.stalls.size(), lowered.program.tbs.size());

  const std::string clean_json = ExportChromeTrace(compiled, lowered, clean);
  const std::string fault_json = ExportChromeTrace(compiled, lowered, faulted);

  EXPECT_TRUE(JsonChecker(clean_json).Valid());
  EXPECT_TRUE(JsonChecker(fault_json).Valid());

  // One named row per TB in both documents.
  EXPECT_EQ(CountOccurrences(clean_json, "\"thread_name\""),
            lowered.program.tbs.size());
  EXPECT_EQ(CountOccurrences(fault_json, "\"thread_name\""),
            lowered.program.tbs.size());

  // Stall slices appear as their own phase, only on the faulted run.
  EXPECT_EQ(CountOccurrences(clean_json, "fault_stall"), 0u);
  EXPECT_EQ(CountOccurrences(fault_json, "\"name\":\"fault-stall\""),
            faulted.stalls.size());
  EXPECT_EQ(CountOccurrences(fault_json, "\"phase\":\"fault_stall\""),
            faulted.stalls.size());
}

TEST(TraceTest, JsonCheckerRejectsMalformedDocuments) {
  EXPECT_TRUE(JsonChecker(R"([{"a":1,"b":[true,null,"x"]}])").Valid());
  EXPECT_FALSE(JsonChecker(R"([{"a":1,)").Valid());
  EXPECT_FALSE(JsonChecker(R"([1,2,]")").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a" 1})").Valid());
  EXPECT_FALSE(JsonChecker("[] trailing").Valid());
}

TEST(SelectorTest, CandidatesCoverEveryCollective) {
  const Topology topo(presets::A100(2, 8));
  for (CollectiveOp op :
       {CollectiveOp::kAllGather, CollectiveOp::kReduceScatter,
        CollectiveOp::kAllReduce, CollectiveOp::kBroadcast,
        CollectiveOp::kReduce}) {
    const auto candidates = CandidateAlgorithms(op, topo);
    EXPECT_GE(candidates.size(), 2u) << CollectiveOpName(op);
    for (const Algorithm& a : candidates) {
      EXPECT_TRUE(a.Validate().ok()) << a.name;
      EXPECT_EQ(a.collective, op) << a.name;
    }
  }
}

TEST(SelectorTest, PowerOfTwoOnlyCandidatesSkipped) {
  TopologySpec spec = presets::A100(3, 4);  // 12 ranks
  const Topology topo(spec);
  for (const Algorithm& a :
       CandidateAlgorithms(CollectiveOp::kAllReduce, topo)) {
    EXPECT_EQ(a.name.find("rhd"), std::string::npos);
  }
}

TEST(SelectorTest, PicksFastestAndSortsScoreboard) {
  const Topology topo(presets::A100(2, 8));
  RunRequest request;
  request.launch.buffer = Size::MiB(256);
  const SelectionResult sel =
      SelectAlgorithm(CollectiveOp::kAllGather, topo, BackendKind::kResCCL,
                      request);
  ASSERT_GE(sel.scoreboard.size(), 3u);
  EXPECT_EQ(sel.algorithm.name, sel.scoreboard.front().name);
  for (std::size_t i = 1; i < sel.scoreboard.size(); ++i) {
    EXPECT_LE(sel.scoreboard[i - 1].elapsed, sel.scoreboard[i].elapsed);
  }
  // At a bandwidth-heavy size on this topology the hierarchical mesh wins.
  EXPECT_EQ(sel.algorithm.name, "hm_allgather");
}

// Selecting at several sizes through one shared cache compiles each
// candidate once, and each selection matches a cacheless one at that size,
// serially and on the pool.
TEST(SelectorTest, SharedCachePreparesEachCandidateOnce) {
  const Topology topo(presets::A100(2, 8));
  const std::vector<Size> sizes = {Size::MiB(8), Size::MiB(128),
                                   Size::MiB(1024)};
  const std::size_t ncandidates =
      CandidateAlgorithms(CollectiveOp::kAllReduce, topo).size();
  ASSERT_GE(ncandidates, 2u);
  const auto select = [&](Size size, PlanCache* cache, int jobs) {
    RunRequest at;
    at.launch.buffer = size;
    return SelectAlgorithm(CollectiveOp::kAllReduce, topo, BackendKind::kResCCL,
                           at, cache, jobs);
  };
  std::vector<SelectionResult> solo;
  for (const Size size : sizes) solo.push_back(select(size, nullptr, 1));

  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    PlanCache cache;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const SelectionResult shared = select(sizes[i], &cache, jobs);
      EXPECT_EQ(shared.algorithm.name, solo[i].algorithm.name);
      EXPECT_EQ(shared.report.elapsed, solo[i].report.elapsed);
    }
    EXPECT_EQ(cache.stats().misses, ncandidates);
    EXPECT_EQ(cache.stats().hits, (sizes.size() - 1) * ncandidates);

    // A second pass through the same cache compiles nothing.
    (void)select(sizes.back(), &cache, jobs);
    EXPECT_EQ(cache.stats().misses, ncandidates);
  }
}

TEST(SelectorTest, RootedBroadcastScoreboard) {
  // Chunk-pipelined chains amortize depth, so the chain dominates the
  // binomial tree once micro-batches stream (the tree re-sends the whole
  // buffer per level). Both candidates must be scored.
  const Topology topo(presets::A100(2, 8));
  RunRequest large;
  large.launch.buffer = Size::MiB(512);
  const SelectionResult l =
      SelectAlgorithm(CollectiveOp::kBroadcast, topo, BackendKind::kResCCL,
                      large);
  EXPECT_EQ(l.algorithm.name, "chain_broadcast");
  ASSERT_EQ(l.scoreboard.size(), 2u);
  EXPECT_EQ(l.scoreboard[1].name, "binomial_broadcast");
  EXPECT_GT(l.scoreboard[0].gbps, l.scoreboard[1].gbps);
}

}  // namespace
}  // namespace resccl
