// Property suite for the static optimality analyzer (analysis/bounds.h,
// analysis/perf_rules.h). The load-bearing invariant is soundness: across
// every library algorithm × backend × topology, no clean simulated run
// finishes faster than ComputeLowerBound() says is possible. On the
// homogeneous single node the bandwidth bound must also be *exact*: equal
// to the textbook 2(n-1)/n · S/B AllReduce time to 1e-9 relative.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "algo_cases.h"
#include "algorithms/ring.h"
#include "analysis/analyzer.h"
#include "analysis/bounds.h"
#include "analysis/perf_rules.h"
#include "json_checker.h"
#include "runtime/backend.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using tests::AlgoCase;
using tests::AlgorithmCases;
using tests::JsonChecker;
using tests::TopoCase;
using tests::TopoCases;

class BoundSoundness
    : public ::testing::TestWithParam<
          std::tuple<AlgoCase, BackendKind, TopoCase>> {};

// 20 algorithms × 3 backends × 3 topologies: the simulator may never beat
// the bound. Combinations an algorithm cannot prepare for (a composition
// that needs hierarchy a flat node lacks, say) are skipped — preparability
// is test_collective_property's job, not this suite's.
TEST_P(BoundSoundness, CleanRunNeverBeatsLowerBound) {
  const auto& [algo_case, backend, topo_case] = GetParam();
  const Topology topo(topo_case.make());
  const Algorithm algo = algo_case.make(topo);
  const Result<PreparedPlan> prepared = Prepare(algo, topo, backend);
  if (!prepared.ok()) {
    GTEST_SKIP() << "not preparable here: " << prepared.status().ToString();
  }

  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  request.launch.chunk = Size::KiB(128);

  const CollectiveReport r = Execute(*prepared.value(), request);
  const BoundReport bound =
      ComputeLowerBound(topo, CostModel{}, algo, request.launch);

  // Structure: combined is the max of its parts, the binding cut leads the
  // sorted cut table, and some cut was evaluated on every multi-rank topo.
  EXPECT_GT(bound.alpha.us(), 0.0);
  EXPECT_GT(bound.bandwidth.us(), 0.0);
  EXPECT_DOUBLE_EQ(bound.combined.us(),
                   std::max(bound.alpha.us(), bound.bandwidth.us()));
  ASSERT_FALSE(bound.cuts.empty());
  EXPECT_EQ(bound.binding_cut, bound.cuts.front().name);
  EXPECT_DOUBLE_EQ(bound.bandwidth.us(), bound.cuts.front().time.us());

  // Soundness: the clean run takes at least the bound (1e-9 relative slack
  // for float accumulation), so percent-of-optimal never exceeds 100.
  EXPECT_GE(r.elapsed.us(), bound.combined.us() * (1.0 - 1e-9))
      << "algorithm " << algo.name << " beat the static bound: "
      << bound.Summary();
  EXPECT_LE(bound.OptimalityPct(r.elapsed), 100.0 + 1e-7);
}

std::string BoundSoundnessName(
    const ::testing::TestParamInfo<std::tuple<AlgoCase, BackendKind, TopoCase>>&
        info) {
  const auto& [a, b, t] = info.param;
  return std::string(a.name) + "_" + BackendName(b) + "_" + t.label;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundSoundness,
    ::testing::Combine(::testing::ValuesIn(AlgorithmCases()),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike),
                       ::testing::ValuesIn(TopoCases())),
    BoundSoundnessName);

// On a homogeneous single node the aggregate-injection cut is exact: the
// AllReduce bandwidth bound equals 2(n-1)/n · S/B with S the effective
// per-rank bytes and B the per-GPU fabric bandwidth — to 1e-9 relative.
TEST(BoundExactness, SingleNodeRingAllreduceMatchesTextbook) {
  const Topology topo(presets::A100(1, 8));
  const int n = topo.nranks();
  CostModel cost;

  for (const Size buffer :
       {Size::MiB(1), Size::MiB(64), Size::MiB(256), Size::MiB(999)}) {
    BoundInput input;
    input.op = CollectiveOp::kAllReduce;
    input.launch.buffer = buffer;
    const BoundReport report = ComputeLowerBound(topo, cost, input);

    const double s_eff =
        static_cast<double>(report.effective_buffer.bytes());
    const double b = topo.spec().gpu_fabric.bytes_per_us();
    const double textbook_us = 2.0 * (n - 1) / n * s_eff / b;
    EXPECT_NEAR(report.bandwidth.us(), textbook_us, textbook_us * 1e-9)
        << "buffer " << buffer.mib() << " MiB";
    EXPECT_EQ(report.binding_cut, "aggregate injection");
  }
}

// The bound grows (weakly) with the payload and never ignores it.
TEST(BoundProperties, MonotoneInBufferSize) {
  const Topology topo(presets::A100(2, 8));
  CostModel cost;
  double prev = 0;
  for (const Size buffer : {Size::MiB(8), Size::MiB(64), Size::MiB(512)}) {
    BoundInput input;
    input.op = CollectiveOp::kAllGather;
    input.launch.buffer = buffer;
    const BoundReport report = ComputeLowerBound(topo, cost, input);
    EXPECT_GT(report.bandwidth.us(), prev);
    prev = report.bandwidth.us();
  }
}

// Low-latency protocols trade startup latency for wire inflation, and the
// bound tracks both sides of that trade: LL shrinks the alpha bound and
// inflates the beta bound by exactly its wire inflation (2x: one flag word
// per payload word), LL128 by 128/120 — evaluated at the same truncated
// per-chunk wire bytes the lowering produces, so the ratios are exact.
TEST(BoundProperties, ProtocolScalesAlphaDownAndBetaToWireBytes) {
  const Topology topo(presets::A100(2, 4));
  CostModel cost;
  BoundInput input;
  input.op = CollectiveOp::kAllReduce;
  input.launch.buffer = Size::MiB(64);

  input.launch.protocol = Protocol::kSimple;
  const BoundReport simple = ComputeLowerBound(topo, cost, input);
  input.launch.protocol = Protocol::kLL;
  const BoundReport ll = ComputeLowerBound(topo, cost, input);
  input.launch.protocol = Protocol::kLL128;
  const BoundReport ll128 = ComputeLowerBound(topo, cost, input);

  EXPECT_EQ(simple.protocol, Protocol::kSimple);
  EXPECT_EQ(ll.protocol, Protocol::kLL);
  EXPECT_EQ(ll128.protocol, Protocol::kLL128);

  EXPECT_LT(ll.alpha.us(), simple.alpha.us());
  EXPECT_LT(ll128.alpha.us(), simple.alpha.us());

  // Beta moves to wire bytes — the *truncated* per-chunk wire bytes the
  // lowering produces, so LL scales exactly 2x (integral) while LL128's
  // ratio is floor(chunk·128/120)/chunk, a hair under 128/120. Using the
  // exact rational here would overstate the bound by more than the
  // soundness slack; this pins that the bound truncates like the lowering.
  const double chunk_bytes = static_cast<double>(input.launch.chunk.bytes());
  const double ll128_ratio =
      std::floor(chunk_bytes * (128.0 / 120.0)) / chunk_bytes;
  EXPECT_NEAR(ll.bandwidth.us(), simple.bandwidth.us() * 2.0,
              simple.bandwidth.us() * 1e-12);
  EXPECT_NEAR(ll128.bandwidth.us(), simple.bandwidth.us() * ll128_ratio,
              simple.bandwidth.us() * 1e-12);
}

// Soundness holds per protocol: under LL and LL128 the simulator carries
// the inflated wire bytes and the extra per-slot synchronization, and the
// bound counts the same — so no protocol lets a clean run beat it, on flat
// and hierarchical fabrics alike.
TEST(BoundProperties, SoundAcrossProtocolsAndTopologies) {
  for (const TopoCase& topo_case : TopoCases()) {
    const Topology topo(topo_case.make());
    const Algorithm algo = algorithms::RingAllGather(topo.nranks());
    const Result<PreparedPlan> prepared =
        Prepare(algo, topo, BackendKind::kResCCL);
    ASSERT_TRUE(prepared.ok()) << topo_case.label;
    for (const Protocol proto :
         {Protocol::kSimple, Protocol::kLL, Protocol::kLL128}) {
      RunRequest request;
      request.launch.buffer = Size::MiB(4);
      request.launch.chunk = Size::KiB(128);
      request.launch.protocol = proto;
      const CollectiveReport r = Execute(*prepared.value(), request);
      const BoundReport bound =
          ComputeLowerBound(topo, CostModel{}, algo, request.launch);
      EXPECT_GE(r.elapsed.us(), bound.combined.us() * (1.0 - 1e-9))
          << topo_case.label << " " << ProtocolName(proto) << ": "
          << bound.Summary();
      EXPECT_LE(bound.OptimalityPct(r.elapsed), 100.0 + 1e-7)
          << topo_case.label << " " << ProtocolName(proto);
    }
  }
}

// The protocol-aware bound is strictly more informative than an alpha-only
// treatment under LL: the wire-inflated beta bound is larger (closer to
// the run), so the reported percent-of-optimal improves while staying
// sound. Pinned on the single-node ring AllReduce the exactness test
// covers for Simple.
TEST(BoundProperties, LlBoundTightensPctOfOptimal) {
  const Topology topo(presets::A100(1, 8));
  const Algorithm algo = algorithms::RingAllReduce(topo.nranks());
  RunRequest request;
  request.launch.buffer = Size::MiB(64);
  request.launch.chunk = Size::MiB(1);
  request.launch.protocol = Protocol::kLL;
  const Result<PreparedPlan> prepared =
      Prepare(algo, topo, BackendKind::kResCCL);
  ASSERT_TRUE(prepared.ok());
  const CollectiveReport r = Execute(*prepared.value(), request);

  CostModel cost;
  const BoundReport wire_aware =
      ComputeLowerBound(topo, cost, algo, request.launch);
  // The alpha-only treatment this replaces: Simple's beta (payload bytes)
  // with LL's alpha.
  LaunchConfig simple_launch = request.launch;
  simple_launch.protocol = Protocol::kSimple;
  const BoundReport payload_beta =
      ComputeLowerBound(topo, cost, algo, simple_launch);
  const double alpha_only =
      std::max(wire_aware.alpha.us(), payload_beta.bandwidth.us());

  EXPECT_GT(wire_aware.combined.us(), alpha_only);
  EXPECT_GE(r.elapsed.us(), wire_aware.combined.us() * (1.0 - 1e-9));
  EXPECT_GT(wire_aware.OptimalityPct(r.elapsed),
            100.0 * alpha_only / r.elapsed.us());
}

// Rooted collectives bound at the root's boundary: a broadcast must emit
// the full payload from the root's egress pool.
TEST(BoundProperties, RootedCollectivesUseRootCut) {
  const Topology topo(presets::A100(1, 8));
  CostModel cost;
  BoundInput input;
  input.op = CollectiveOp::kBroadcast;
  input.launch.buffer = Size::MiB(64);
  input.root = 3;
  const BoundReport report = ComputeLowerBound(topo, cost, input);
  // n-1 of n chunk classes cross rank 3's egress; every cut mentions a
  // real resource family.
  EXPECT_GT(report.bandwidth.us(), 0.0);
  bool saw_root_cut = false;
  for (const CutBound& c : report.cuts) {
    if (c.name.find("rank3") != std::string::npos) saw_root_cut = true;
  }
  EXPECT_TRUE(saw_root_cut);
}

TEST(BoundProperties, SingleRankIsFree) {
  const Topology topo(presets::A100(1, 1));
  CostModel cost;
  BoundInput input;
  input.op = CollectiveOp::kAllReduce;
  const BoundReport report = ComputeLowerBound(topo, cost, input);
  EXPECT_EQ(report.bandwidth.us(), 0.0);
  EXPECT_EQ(report.binding_cut, "none");
}

// ---- perf rules ----------------------------------------------------------

LaunchConfig SmallLaunch() {
  LaunchConfig launch;
  launch.buffer = Size::MiB(64);
  launch.chunk = Size::MiB(1);
  return launch;
}

// Every perf finding is advisory, the static floor respects the bound, and
// the walk applies whenever the rank counts agree.
TEST(PerfRules, FindingsAreAdvisoryAndFloorRespectsBound) {
  const Topology topo(presets::A100(2, 4));
  for (const AlgoCase& algo_case : AlgorithmCases()) {
    const Algorithm algo = algo_case.make(topo);
    const Result<PreparedPlan> prepared =
        Prepare(algo, topo, BackendKind::kResCCL);
    ASSERT_TRUE(prepared.ok()) << algo_case.name;
    const PerfReport report =
        AnalyzePlanPerf(prepared.value()->plan, topo, SmallLaunch());
    SCOPED_TRACE(algo_case.name);
    ASSERT_TRUE(report.applicable);
    for (const Diagnostic& d : report.diagnostics) {
      EXPECT_EQ(d.severity, DiagSeverity::kAdvice) << d.rule_id;
    }
    // The plan's own static floor can never undercut the plan-independent
    // lower bound's binding cut... once both count the same bytes; the
    // floor charges whole micro-batched transfers, so ≥ is the invariant.
    EXPECT_GE(report.static_floor_us,
              report.bound.bandwidth.us() * (1.0 - 1e-9));
    EXPECT_GT(report.optimality_pct, 0.0);
    EXPECT_LE(report.optimality_pct, 100.0 + 1e-7);
  }
}

TEST(PerfRules, RankMismatchIsInapplicableNotWrong) {
  const Topology eight(presets::A100(2, 4));
  const Topology sixteen(presets::A100(2, 8));
  const Algorithm algo = algorithms::RingAllGather(eight.nranks());
  const Result<PreparedPlan> prepared =
      Prepare(algo, eight, BackendKind::kResCCL);
  ASSERT_TRUE(prepared.ok());
  const PerfReport report =
      AnalyzePlanPerf(prepared.value()->plan, sixteen, SmallLaunch());
  EXPECT_FALSE(report.applicable);
  EXPECT_TRUE(report.diagnostics.empty());
}

// A single-channel ring on a 4-rail fabric leaves rails idle — the
// imbalance the perf pass exists to flag.
TEST(PerfRules, SingleRingOnRailedFabricDrawsAdvice) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::RingAllGather(topo.nranks());
  const Result<PreparedPlan> prepared =
      Prepare(algo, topo, BackendKind::kResCCL);
  ASSERT_TRUE(prepared.ok());
  const PerfReport report =
      AnalyzePlanPerf(prepared.value()->plan, topo, SmallLaunch());
  ASSERT_TRUE(report.applicable);
  EXPECT_FALSE(report.diagnostics.empty());
  bool saw_rail_rule = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == rules::kPerfRailImbalance ||
        d.rule_id == rules::kPerfIdleLink) {
      saw_rail_rule = true;
    }
  }
  EXPECT_TRUE(saw_rail_rule);
}

[[nodiscard]] bool Fires(const PerfReport& report, const char* rule) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == rule) return true;
  }
  return false;
}

// The launch is pipeline-starved below 4 micro-batches, and only when
// halving the chunk would yield more of them.
TEST(PerfRules, PipelineStarvedBelowFourMicrobatches) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::RingAllGather(topo.nranks());
  const Result<PreparedPlan> prepared =
      Prepare(algo, topo, BackendKind::kResCCL);
  ASSERT_TRUE(prepared.ok());
  LaunchConfig launch = SmallLaunch();
  const auto at = [&](int microbatches) {
    launch.buffer = launch.chunk * algo.nchunks * microbatches;
    EXPECT_EQ(launch.MicroBatches(algo.nchunks), microbatches);
    return AnalyzePlanPerf(prepared.value()->plan, topo, launch);
  };
  EXPECT_TRUE(Fires(at(3), rules::kPerfPipelineStarved));
  EXPECT_FALSE(Fires(at(4), rules::kPerfPipelineStarved));
  // At one micro-batch per byte-sized chunk, halving cannot help.
  launch.chunk = Size::Bytes(1);
  EXPECT_FALSE(Fires(at(3), rules::kPerfPipelineStarved));
}

// The bound-gap threshold sits at twice the bound. On a 2:1 oversubscribed
// rail-Clos, a single ring's static floor is 2.14x the bound and draws the
// advice; the multi-channel ring's is 1.875x and does not.
TEST(PerfRules, BoundGapFiresAtTwiceTheBound) {
  const Topology topo(presets::RailClos(8, 2, 2, 4, /*oversubscription=*/2.0));
  const auto report = [&](const Algorithm& algo) {
    const Result<PreparedPlan> prepared =
        Prepare(algo, topo, BackendKind::kResCCL);
    EXPECT_TRUE(prepared.ok());
    return AnalyzePlanPerf(prepared.value()->plan, topo, SmallLaunch());
  };
  const PerfReport ring = report(algorithms::RingAllGather(topo.nranks()));
  EXPECT_GT(ring.static_floor_us, 2.0 * ring.bound.combined.us());
  EXPECT_TRUE(Fires(ring, rules::kPerfBoundGap));
  const PerfReport multi = report(
      algorithms::MultiChannelRingAllReduce(topo, topo.CommChannels()));
  EXPECT_GT(multi.static_floor_us, 1.8 * multi.bound.combined.us());
  EXPECT_LT(multi.static_floor_us, 2.0 * multi.bound.combined.us());
  EXPECT_FALSE(Fires(multi, rules::kPerfBoundGap));
}

// ---- severity plumbing & JSON -------------------------------------------

TEST(AdviceSeverity, AdviceCountsSeparatelyAndStaysClean) {
  AnalysisReport report;
  report.diagnostics.push_back(
      {DiagSeverity::kAdvice, "perf-idle-link", "here", "w"});
  EXPECT_EQ(report.errors(), 0);
  EXPECT_EQ(report.warnings(), 0);
  EXPECT_EQ(report.advice(), 1);
  EXPECT_TRUE(report.clean());

  report.diagnostics.push_back({DiagSeverity::kError, "structure", "x", "w"});
  report.diagnostics.push_back({DiagSeverity::kWarning, "style", "y", "w"});
  EXPECT_EQ(report.errors(), 1);
  EXPECT_EQ(report.warnings(), 1);
  EXPECT_EQ(report.advice(), 1);
  EXPECT_FALSE(report.clean());
  EXPECT_STREQ(DiagSeverityName(DiagSeverity::kAdvice), "advice");
}

TEST(AnalysisJson, AllReportsEmitValidJson) {
  const Topology topo(presets::A100(2, 4));
  CostModel cost;
  BoundInput input;
  input.op = CollectiveOp::kAllReduce;
  const BoundReport bound = ComputeLowerBound(topo, cost, input);
  EXPECT_TRUE(JsonChecker(BoundReportToJson(bound)).Valid());

  const Algorithm algo = algorithms::RingAllGather(topo.nranks());
  const Result<PreparedPlan> prepared =
      Prepare(algo, topo, BackendKind::kResCCL);
  ASSERT_TRUE(prepared.ok());
  const PerfReport perf =
      AnalyzePlanPerf(prepared.value()->plan, topo, SmallLaunch());
  EXPECT_TRUE(JsonChecker(PerfReportToJson(perf)).Valid());

  AnalysisReport analysis;
  analysis.diagnostics.push_back({DiagSeverity::kAdvice, "perf-idle-link",
                                  "gpu0.\"quoted\"", "witness\nnewline"});
  const std::string json = AnalysisReportToJson(analysis);
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"advice\":1"), std::string::npos);
}

}  // namespace
}  // namespace resccl
