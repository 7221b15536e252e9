// Property suite for the static plan verifier (analysis/analyzer.h).
//
// Soundness direction: every library algorithm x backend compiles to a plan
// the analyzer certifies clean, and every certified plan really completes in
// SimMachine. Completeness direction: seeded corruptions — a rendezvous
// cycle, a dropped hazard edge, a swapped rendezvous side, an illegal TB
// merge, a flipped reduction op — are each flagged with the right rule_id
// and a usable witness.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "algo_cases.h"
#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "analysis/analyzer.h"
#include "runtime/backend.h"
#include "runtime/lowering.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using tests::AlgoCase;
using tests::AlgorithmCases;

bool HasRule(const AnalysisReport& report, const char* rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule_id == rule; });
}

std::string RulesOf(const AnalysisReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += "[" + d.rule_id + "] " + d.location + ": " + d.witness + "\n";
  }
  return out;
}

class AnalyzerSoundness
    : public ::testing::TestWithParam<std::tuple<AlgoCase, BackendKind>> {
};

// Certified-clean plans complete: 20 algorithms x 3 backends. The analyzer
// must pass every library plan with the tb-merge rule armed, and the
// certificate must be backed by an actual terminating simulation.
TEST_P(AnalyzerSoundness, CleanPlansComplete) {
  const auto& [algo_case, backend] = GetParam();
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algo_case.make(topo);
  const PreparedPlan prepared = Prepare(algo, topo, backend).value();

  const AnalysisReport report = AnalyzePlan(prepared->plan, &topo);
  EXPECT_TRUE(report.clean()) << RulesOf(report);
  EXPECT_TRUE(report.tb_merge_checked);
  EXPECT_GT(report.analysis_us, 0.0);

  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  request.launch.chunk = Size::KiB(128);
  const CollectiveReport run = Execute(*prepared, request);
  EXPECT_GT(run.sim.makespan.us(), 0.0);
}

// Strict-mode Prepare accepts the same plans and accounts its time.
TEST_P(AnalyzerSoundness, StrictPrepareAccepts) {
  const auto& [algo_case, backend] = GetParam();
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algo_case.make(topo);
  CompileOptions options = DefaultCompileOptions(backend);
  options.strict_verify = true;
  const Result<PreparedPlan> prepared =
      Prepare(algo, topo, options, BackendName(backend));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_GT(prepared.value()->plan.stats.verify_us, 0.0);
}

std::string AnalyzerSoundnessName(
    const ::testing::TestParamInfo<std::tuple<AlgoCase, BackendKind>>&
        info) {
  const auto& [a, b] = info.param;
  return std::string(a.name) + "_" + BackendName(b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnalyzerSoundness,
    ::testing::Combine(::testing::ValuesIn(AlgorithmCases()),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike)),
    AnalyzerSoundnessName);

// The N-level composed plans go through the same lint: on a four-level
// RailClos fabric every composed collective (default, all-ring, all-tree,
// coarse-chunk) must be certified clean across the backend personalities
// and back the certificate with a terminating simulation. These are the
// deepest dependency chains the composer can emit — exactly where a
// missed hazard edge or rendezvous mismatch would hide.
TEST(AnalyzerComposition, ComposedPlansAnalyzeCleanOnRailClos) {
  const Topology topo(presets::RailClos(8, 4, 2, 4));
  std::vector<std::pair<std::string, Algorithm>> cases;
  cases.emplace_back("default", algorithms::ComposedAllReduce(topo));
  cases.emplace_back("rs", algorithms::ComposedReduceScatter(topo));
  cases.emplace_back("ag", algorithms::ComposedAllGather(topo));
  algorithms::CompositionSpec rings;
  rings.primitives.assign(4, algorithms::LevelPrimitive::kRing);
  cases.emplace_back("rings", algorithms::ComposedAllReduce(topo, rings));
  algorithms::CompositionSpec coarse;
  coarse.chunks = topo.gpus_per_node();
  cases.emplace_back("coarse", algorithms::ComposedAllReduce(topo, coarse));

  for (const auto& [label, algo] : cases) {
    for (const BackendKind backend :
         {BackendKind::kResCCL, BackendKind::kMscclLike}) {
      const PreparedPlan prepared = Prepare(algo, topo, backend).value();
      const AnalysisReport report = AnalyzePlan(prepared->plan, &topo);
      EXPECT_TRUE(report.clean())
          << label << "/" << BackendName(backend) << "\n" << RulesOf(report);
      EXPECT_TRUE(report.tb_merge_checked);

      RunRequest request;
      request.launch.buffer = Size::MiB(4);
      const CollectiveReport run = Execute(*prepared, request);
      EXPECT_GT(run.sim.makespan.us(), 0.0) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Completeness: seeded corruptions hit the right rule.
// ---------------------------------------------------------------------------

CompiledCollective CompileFor(const Algorithm& algo, const Topology& topo,
                              BackendKind kind = BackendKind::kResCCL) {
  return Prepare(algo, topo, kind).value()->plan;
}

// A two-rank program where each TB posts its recv before its send: both
// receivers park first in FIFO order, neither sender is ever issued. The
// classic rendezvous deadlock — undetectable by structure checks alone,
// since both sides of both transfers exist.
SimProgram RecvBeforeSendProgram() {
  SimProgram p;
  SimTransferDecl t0;  // r0 -> r1
  t0.src = 0;
  t0.dst = 1;
  t0.bytes = 1024;
  SimTransferDecl t1 = t0;  // r1 -> r0
  t1.src = 1;
  t1.dst = 0;
  p.AddTransfer(t0);
  p.AddTransfer(t1);
  SimTb tb0;
  tb0.rank = 0;
  tb0.program = {SimInstr{SimInstr::Kind::kRecvSide, 1, -1, {}},
                 SimInstr{SimInstr::Kind::kSendSide, 0, -1, {}}};
  SimTb tb1;
  tb1.rank = 1;
  tb1.program = {SimInstr{SimInstr::Kind::kRecvSide, 0, -1, {}},
                 SimInstr{SimInstr::Kind::kSendSide, 1, -1, {}}};
  p.tbs = {tb0, tb1};
  return p;
}

TEST(AnalyzerCompleteness, SeededDeadlockIsFlaggedWithWitness) {
  const Topology topo(presets::A100(1, 2));
  const CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(2), topo);

  LoweredProgram lowered;
  lowered.program = RecvBeforeSendProgram();
  const AnalysisReport report = AnalyzePlan(plan, lowered, &topo);

  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(HasRule(report, rules::kDeadlock)) << RulesOf(report);
  EXPECT_FALSE(HasRule(report, rules::kRendezvous)) << RulesOf(report);
  const auto it = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.rule_id == rules::kDeadlock; });
  ASSERT_NE(it, report.diagnostics.end());
  EXPECT_EQ(it->location, "wait-for graph");
  // The witness names both parked transfers and the edges between them.
  EXPECT_NE(it->witness.find("transfer#0(r0->r1)"), std::string::npos)
      << it->witness;
  EXPECT_NE(it->witness.find("transfer#1(r1->r0)"), std::string::npos)
      << it->witness;
  EXPECT_NE(it->witness.find("program order"), std::string::npos)
      << it->witness;
}

// Satellite: the dynamic detector reports the same stuck state in the same
// wait-for vocabulary, carried on a structured Status instead of a bare
// string — so static prediction and dynamic observation can be diffed.
TEST(AnalyzerCompleteness, SimMachineDeadlockReportMatchesVocabulary) {
  const Topology topo(presets::A100(1, 2));
  const CostModel cost;
  SimMachine machine(topo, cost);
  try {
    (void)machine.Run(RecvBeforeSendProgram());
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.report().status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(e.report().witness.find("transfer#"), std::string::npos)
        << e.report().witness;
    EXPECT_EQ(e.report().stuck_transfers.size(), 2u);
    // Still catchable as std::runtime_error with the witness in what().
    EXPECT_NE(std::string(e.what()).find("transfer#"), std::string::npos);
  }
}

TEST(AnalyzerCompleteness, DroppedHazardEdgeIsFlagged) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(topo.nranks()), topo);

  bool flagged = false;
  for (std::size_t t = 0; t < plan.preds.size() && !flagged; ++t) {
    for (std::size_t k = 0; k < plan.preds[t].size() && !flagged; ++k) {
      CompiledCollective mutant = plan;
      auto& preds = mutant.preds[t];
      preds.erase(preds.begin() + static_cast<std::ptrdiff_t>(k));
      const AnalysisReport report = AnalyzePlan(mutant, &topo);
      if (report.clean()) continue;  // edge was transitively implied
      EXPECT_TRUE(HasRule(report, rules::kHazard)) << RulesOf(report);
      flagged = true;
      const auto it = std::find_if(
          report.diagnostics.begin(), report.diagnostics.end(),
          [](const Diagnostic& d) { return d.rule_id == rules::kHazard; });
      ASSERT_NE(it, report.diagnostics.end());
      // The witness names the hazard class and both unordered tasks.
      EXPECT_NE(it->witness.find("hazard on chunk"), std::string::npos)
          << it->witness;
      EXPECT_NE(it->witness.find("task#"), std::string::npos) << it->witness;
    }
  }
  EXPECT_TRUE(flagged)
      << "no dropped dependency edge produced a hazard diagnostic";
}

TEST(AnalyzerCompleteness, SwappedRendezvousSideIsFlagged) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(topo.nranks()), topo);
  const CostModel cost;
  LaunchConfig launch;
  launch.chunk = Size::KiB(64);
  launch.buffer = Size::MiB(1);
  LoweredProgram lowered = Lower(plan, cost, launch);

  // Flip the first send side into a second recv side: its transfer now has
  // no sender and two receivers, one of them on the wrong rank.
  bool mutated = false;
  for (SimTb& tb : lowered.program.tbs) {
    for (SimInstr& instr : tb.program) {
      if (instr.kind == SimInstr::Kind::kSendSide) {
        instr.kind = SimInstr::Kind::kRecvSide;
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated);

  const AnalysisReport report = AnalyzePlan(plan, lowered, &topo);
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(HasRule(report, rules::kRendezvous)) << RulesOf(report);
  bool saw_no_sender = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == rules::kRendezvous &&
        d.witness.find("no sender joined") != std::string::npos) {
      saw_no_sender = true;
    }
  }
  EXPECT_TRUE(saw_no_sender) << RulesOf(report);
}

TEST(AnalyzerCompleteness, IllegalTbMergeIsFlagged) {
  const Topology topo(presets::A100(2, 4));
  // State-based allocation already merged everything legally mergeable, so
  // any further merge of two same-rank TBs must overlap two streams.
  const CompiledCollective plan =
      CompileFor(algorithms::HierarchicalMeshAllReduce(topo), topo,
                 BackendKind::kResCCL);

  int a = -1;
  int b = -1;
  for (std::size_t i = 0; i < plan.tbs.tbs.size() && a < 0; ++i) {
    for (std::size_t j = i + 1; j < plan.tbs.tbs.size(); ++j) {
      if (plan.tbs.tbs[i].rank == plan.tbs.tbs[j].rank) {
        a = static_cast<int>(i);
        b = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(a, 0) << "expected some rank with two TBs";

  CompiledCollective mutant = plan;
  auto& tbs = mutant.tbs.tbs;
  const auto bi = static_cast<std::size_t>(b);
  const auto ai = static_cast<std::size_t>(a);
  for (const TbTaskRef& ref : tbs[bi].refs) {
    auto& table = ref.dir == Direction::kSend ? mutant.tbs.send_tb
                                              : mutant.tbs.recv_tb;
    table[static_cast<std::size_t>(ref.task.value)] = a;
    tbs[ai].refs.push_back(ref);
  }
  tbs.erase(tbs.begin() + b);
  for (auto* table : {&mutant.tbs.send_tb, &mutant.tbs.recv_tb}) {
    for (int& tb : *table) {
      if (tb > b) --tb;
    }
  }

  const AnalysisReport report = AnalyzePlan(mutant, &topo);
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(HasRule(report, rules::kTbMerge)) << RulesOf(report);
  const auto it = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.rule_id == rules::kTbMerge; });
  ASSERT_NE(it, report.diagnostics.end());
  EXPECT_EQ(it->location, "tb#" + std::to_string(a));
  EXPECT_NE(it->witness.find("Eq. 7"), std::string::npos) << it->witness;
}

TEST(AnalyzerCompleteness, FlippedReductionOpBreaksPostcondition) {
  const Topology topo(presets::A100(2, 4));
  CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(topo.nranks()), topo);

  // A gather that suddenly reduces accumulates a foreign contribution; the
  // hazard sweep is op-agnostic, so only the postcondition rule can see it.
  plan.algo.transfers.front().op = TransferOp::kRecvReduceCopy;
  const AnalysisReport report = AnalyzePlan(plan, &topo);
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(HasRule(report, rules::kPostcondition)) << RulesOf(report);
  EXPECT_FALSE(HasRule(report, rules::kHazard)) << RulesOf(report);
  EXPECT_FALSE(HasRule(report, rules::kDeadlock)) << RulesOf(report);
}

// The per-(rank, peer) channel pool must hold one stream per stage: the
// MSCCL-like backend runs two stages, so a one-channel pool overflows on
// every ring edge.
TEST(AnalyzerCompleteness, ChannelPoolOverflowIsFlagged) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan = CompileFor(
      algorithms::RingAllGather(topo.nranks()), topo, BackendKind::kMscclLike);
  ASSERT_EQ(plan.options.mode, ExecutionMode::kStageLevel);
  ASSERT_GE(PlanStages(plan), 2);
  EXPECT_TRUE(AnalyzePlan(plan, &topo).clean());

  TopologySpec spec = presets::A100(2, 4);
  spec.channels_per_peer = 1;
  const Topology one_channel(spec);
  const AnalysisReport report = AnalyzePlan(plan, &one_channel);
  ASSERT_FALSE(report.clean());
  const auto it = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.rule_id == rules::kChannelCapacity; });
  ASSERT_NE(it, report.diagnostics.end()) << RulesOf(report);
  EXPECT_EQ(it->location, "r0");
  EXPECT_EQ(it->witness,
            "send r0->r1 opens 2 streams (one per stage) but the per-peer "
            "channel pool holds only 1");
}

// A task's stage is its chunk mod the plan's stage count, so a stage-level
// plan with no stages is a structure diagnostic raised before any rule
// derives a stage, and Lower refuses it with a check, never a division by
// zero.
TEST(AnalyzerCompleteness, StageLevelPlanWithoutStagesIsStructural) {
  const Topology topo(presets::A100(2, 4));
  CompiledCollective plan = CompileFor(
      algorithms::RingAllGather(topo.nranks()), topo, BackendKind::kMscclLike);
  ASSERT_EQ(plan.options.mode, ExecutionMode::kStageLevel);
  plan.options.nstages = 0;
  AnalysisReport report;
  ASSERT_NO_THROW(report = AnalyzePlan(plan, &topo));
  const auto it = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.rule_id == rules::kStructure; });
  ASSERT_NE(it, report.diagnostics.end()) << RulesOf(report);
  EXPECT_EQ(it->location, "nstages");
  EXPECT_EQ(it->witness, "plan declares 0 stages; at least one is required");

  const CostModel cost;
  LaunchConfig launch;
  launch.chunk = Size::KiB(1);
  launch.buffer = Size::KiB(2 * plan.algo.nchunks);
  EXPECT_THROW((void)Lower(plan, cost, launch), std::logic_error);
}

// A lowered program whose dependency CSR is malformed is a structure
// diagnostic: no rule reads it and nothing throws.
TEST(AnalyzerCompleteness, MalformedDependencyCsrIsStructural) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(topo.nranks()), topo);
  const CostModel cost;
  LaunchConfig launch;
  launch.chunk = Size::KiB(64);
  launch.buffer = Size::MiB(1);
  const LoweredProgram good = Lower(plan, cost, launch);
  ASSERT_FALSE(good.program.deps.empty());

  LoweredProgram truncated = good;
  truncated.program.dep_begin.pop_back();
  const AnalysisReport short_report = AnalyzePlan(plan, truncated, &topo);
  ASSERT_FALSE(short_report.clean());
  EXPECT_EQ(short_report.diagnostics.front().rule_id, rules::kStructure);
  EXPECT_EQ(short_report.diagnostics.front().location, "deps");
  EXPECT_NE(short_report.diagnostics.front().witness.find("dependency offsets"),
            std::string::npos)
      << RulesOf(short_report);
  EXPECT_FALSE(HasRule(short_report, rules::kDeadlock))
      << RulesOf(short_report);

  LoweredProgram out_of_range = good;
  out_of_range.program.deps.front() =
      static_cast<int>(good.program.transfers.size()) + 5;
  const AnalysisReport range_report = AnalyzePlan(plan, out_of_range, &topo);
  ASSERT_FALSE(range_report.clean());
  EXPECT_TRUE(std::any_of(
      range_report.diagnostics.begin(), range_report.diagnostics.end(),
      [](const Diagnostic& d) {
        return d.rule_id == rules::kStructure &&
               d.witness.find("out of range") != std::string::npos;
      }))
      << RulesOf(range_report);
  EXPECT_FALSE(HasRule(range_report, rules::kDeadlock))
      << RulesOf(range_report);
}

// Steps much sparser than the task count take the (chunk, step) order's
// comparison-sort path. Spreading every step apart must keep each verdict
// and location of the hazard and postcondition rules.
TEST(AnalyzerCompleteness, SparseStepsKeepEveryVerdict) {
  const Topology topo(presets::A100(2, 4));
  // HM AllReduce lists a chunk's tasks out of step order, so the order
  // must really sort them.
  CompiledCollective plan =
      CompileFor(algorithms::HierarchicalMeshAllReduce(topo), topo);
  for (std::size_t t = 0; t < plan.preds.size(); t += 3) {
    if (!plan.preds[t].empty()) plan.preds[t].erase(plan.preds[t].begin());
  }
  Transfer& front = plan.algo.transfers.front();
  front.op = front.op == TransferOp::kRecv ? TransferOp::kRecvReduceCopy
                                           : TransferOp::kRecv;
  const AnalysisReport dense = AnalyzePlan(plan, &topo);
  ASSERT_TRUE(HasRule(dense, rules::kHazard)) << RulesOf(dense);
  ASSERT_TRUE(HasRule(dense, rules::kPostcondition)) << RulesOf(dense);

  for (Transfer& t : plan.algo.transfers) t.step *= 100000;
  const AnalysisReport sparse = AnalyzePlan(plan, &topo);
  ASSERT_EQ(sparse.diagnostics.size(), dense.diagnostics.size())
      << RulesOf(sparse);
  for (std::size_t i = 0; i < dense.diagnostics.size(); ++i) {
    EXPECT_EQ(sparse.diagnostics[i].rule_id, dense.diagnostics[i].rule_id);
    EXPECT_EQ(sparse.diagnostics[i].location, dense.diagnostics[i].location);
  }
}

// Same-step tasks are concurrent: in a two-rank exchange AllReduce both
// ranks read their slot before either write lands. A replay that let one
// write feed the other's read would double-count a contribution.
TEST(AnalyzerReplay, SameStepExchangeReadsThePreStepSlots) {
  const Topology topo(presets::A100(1, 2));
  Algorithm algo;
  algo.name = "exchange";
  algo.collective = CollectiveOp::kAllReduce;
  algo.nranks = 2;
  algo.nchunks = 1;
  algo.transfers = {{0, 1, 0, 0, TransferOp::kRecvReduceCopy},
                    {1, 0, 0, 0, TransferOp::kRecvReduceCopy}};
  const AnalysisReport report = AnalyzePlan(CompileFor(algo, topo), &topo);
  EXPECT_TRUE(report.clean()) << RulesOf(report);
}

TEST(AnalyzerCompleteness, WrongRankTbIsStructural) {
  const Topology topo(presets::A100(2, 4));
  CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(topo.nranks()), topo);
  // Move a TB to the wrong GPU: SimMachine would only find out via an
  // internal-invariant throw; the analyzer reports it as a diagnostic.
  plan.tbs.tbs.front().rank =
      (plan.tbs.tbs.front().rank + 1) % plan.algo.nranks;
  const AnalysisReport report = AnalyzePlan(plan, &topo);
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(HasRule(report, rules::kStructure)) << RulesOf(report);
}

TEST(AnalyzerReportTest, JsonIsWellFormedAndStable) {
  const Topology topo(presets::A100(1, 2));
  const CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(2), topo);
  const AnalysisReport report = AnalyzePlan(plan, &topo);
  const std::string json = AnalysisReportToJson(report);
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tb_merge_checked\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"diagnostics\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule_us\":{\"structure\":"), std::string::npos)
      << json;
}

TEST(AnalyzerReportTest, RuleTimesCoverEveryCheckInRunOrder) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan =
      CompileFor(algorithms::RingAllGather(8), topo);
  const AnalysisReport report = AnalyzePlan(plan, &topo);
  ASSERT_TRUE(report.clean()) << RulesOf(report);
  // The lowered-program structure pass reports as `structure` but is timed
  // under its own key.
  const std::vector<std::string> expected = {
      rules::kStructure,   rules::kHazard,     rules::kPostcondition,
      "lowered-structure", rules::kRendezvous, rules::kDeadlock,
      rules::kTbMerge,     rules::kChannelCapacity};
  std::vector<std::string> order;
  double sum_us = 0;
  for (const RuleTime& t : report.rule_us) {
    order.emplace_back(t.rule);
    EXPECT_GE(t.us, 0.0) << t.rule;
    sum_us += t.us;
  }
  // The canonical lowering runs right after the structure pass.
  std::vector<std::string> with_lower = expected;
  with_lower.insert(with_lower.begin() + 1, "lower");
  EXPECT_EQ(order, with_lower);
  EXPECT_LE(sum_us, report.analysis_us);

  // Against a caller-supplied lowering there is no canonical Lower.
  const CostModel cost;
  LaunchConfig launch;
  launch.chunk = Size::KiB(1);
  launch.buffer = Size::KiB(2 * plan.algo.nchunks);
  const AnalysisReport given =
      AnalyzePlan(plan, Lower(plan, cost, launch), &topo);
  order.clear();
  for (const RuleTime& t : given.rule_us) order.emplace_back(t.rule);
  EXPECT_EQ(order, expected);

  const std::string json = AnalysisReportToJson(report);
  EXPECT_NE(json.find("\"rule_us\":{\"structure\":"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"channel-capacity\":"), std::string::npos) << json;
}

TEST(AnalyzerReportTest, SummaryLeadsWithFirstError) {
  const Topology topo(presets::A100(1, 2));
  CompiledCollective plan = CompileFor(algorithms::RingAllGather(2), topo);
  plan.preds.pop_back();  // missized dependency table
  const AnalysisReport report = AnalyzePlan(plan, &topo);
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("error(s)"), std::string::npos);
  EXPECT_NE(report.Summary().find("[structure]"), std::string::npos);
}

// Only a strict-mode Prepare runs the analyzer, so only it records
// CompileStats::verify_us. Rejection of an unsafe plan is covered on the
// `resccl lint` path (LoadPlan + AnalyzePlan) in test_plan_io.cc.
TEST(AnalyzerReportTest, VerifyTimeIsRecordedOnlyInStrictMode) {
  const Topology topo(presets::A100(1, 2));
  const Algorithm algo = algorithms::RingAllGather(2);
  CompileOptions options = DefaultCompileOptions(BackendKind::kResCCL);
  const PreparedPlan relaxed =
      Prepare(algo, topo, options, "relaxed").value();
  EXPECT_EQ(relaxed->plan.stats.verify_us, 0.0);
  options.strict_verify = true;
  const PreparedPlan strict = Prepare(algo, topo, options, "strict").value();
  EXPECT_GT(strict->plan.stats.verify_us, 0.0);
  // verify_us rides alongside the Fig. 10(a) phases, never inside them.
  EXPECT_EQ(strict->plan.stats.total_us(),
            strict->plan.stats.analysis_us + strict->plan.stats.scheduling_us +
                strict->plan.stats.allocation_us +
                strict->plan.stats.lowering_us);
}

}  // namespace
}  // namespace resccl
