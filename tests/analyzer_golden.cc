// Prints every diagnostic the static analyzer (analysis/analyzer.h) emits
// over the algorithm catalog and a fixed set of seeded corruptions, one
// line per diagnostic (severity, rule, location, witness) after one line
// per case with the report's Summary(). The `analyzer_golden` ctest diffs
// this output against tests/golden/analyzer_diagnostics.txt, so any change
// to a rule's verdict, its order or its wording fails it.
//
// Cases: every Catalog() entry at A100 2x4 and 2x8 under the three
// backends, each analyzed clean, against a one-channel pool, and after
// each corruption below; plus the two-rank recv-before-send program.
//
//   analyzer_golden > analyzer_diagnostics.txt
#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>

#include "algorithms/catalog.h"
#include "algorithms/ring.h"
#include "analysis/analyzer.h"
#include "runtime/backend.h"
#include "runtime/lowering.h"

namespace {

using namespace resccl;

void Print(const std::string& label, const AnalysisReport& report) {
  std::printf("%s: %s\n", label.c_str(), report.Summary().c_str());
  for (const Diagnostic& d : report.diagnostics) {
    std::printf("  %s [%s] %s: %s\n", DiagSeverityName(d.severity),
                d.rule_id.c_str(), d.location.c_str(), d.witness.c_str());
  }
}

// The launch AnalyzePlan(plan, topo) lowers with.
LoweredProgram CanonicalLowering(const CompiledCollective& plan) {
  const CostModel cost;
  LaunchConfig launch;
  launch.chunk = Size::KiB(1);
  launch.buffer = Size::KiB(2 * std::max(1, plan.algo.nchunks));
  return Lower(plan, cost, launch);
}

// Drops the first dependency of every third task that has one.
CompiledCollective DropHazardEdges(CompiledCollective plan) {
  for (std::size_t t = 0; t < plan.preds.size(); t += 3) {
    if (!plan.preds[t].empty()) plan.preds[t].erase(plan.preds[t].begin());
  }
  return plan;
}

// Folds the second TB of the first rank holding two into the first one.
CompiledCollective MergeTbs(CompiledCollective plan) {
  auto& tbs = plan.tbs.tbs;
  for (std::size_t a = 0; a < tbs.size(); ++a) {
    for (std::size_t b = a + 1; b < tbs.size(); ++b) {
      if (tbs[a].rank != tbs[b].rank) continue;
      for (const TbTaskRef& ref : tbs[b].refs) {
        auto& table = ref.dir == Direction::kSend ? plan.tbs.send_tb
                                                  : plan.tbs.recv_tb;
        table[static_cast<std::size_t>(ref.task.value)] = static_cast<int>(a);
        tbs[a].refs.push_back(ref);
      }
      tbs.erase(tbs.begin() + static_cast<std::ptrdiff_t>(b));
      for (auto* table : {&plan.tbs.send_tb, &plan.tbs.recv_tb}) {
        for (int& tb : *table) {
          if (tb > static_cast<int>(b)) --tb;
        }
      }
      return plan;
    }
  }
  return plan;
}

void AnalyzeCase(const std::string& label, const CompiledCollective& plan,
                 const Topology& topo, const Topology& one_channel) {
  Print(label + " clean", AnalyzePlan(plan, &topo));
  Print(label + " pool-1", AnalyzePlan(plan, &one_channel));
  Print(label + " drop-hazard-edge", AnalyzePlan(DropHazardEdges(plan), &topo));

  LoweredProgram swapped = CanonicalLowering(plan);
  for (SimTb& tb : swapped.program.tbs) {
    const auto it = std::find_if(
        tb.program.begin(), tb.program.end(), [](const SimInstr& instr) {
          return instr.kind == SimInstr::Kind::kSendSide;
        });
    if (it != tb.program.end()) {
      it->kind = SimInstr::Kind::kRecvSide;
      break;
    }
  }
  Print(label + " swap-rendezvous-side", AnalyzePlan(plan, swapped, &topo));

  LoweredProgram reversed = CanonicalLowering(plan);
  for (SimTb& tb : reversed.program.tbs) {
    std::reverse(tb.program.begin(), tb.program.end());
  }
  Print(label + " reverse-tb-programs", AnalyzePlan(plan, reversed, &topo));

  Print(label + " illegal-tb-merge", AnalyzePlan(MergeTbs(plan), &topo));

  CompiledCollective flipped = plan;
  Transfer& front = flipped.algo.transfers.front();
  front.op = front.op == TransferOp::kRecv ? TransferOp::kRecvReduceCopy
                                           : TransferOp::kRecv;
  Print(label + " flip-reduction-op", AnalyzePlan(flipped, &topo));

  CompiledCollective wrong_rank = plan;
  wrong_rank.tbs.tbs.front().rank =
      (wrong_rank.tbs.tbs.front().rank + 1) % plan.algo.nranks;
  Print(label + " wrong-rank-tb", AnalyzePlan(wrong_rank, &topo));

  CompiledCollective missized = plan;
  missized.preds.pop_back();
  Print(label + " missized-preds", AnalyzePlan(missized, &topo));
}

// Each TB posts its recv before its send: both receivers park first.
SimProgram RecvBeforeSendProgram() {
  SimProgram p;
  SimTransferDecl t0;
  t0.src = 0;
  t0.dst = 1;
  t0.bytes = 1024;
  SimTransferDecl t1 = t0;
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

}  // namespace

int main() {
  for (const auto& [label, nodes, gpus] :
       {std::tuple{"a100_2x4", 2, 4}, std::tuple{"a100_2x8", 2, 8}}) {
    const Topology topo(presets::A100(nodes, gpus));
    TopologySpec one_channel_spec = presets::A100(nodes, gpus);
    one_channel_spec.channels_per_peer = 1;
    const Topology one_channel(one_channel_spec);
    for (const algorithms::CatalogEntry& entry : algorithms::Catalog()) {
      const std::string name = std::string(label) + " " + std::string(entry.name);
      const Result<Algorithm> algo = algorithms::MakeAlgorithm(entry.name, topo);
      if (!algo.ok()) {
        std::printf("%s: %s\n", name.c_str(),
                    algo.status().ToString().c_str());
        continue;
      }
      for (const BackendKind kind :
           {BackendKind::kResCCL, BackendKind::kMscclLike,
            BackendKind::kNcclLike}) {
        const std::string case_label = name + " " + BackendName(kind);
        const Result<PreparedPlan> prepared = Prepare(algo.value(), topo, kind);
        if (!prepared.ok()) {
          std::printf("%s: %s\n", case_label.c_str(),
                      prepared.status().ToString().c_str());
          continue;
        }
        AnalyzeCase(case_label, prepared.value()->plan, topo, one_channel);
      }
    }
  }

  const Topology pair(presets::A100(1, 2));
  const Result<PreparedPlan> ring =
      Prepare(algorithms::RingAllGather(2), pair, BackendKind::kResCCL);
  LoweredProgram lowered;
  lowered.program = RecvBeforeSendProgram();
  Print("a100_1x2 ring_allgather recv-before-send",
        AnalyzePlan(ring.value()->plan, lowered, &pair));
  return 0;
}
