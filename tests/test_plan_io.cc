// Plan serialization tests: round trips, runtime equivalence, corruption
// rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algo_cases.h"
#include "algorithms/hierarchical.h"
#include "analysis/analyzer.h"
#include "core/plan_io.h"
#include "runtime/backend.h"
#include "runtime/lowering.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl {
namespace {

CompiledCollective CompileHm(const Topology& topo) {
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  return Compile(algo, topo, DefaultCompileOptions(BackendKind::kResCCL))
      .value();
}

TEST(PlanIoTest, RoundTripPreservesEverything) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan = CompileHm(topo);
  const std::string text = SavePlanToString(plan);
  const Result<CompiledCollective> loaded = LoadPlanFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CompiledCollective& back = loaded.value();

  EXPECT_EQ(back.algo.name, plan.algo.name);
  EXPECT_EQ(back.algo.collective, plan.algo.collective);
  EXPECT_EQ(back.algo.transfers, plan.algo.transfers);
  EXPECT_EQ(back.options.scheduler, plan.options.scheduler);
  EXPECT_EQ(back.options.mode, plan.options.mode);
  EXPECT_EQ(back.schedule.sub_pipelines, plan.schedule.sub_pipelines);
  EXPECT_EQ(back.preds, plan.preds);
  EXPECT_EQ(back.tbs.send_tb, plan.tbs.send_tb);
  EXPECT_EQ(back.tbs.recv_tb, plan.tbs.recv_tb);
  EXPECT_EQ(back.wave_of_task, plan.wave_of_task);
  // v2 stores a ref as (task, dir); its wave and issue order are derived
  // on load and must match what AllocateTbs numbered.
  ASSERT_EQ(back.tbs.tbs.size(), plan.tbs.tbs.size());
  for (std::size_t i = 0; i < plan.tbs.tbs.size(); ++i) {
    SCOPED_TRACE("tb#" + std::to_string(i));
    const TbPlan::Tb& want = plan.tbs.tbs[i];
    const TbPlan::Tb& got = back.tbs.tbs[i];
    EXPECT_EQ(got.rank, want.rank);
    ASSERT_EQ(got.refs.size(), want.refs.size());
    for (std::size_t k = 0; k < want.refs.size(); ++k) {
      EXPECT_EQ(got.refs[k].task, want.refs[k].task) << "ref " << k;
      EXPECT_EQ(got.refs[k].dir, want.refs[k].dir) << "ref " << k;
      EXPECT_EQ(got.refs[k].wave, want.refs[k].wave) << "ref " << k;
      EXPECT_EQ(got.refs[k].order, want.refs[k].order) << "ref " << k;
    }
  }
}

TEST(PlanIoTest, LoadedPlanExecutesIdentically) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan = CompileHm(topo);
  const CompiledCollective loaded =
      LoadPlanFromString(SavePlanToString(plan)).value();

  const CostModel cost;
  LaunchConfig launch;
  launch.buffer = Size::MiB(64);
  const LoweredProgram a = Lower(plan, cost, launch);
  const LoweredProgram b = Lower(loaded, cost, launch);
  SimMachine machine(topo, cost);
  const SimTime ta = machine.Run(a.program).makespan;
  const SimTime tb = machine.Run(b.program).makespan;
  EXPECT_EQ(ta, tb);
}

// Every library algorithm on every shared fabric under the three backends'
// options — task-, stage- and algorithm-level plans alike — survives
// save → load → save byte for byte, and the loaded plan still passes the
// static verifier, as `resccl lint` requires of a saved artifact.
TEST(PlanIoTest, SecondRoundTripIsIdentityOnText) {
  for (const tests::TopoCase& tc : tests::TopoCases()) {
    const Topology topo(tc.make());
    for (const tests::AlgoCase& ac : tests::AlgorithmCases()) {
      const Algorithm algo = ac.make(topo);
      for (const BackendKind kind :
           {BackendKind::kResCCL, BackendKind::kMscclLike,
            BackendKind::kNcclLike}) {
        SCOPED_TRACE(tc.label + "/" + std::string(ac.name) + "/" + BackendName(kind));
        const std::string once = SavePlanToString(
            Compile(algo, topo, DefaultCompileOptions(kind)).value());
        const Result<CompiledCollective> loaded = LoadPlanFromString(once);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(once, SavePlanToString(loaded.value()));
        const AnalysisReport report = AnalyzePlan(loaded.value(), &topo);
        EXPECT_TRUE(report.clean()) << report.Summary();
      }
    }
  }
}

TEST(PlanIoTest, RejectsCorruption) {
  const Topology topo(presets::A100(1, 8));
  const std::string good = SavePlanToString(CompileHm(topo));

  EXPECT_FALSE(LoadPlanFromString("").ok());
  EXPECT_FALSE(LoadPlanFromString("not-a-plan v1\n").ok());

  // Truncation.
  EXPECT_FALSE(
      LoadPlanFromString(good.substr(0, good.size() / 2)).ok());

  // Out-of-range task id inside a wave.
  std::string bad = good;
  const std::size_t pos = bad.find("\nw ");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 4, "\nw 1 99999 ");
  EXPECT_FALSE(LoadPlanFromString(bad).ok());

  // Broken transfer record.
  std::string bad2 = good;
  const std::size_t tp = bad2.find("\nt ");
  ASSERT_NE(tp, std::string::npos);
  bad2.replace(tp, 3, "\nt x");
  EXPECT_FALSE(LoadPlanFromString(bad2).ok());
}

// v1 stored derived columns (stage map, TB width, per-ref wave and order)
// that v2 drops; reading both would be a second path, so a v1 file is
// refused with a status naming its version.
TEST(PlanIoTest, RejectsVersionOnePlans) {
  const Topology topo(presets::A100(1, 8));
  const std::string good = SavePlanToString(CompileHm(topo));
  const std::string header = "resccl-plan v2\n";
  ASSERT_EQ(good.substr(0, header.size()), header);
  for (const char* version : {"v1", "v3"}) {
    const std::string bad = "resccl-plan " + std::string(version) + "\n" +
                            good.substr(header.size());
    const Result<CompiledCollective> r = LoadPlanFromString(bad);
    ASSERT_FALSE(r.ok()) << version;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << version;
    EXPECT_NE(r.status().message().find(std::string("version ") + version),
              std::string::npos)
        << r.status().message();
  }
}

// Every checked-in example plan is a v2 file this build reads, and saving
// what it read reproduces the file byte for byte.
TEST(PlanIoTest, CheckedInPlansRoundTrip) {
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RESCCL_EXAMPLE_PLANS_DIR)) {
    if (entry.path().extension() != ".plan") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const Result<CompiledCollective> loaded = LoadPlanFromString(text.str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(SavePlanToString(loaded.value()), text.str());
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

TEST(PlanIoTest, RootedPlanPreservesRoot) {
  const Topology topo(presets::A100(1, 8));
  Algorithm bcast;
  bcast.name = "bcast";
  bcast.collective = CollectiveOp::kBroadcast;
  bcast.nranks = 8;
  bcast.nchunks = 8;
  bcast.root = 5;
  for (Rank r = 0; r < 8; ++r) {
    if (r == 5) continue;
    for (ChunkId c = 0; c < 8; ++c) {
      bcast.transfers.push_back({5, r, r, c, TransferOp::kRecv});
    }
  }
  const CompiledCollective plan =
      Compile(bcast, topo, DefaultCompileOptions(BackendKind::kResCCL))
          .value();
  const CompiledCollective back =
      LoadPlanFromString(SavePlanToString(plan)).value();
  EXPECT_EQ(back.algo.root, 5);
  EXPECT_EQ(back.algo.collective, CollectiveOp::kBroadcast);
}

TEST(PlanIoTest, ErrorsCarryLineNumbers) {
  const Result<CompiledCollective> r =
      LoadPlanFromString("resccl-plan v2\nalgorithm broken\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

// The two halves of `resccl lint`: LoadPlan checks the file's form, the
// static verifier its safety.
TEST(PlanIoTest, AnalyzerAcceptsLoadedCleanRejectsUnsafe) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan = CompileHm(topo);
  const Result<CompiledCollective> good =
      LoadPlanFromString(SavePlanToString(plan));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(AnalyzePlan(good.value(), &topo).clean());

  // Strip one dependency edge: still a well-formed file — LoadPlan accepts
  // it — but the verifier sees the now-unordered hazard pair.
  CompiledCollective unsafe = plan;
  for (auto& preds : unsafe.preds) {
    if (!preds.empty()) {
      preds.pop_back();
      break;
    }
  }
  const Result<CompiledCollective> edited =
      LoadPlanFromString(SavePlanToString(unsafe));
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  const AnalysisReport rejected = AnalyzePlan(edited.value(), &topo);
  EXPECT_FALSE(rejected.clean());
  EXPECT_NE(rejected.Summary().find("error(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Corruption fuzz: every mutated plan is caught by the loader or the static
// verifier, and anything that slips past both must actually execute — a
// corrupt plan may never surface as a sim-time throw.
// ---------------------------------------------------------------------------

// Deterministic xorshift64* so failures reproduce without a seed report.
class FuzzRng {
 public:
  explicit FuzzRng(std::uint64_t seed) : state_(seed | 1) {}
  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

std::string Mutate(const std::string& good, FuzzRng& rng) {
  std::string bad = good;
  switch (rng.Below(3)) {
    case 0: {  // flip one byte to a random printable character
      const std::size_t pos = rng.Below(bad.size());
      bad[pos] = static_cast<char>(' ' + rng.Below(95));
      break;
    }
    case 1:  // truncate
      bad.resize(rng.Below(bad.size()));
      break;
    default: {  // delete a line
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i + 1 < bad.size(); ++i) {
        if (bad[i] == '\n') starts.push_back(i + 1);
      }
      const std::size_t line = rng.Below(starts.size());
      const std::size_t begin = starts[line];
      const std::size_t end =
          line + 1 < starts.size() ? starts[line + 1] : bad.size();
      bad.erase(begin, end - begin);
      break;
    }
  }
  return bad;
}

TEST(PlanIoFuzzTest, CorruptPlansAreRejectedBeforeSimTime) {
  const Topology topo(presets::A100(2, 4));
  const CompiledCollective plan = CompileHm(topo);
  const std::string good = SavePlanToString(plan);

  FuzzRng rng(0x5eed2026'08'06ULL);
  int loader_rejects = 0;
  int verifier_rejects = 0;
  int accepted = 0;
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::string bad = Mutate(good, rng);
    const Result<CompiledCollective> loaded = LoadPlanFromString(bad);
    if (!loaded.ok()) {
      ++loader_rejects;
      continue;
    }
    const AnalysisReport report = AnalyzePlan(loaded.value(), &topo);
    if (!report.clean()) {
      ++verifier_rejects;
      continue;
    }
    // Survivor: parsed AND certified. It must execute to completion — the
    // exact bar the verifier claims to establish. Lower with the canonical
    // two-micro-batch launch the certificate covered.
    ++accepted;
    const CostModel cost;
    LaunchConfig launch;
    launch.chunk = Size::KiB(1);
    launch.buffer = Size::KiB(2u * static_cast<unsigned>(
                                       loaded.value().algo.nchunks));
    EXPECT_NO_THROW({
      const LoweredProgram lowered = Lower(loaded.value(), cost, launch);
      SimMachine machine(topo, cost);
      (void)machine.Run(lowered.program);
    });
  }
  // The sweep must exercise all three outcomes to mean anything.
  EXPECT_GT(loader_rejects, 0);
  EXPECT_GT(verifier_rejects + accepted, 0);
}

}  // namespace
}  // namespace resccl
