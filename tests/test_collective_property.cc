// Property suite: every algorithm × topology × backend executes to a
// numerically correct collective, the schedule deadlock-free, the timing
// sane. This is the library's main end-to-end correctness net.
#include <gtest/gtest.h>

#include "algo_cases.h"
#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "lang/eval.h"
#include "runtime/backend.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using tests::AlgoCase;

// Force every level onto one primitive so each primitive's reduce and
// broadcast emitters get exercised at every scope, not just its default.
Algorithm MakeComposedArRings(const Topology& t) {
  algorithms::CompositionSpec spec;
  spec.primitives.assign(4, algorithms::LevelPrimitive::kRing);
  return algorithms::ComposedAllReduce(t, spec);
}
Algorithm MakeComposedArTrees(const Topology& t) {
  algorithms::CompositionSpec spec;
  spec.primitives.assign(4, algorithms::LevelPrimitive::kTree);
  return algorithms::ComposedAllReduce(t, spec);
}
// The shared library table plus two composed AllReduce variants.
std::vector<AlgoCase> AlgorithmCases() {
  std::vector<AlgoCase> cases = tests::AlgorithmCases();
  cases.push_back({"hc_ar_rings", CollectiveOp::kAllReduce,
                   MakeComposedArRings, algorithms::Requirement::kComposable});
  cases.push_back({"hc_ar_trees", CollectiveOp::kAllReduce,
                   MakeComposedArTrees, algorithms::Requirement::kComposable});
  return cases;
}

struct TopoCase {
  std::string label;
  int nodes;
  int gpus;
};

std::vector<TopoCase> TopoCases() {
  return {{"1x8", 1, 8}, {"2x4", 2, 4}, {"2x8", 2, 8}, {"4x4", 4, 4}};
}

class CollectiveProperty
    : public ::testing::TestWithParam<
          std::tuple<AlgoCase, TopoCase, BackendKind>> {};

TEST_P(CollectiveProperty, ExecutesCorrectly) {
  const auto& [algo_case, topo_case, backend] = GetParam();
  const Topology topo(presets::A100(topo_case.nodes, topo_case.gpus));
  const Algorithm algo = algo_case.make(topo);
  ASSERT_TRUE(algo.Validate().ok());

  RunRequest request;
  request.launch.buffer = Size::MiB(8);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  request.verify_elems = 2;

  const Result<PreparedPlan> prepared = Prepare(algo, topo, backend);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const CollectiveReport r = Execute(*prepared.value(), request);
  EXPECT_TRUE(r.verified) << r.verify_error;
  EXPECT_GT(r.elapsed.us(), 0.0);
  EXPECT_GT(r.algo_bw.gbps(), 0.0);
  EXPECT_LT(r.algo_bw.gbps(), topo.spec().gpu_fabric.gbps() *
                                  topo.nranks());  // physically plausible
  EXPECT_GT(r.nmicrobatches, 1);
  EXPECT_GT(r.total_tbs, 0);
  // Accounting sanity: no TB can be idle/busy more than its lifetime.
  for (const TbStats& tb : r.sim.tbs) {
    EXPECT_LE(tb.busy + tb.sync + tb.overhead, tb.finish + SimTime::Us(0.01));
  }
  EXPECT_GE(r.links.min, 0.0);
  EXPECT_LE(r.links.max, 1.0 + 1e-9);
}

std::string PropertyName(
    const ::testing::TestParamInfo<
        std::tuple<AlgoCase, TopoCase, BackendKind>>& info) {
  const auto& [a, t, b] = info.param;
  return std::string(a.name) + "_" + t.label + "_" + BackendName(b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollectiveProperty,
    ::testing::Combine(::testing::ValuesIn(AlgorithmCases()),
                       ::testing::ValuesIn(TopoCases()),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike)),
    PropertyName);

// Buffer-size sweep: micro-batch counts from 1 to 64 on the flagship
// algorithm; correctness and monotone non-degrading bandwidth at scale.
class BufferSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(BufferSizeProperty, VerifiedAtEverySize) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  RunRequest request;
  request.launch.buffer = Size::MiB(GetParam());
  request.launch.chunk = Size::MiB(1);
  request.verify = true;
  const CollectiveReport r =
      Execute(*Prepare(algo, topo, BackendKind::kResCCL).value(), request);
  EXPECT_TRUE(r.verified) << r.verify_error;
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferSizeProperty,
                         ::testing::Values(1, 16, 64, 256, 1024));

// ResCCLang end-to-end: a DSL-defined algorithm runs and verifies.
TEST(DslProperty, CompiledProgramExecutesCorrectly) {
  const char* source = R"(
def ResCCLAlgo(nRanks=8, AlgoName="dsl_ring", OpType="Allgather"):
    N = 8
    for r in range(0, N):
        for step in range(0, N-1):
            transfer((r+step)%N, (r+step+1)%N, step, r, recv)
)";
  auto algo = lang::CompileSource(source);
  ASSERT_TRUE(algo.ok()) << algo.status().ToString();
  const Topology topo(presets::A100(2, 4));
  RunRequest request;
  request.launch.buffer = Size::MiB(8);
  request.launch.chunk = Size::KiB(256);
  request.verify = true;
  const CollectiveReport r = Execute(
      *Prepare(algo.value(), topo, BackendKind::kResCCL).value(), request);
  EXPECT_TRUE(r.verified) << r.verify_error;
}

}  // namespace
}  // namespace resccl
