// Unit tests for the N-level hierarchical composer
// (algorithms/composition.h): hierarchy resolution, primitive overrides,
// structural invariants of the emitted transfers (transfer counts and
// rail-aligned striping), selector registration, and end-to-end data
// verification on multi-rack RailClos fabrics.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/composition.h"
#include "runtime/backend.h"
#include "analysis/analyzer.h"
#include "runtime/selector.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using algorithms::ComposableTopology;
using algorithms::ComposedAllGather;
using algorithms::ComposedAllReduce;
using algorithms::ComposedReduceScatter;
using algorithms::CompositionSpec;
using algorithms::HierarchyLevel;
using algorithms::LevelPrimitive;
using algorithms::ResolveHierarchy;

// 32 ranks: 8 nodes x 4 GPUs over 2 rails, 4 racks of 2 nodes, 2 pods.
Topology SmallClos() { return Topology(presets::RailClos(8, 4, 2, 4)); }

TEST(CompositionTest, ResolveHierarchyDefaultLevels) {
  const Topology topo = SmallClos();
  const std::vector<HierarchyLevel> levels = ResolveHierarchy(topo);
  ASSERT_EQ(levels.size(), 4u);

  // `groups` counts the disjoint rank groups at that level: nranks / size.
  EXPECT_STREQ(levels[0].scope, "node");
  EXPECT_EQ(levels[0].size, 4);  // GPUs per node
  EXPECT_EQ(levels[0].groups, 8);
  EXPECT_EQ(levels[0].primitive, LevelPrimitive::kMesh);

  EXPECT_STREQ(levels[1].scope, "rack");
  EXPECT_EQ(levels[1].size, 2);  // nodes per rack
  EXPECT_EQ(levels[1].groups, 16);
  EXPECT_EQ(levels[1].primitive, LevelPrimitive::kRing);

  EXPECT_STREQ(levels[2].scope, "pod");
  EXPECT_EQ(levels[2].size, 2);  // racks per pod
  EXPECT_EQ(levels[2].groups, 16);
  EXPECT_EQ(levels[2].primitive, LevelPrimitive::kTree);

  EXPECT_STREQ(levels[3].scope, "cluster");
  EXPECT_EQ(levels[3].size, 2);  // pods
  EXPECT_EQ(levels[3].groups, 16);
  EXPECT_EQ(levels[3].primitive, LevelPrimitive::kTree);
}

TEST(CompositionTest, SizeOneLevelsAreDropped) {
  // A flat single-rack testbed resolves to node + rack ("rack" here spans
  // all nodes) — no pod or cluster levels.
  const Topology topo(presets::A100(2, 4));
  const std::vector<HierarchyLevel> levels = ResolveHierarchy(topo);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_STREQ(levels[0].scope, "node");
  EXPECT_EQ(levels[0].size, 4);
  EXPECT_EQ(levels[1].size, 2);
}

TEST(CompositionTest, PrimitiveOverridesApplyPerLevel) {
  const Topology topo = SmallClos();
  CompositionSpec spec;
  spec.primitives = {LevelPrimitive::kRing, LevelPrimitive::kAuto,
                     LevelPrimitive::kMesh};
  const std::vector<HierarchyLevel> levels = ResolveHierarchy(topo, spec);
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[0].primitive, LevelPrimitive::kRing);  // override
  EXPECT_EQ(levels[1].primitive, LevelPrimitive::kRing);  // kAuto -> default
  EXPECT_EQ(levels[2].primitive, LevelPrimitive::kMesh);  // override
  EXPECT_EQ(levels[3].primitive, LevelPrimitive::kTree);  // no entry
}

TEST(CompositionTest, ComposableRequiresEvenDecomposition) {
  EXPECT_TRUE(ComposableTopology(SmallClos()));
  EXPECT_TRUE(ComposableTopology(Topology(presets::A100(2, 8))));
  // 3 nodes in racks of 2: the last rack is half-full.
  TopologySpec ragged = presets::A100(3, 4);
  ragged.nodes_per_rack = 2;
  EXPECT_FALSE(ComposableTopology(Topology(ragged)));
}

TEST(CompositionTest, NamesEncodePrimitivesAndChunks) {
  const Topology topo = SmallClos();
  EXPECT_EQ(ComposedAllReduce(topo).name, "hc_allreduce[m.r.t.t]");
  EXPECT_EQ(ComposedAllGather(topo).name, "hc_allgather[m.r.t.t]");
  EXPECT_EQ(ComposedReduceScatter(topo).name, "hc_reducescatter[m.r.t.t]");
  CompositionSpec spec;
  spec.primitives.assign(4, LevelPrimitive::kRing);
  spec.chunks = 8;
  EXPECT_EQ(ComposedAllReduce(topo, spec).name, "hc_allreduce[r.r.r.r]-c8");
}

// Reducing a group of S members takes exactly S-1 transfers under every
// primitive, so a full reduce-scatter (or all-gather) pass costs nranks-1
// transfers per chunk, telescoped across the levels.
TEST(CompositionTest, TransferCountsTelescope) {
  const Topology topo = SmallClos();
  const int n = topo.nranks();
  EXPECT_EQ(ComposedReduceScatter(topo).ntasks(), n * (n - 1));
  EXPECT_EQ(ComposedAllGather(topo).ntasks(), n * (n - 1));
  EXPECT_EQ(ComposedAllReduce(topo).ntasks(), 2 * n * (n - 1));
  CompositionSpec coarse;
  coarse.chunks = topo.gpus_per_node();  // 4 chunks instead of 32
  EXPECT_EQ(ComposedAllReduce(topo, coarse).ntasks(),
            2 * topo.gpus_per_node() * (n - 1));
}

// The rail-alignment property the composer exists for: every inter-node
// transfer of a chunk runs between ranks with the same local GPU index, so
// the chunk class rides one rail end to end.
TEST(CompositionTest, InterNodeTransfersAreRailAligned) {
  const Topology topo = SmallClos();
  for (const Algorithm& algo :
       {ComposedAllReduce(topo), ComposedReduceScatter(topo),
        ComposedAllGather(topo)}) {
    for (const Transfer& t : algo.transfers) {
      if (topo.SameNode(t.src, t.dst)) continue;
      EXPECT_EQ(topo.LocalIndex(t.src), topo.LocalIndex(t.dst))
          << algo.name << ": " << t.src << " -> " << t.dst;
      EXPECT_EQ(topo.RailOf(t.src), topo.RailOf(t.dst));
    }
  }
}

// Chunk classes cover every rail: with nchunks a multiple of
// gpus_per_node, each rail carries the same number of chunk classes.
TEST(CompositionTest, ChunkClassesCoverAllRails) {
  const Topology topo = SmallClos();
  const Algorithm algo = ComposedAllReduce(topo);
  std::vector<int> classes_per_rail(
      static_cast<std::size_t>(topo.CommChannels()), 0);
  for (ChunkId c = 0; c < algo.nchunks; ++c) {
    const int j = c % topo.gpus_per_node();
    ++classes_per_rail[static_cast<std::size_t>(
        topo.RailOf(j))];  // rank j is on node 0 with local index j
  }
  for (const int count : classes_per_rail) {
    EXPECT_EQ(count, algo.nchunks / topo.CommChannels());
  }
}

TEST(CompositionTest, CoarseChunksMustStripeRails) {
  const Topology topo = SmallClos();
  CompositionSpec spec;
  spec.chunks = topo.gpus_per_node() + 1;  // not a multiple
  EXPECT_THROW((void)ComposedAllReduce(topo, spec), std::logic_error);
}

TEST(CompositionTest, SelectorRegistersComposedOnMultiRackOnly) {
  const auto has_composed = [](const std::vector<Algorithm>& algos) {
    for (const Algorithm& a : algos) {
      if (a.name.rfind("hc_", 0) == 0) return true;
    }
    return false;
  };
  const Topology multi_rack = SmallClos();
  const Topology single_rack(presets::A100(2, 8));
  for (const CollectiveOp op :
       {CollectiveOp::kAllReduce, CollectiveOp::kReduceScatter,
        CollectiveOp::kAllGather}) {
    EXPECT_TRUE(has_composed(CandidateAlgorithms(op, multi_rack)));
    EXPECT_FALSE(has_composed(CandidateAlgorithms(op, single_rack)));
  }
}

// The payoff criterion: on an oversubscribed multi-rack multi-NIC fabric
// the rail-aligned composition must beat every flat library algorithm in
// the selector's own sweep — cross-rack traffic telescopes through the
// ToR/spine tiers (one aggregated flow per group) instead of hammering the
// thinned trunks once per rank. On a non-blocking fabric (os=1) the flat
// multi-channel ring is legitimately competitive — trunks have headroom to
// burn — so the composition only has to win where the hierarchy matters.
TEST(CompositionTest, CompositionWinsSelectorSweepOnMultiRackFabric) {
  const Topology topo(
      presets::RailClos(8, 4, 2, 4, /*oversubscription=*/4.0));
  RunRequest request;
  request.launch.buffer = Size::MiB(256);
  const SelectionResult result = SelectAlgorithm(
      CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, request);
  ASSERT_FALSE(result.scoreboard.empty());
  EXPECT_EQ(result.algorithm.name.rfind("hc_", 0), 0u)
      << "winner: " << result.algorithm.name << " at "
      << result.scoreboard.front().gbps << " gbps";

  // Contrast: on the same fabric without oversubscription a flat algorithm
  // may win, and the sweep must still rank every composed variant.
  const Topology flat_fabric = SmallClos();
  const SelectionResult flat = SelectAlgorithm(
      CollectiveOp::kAllReduce, flat_fabric, BackendKind::kResCCL, request);
  int composed_ranked = 0;
  for (const CandidateScore& s : flat.scoreboard) {
    if (s.name.rfind("hc_", 0) == 0) ++composed_ranked;
  }
  EXPECT_GE(composed_ranked, 2);
}

// End-to-end: composed collectives on the multi-rack fabric execute to
// completion with verified data under every primitive assignment.
TEST(CompositionTest, ComposedCollectivesVerifyOnRailClos) {
  const Topology topo = SmallClos();
  std::vector<Algorithm> algos = {
      ComposedAllReduce(topo), ComposedReduceScatter(topo),
      ComposedAllGather(topo)};
  CompositionSpec rings;
  rings.primitives.assign(4, LevelPrimitive::kRing);
  algos.push_back(ComposedAllReduce(topo, rings));
  CompositionSpec trees;
  trees.primitives.assign(4, LevelPrimitive::kTree);
  algos.push_back(ComposedAllReduce(topo, trees));
  CompositionSpec coarse;
  coarse.chunks = topo.gpus_per_node();
  algos.push_back(ComposedAllReduce(topo, coarse));

  for (const Algorithm& algo : algos) {
    RunRequest request;
    request.launch.buffer = Size::MiB(8);
    request.verify = true;
    const Result<PreparedPlan> prepared =
        Prepare(algo, topo, BackendKind::kResCCL);
    ASSERT_TRUE(prepared.ok()) << algo.name;
    const CollectiveReport report = Execute(*prepared.value(), request);
    EXPECT_TRUE(report.verified) << algo.name << ": " << report.verify_error;
    EXPECT_GT(report.sim.makespan.us(), 0.0) << algo.name;
  }
}

// --- Degenerate-fabric edge cases ------------------------------------------
//
// The composer, selector, and analyzer must handle the boundary fabrics
// users actually type — a non-blocking Clos (oversubscription exactly 1),
// a single-rail fabric (nics_per_node = 1), and one-node "clusters" —
// without crashing, producing empty plans, or emitting lint errors.

void ExpectServesAndLintsClean(const Topology& topo) {
  // Selector end-to-end: candidates exist, the winner executes non-trivially.
  RunRequest request;
  request.launch.buffer = Size::MiB(8);
  request.verify = true;
  const SelectionResult sel = SelectAlgorithm(
      CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, request);
  EXPECT_FALSE(sel.scoreboard.empty()) << topo.spec().name;
  EXPECT_GT(sel.report.sim.makespan.us(), 0.0) << topo.spec().name;
  EXPECT_TRUE(sel.report.verified)
      << topo.spec().name << ": " << sel.report.verify_error;

  // Analyzer lint over the winning plan: compile + AnalyzePlan, no errors.
  const Result<CompiledCollective> compiled =
      Compile(sel.algorithm, topo,
              DefaultCompileOptions(BackendKind::kResCCL));
  ASSERT_TRUE(compiled.ok()) << topo.spec().name;
  EXPECT_FALSE(compiled.value().tbs.tbs.empty()) << topo.spec().name;
  const AnalysisReport lint = AnalyzePlan(compiled.value(), &topo);
  EXPECT_TRUE(lint.clean()) << topo.spec().name << ": " << lint.Summary();
}

TEST(CompositionEdgeTest, NonBlockingClosOversubscriptionOne) {
  const Topology topo(presets::RailClos(8, 4, 2, 4, /*oversubscription=*/1.0));
  EXPECT_TRUE(ComposableTopology(topo));
  ExpectServesAndLintsClean(topo);
}

TEST(CompositionEdgeTest, SingleRailFabric) {
  const Topology topo(presets::RailClos(4, 4, /*nics_per_node=*/1, 2));
  EXPECT_TRUE(ComposableTopology(topo));
  // Every inter-node transfer must ride rail 0 — there is no other.
  const Algorithm algo = ComposedAllReduce(topo);
  EXPECT_FALSE(algo.transfers.empty());
  ExpectServesAndLintsClean(topo);
}

TEST(CompositionEdgeTest, OneNodeCluster) {
  const Topology topo(presets::RailClos(1, 4, 1, 1));
  // The hierarchy collapses to the node level; no rack/pod/cluster levels.
  const std::vector<HierarchyLevel> levels = ResolveHierarchy(topo);
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_STREQ(levels[0].scope, "node");
  ExpectServesAndLintsClean(topo);
}

TEST(CompositionEdgeTest, OneNodeComposedCollectivesVerify) {
  const Topology topo(presets::RailClos(1, 4, 1, 1));
  if (!ComposableTopology(topo)) GTEST_SKIP();
  for (const Algorithm& algo :
       {ComposedAllReduce(topo), ComposedReduceScatter(topo),
        ComposedAllGather(topo)}) {
    EXPECT_FALSE(algo.transfers.empty()) << algo.name;
    RunRequest request;
    request.launch.buffer = Size::MiB(4);
    request.verify = true;
    const Result<PreparedPlan> prepared =
        Prepare(algo, topo, BackendKind::kResCCL);
    ASSERT_TRUE(prepared.ok()) << algo.name;
    const CollectiveReport report = Execute(*prepared.value(), request);
    EXPECT_TRUE(report.verified) << algo.name << ": " << report.verify_error;
  }
}

TEST(CompositionEdgeTest, DegenerateSweepStaysConsistent) {
  // The selector sweep across sizes must stay crash-free and monotonic in
  // work on the degenerate fabrics too.
  for (const TopologySpec& spec :
       {presets::RailClos(1, 4, 1, 1), presets::RailClos(4, 4, 1, 2),
        presets::RailClos(8, 4, 2, 4, 1.0)}) {
    const Topology topo(spec);
    RunRequest request;
    const SweepResult sweep = SelectAlgorithmSweep(
        CollectiveOp::kAllReduce, topo, BackendKind::kResCCL, request,
        {Size::MiB(1), Size::MiB(16)});
    ASSERT_EQ(sweep.points.size(), 2u) << spec.name;
    for (const SelectionResult& point : sweep.points) {
      EXPECT_FALSE(point.scoreboard.empty()) << spec.name;
      EXPECT_GT(point.report.sim.makespan.us(), 0.0) << spec.name;
    }
  }
}

}  // namespace
}  // namespace resccl
