// Scheduler tests: HPDS, RR and StepOrder invariants across the algorithm
// library (parameterized), targeted behavioural checks, and a seeded
// differential test of ValidateSchedule against the pairwise check it
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/catalog.h"
#include "common/rng.h"
#include "core/hpds.h"
#include "core/round_robin.h"
#include "core/schedule.h"
#include "core/step_order.h"
#include "topology/topology.h"

namespace resccl {
namespace {

struct SchedulerCase {
  std::string_view name;  // a catalog entry
  int nodes;
  int gpus;
};

// Readable parameter names in gtest failure output.
void PrintTo(const SchedulerCase& c, std::ostream* os) {
  *os << c.name << "_" << c.nodes << "x" << c.gpus;
}

Algorithm Make(std::string_view name, const Topology& topo) {
  return algorithms::MakeAlgorithm(name, topo).value();
}

std::vector<SchedulerCase> Cases() {
  std::vector<SchedulerCase> cases;
  for (const auto& [nodes, gpus] : {std::pair{2, 4}, {2, 8}, {4, 4}}) {
    for (const std::string_view name :
         {"hm_allgather", "hm_allreduce", "hm_reducescatter",
          "taccl_like_allgather", "teccl_like_allreduce", "ring_allgather",
          "ring_allreduce", "double_binary_tree_allreduce",
          "ring_mc_allreduce"}) {
      cases.push_back({name, nodes, gpus});
    }
  }
  return cases;
}

// Scheduler kinds the parameterized tests build: 0 HPDS, 1 RR, 2 StepOrder.
constexpr int kSchedulerKinds = 3;

Schedule BuildSchedule(int kind, const DependencyGraph& dag,
                       const ConnectionTable& conns) {
  switch (kind) {
    case 0: return HpdsScheduler().Build(dag, conns);
    case 1: return RoundRobinScheduler().Build(dag, conns);
    default: return StepOrderScheduler().Build(dag, conns);
  }
}

const char* SchedulerSuffix(int kind) {
  switch (kind) {
    case 0: return "_hpds";
    case 1: return "_rr";
    default: return "_step";
  }
}

class SchedulerInvariantTest
    : public ::testing::TestWithParam<std::tuple<SchedulerCase, int>> {};

TEST_P(SchedulerInvariantTest, ScheduleIsValid) {
  const auto& [c, sched_kind] = GetParam();
  const Topology topo(presets::A100(c.nodes, c.gpus));
  const Algorithm algo = Make(c.name, topo);
  ASSERT_TRUE(algo.Validate().ok());

  ConnectionTable conns(topo);
  DependencyGraph dag(algo, conns);
  const Schedule schedule = BuildSchedule(sched_kind, dag, conns);
  const Status valid = ValidateSchedule(schedule, dag, conns);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(schedule.ntasks(), dag.ntasks());
  EXPECT_GE(schedule.nwaves(), 1);
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<SchedulerCase, int>>& info) {
  const auto& [c, kind] = info.param;
  return std::string(c.name) + "_" + std::to_string(c.nodes) + "x" +
         std::to_string(c.gpus) + SchedulerSuffix(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SchedulerInvariantTest,
    ::testing::Combine(::testing::ValuesIn(Cases()),
                       ::testing::Range(0, kSchedulerKinds)),
    CaseName);

class SchedulerBehaviourTest : public ::testing::Test {
 protected:
  SchedulerBehaviourTest() : topo_(presets::A100(2, 4)), conns_(topo_) {}
  Topology topo_;
  ConnectionTable conns_;
};

TEST_F(SchedulerBehaviourTest, RingWavesMatchSteps) {
  // For a plain ring, every wave is one ring step: N−1 waves of N tasks.
  const Algorithm algo = Make("ring_allgather", topo_);
  DependencyGraph dag(algo, conns_);
  HpdsScheduler hpds;
  const Schedule s = hpds.Build(dag, conns_);
  // Inter-node hops share NICs with only one flow each on 2×4 (one GPU per
  // NIC), so each step's 8 tasks coexist in one wave.
  EXPECT_EQ(s.nwaves(), 7);
  for (const auto& wave : s.sub_pipelines) {
    EXPECT_EQ(wave.size(), 8u);
  }
}

TEST_F(SchedulerBehaviourTest, HpdsCoalescesDependentChainsAcrossLinks) {
  // A 3-hop forwarding chain on distinct links fits one sub-pipeline.
  Algorithm a;
  a.name = "chain";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = 8;
  a.nchunks = 8;
  a.transfers = {{0, 1, 0, 0, TransferOp::kRecv},
                 {1, 2, 1, 0, TransferOp::kRecv},
                 {2, 3, 2, 0, TransferOp::kRecv}};
  DependencyGraph dag(a, conns_);
  HpdsScheduler hpds;
  const Schedule s = hpds.Build(dag, conns_);
  EXPECT_EQ(s.nwaves(), 1);
  EXPECT_EQ(s.sub_pipelines[0].size(), 3u);
}

TEST_F(SchedulerBehaviourTest, RoundRobinHeadOfLineBlocks) {
  // Chunks 0 and 1 both need link (0->1); chunk 2 is independent on (2->3).
  // RR's immutable sequence hits the conflict at chunk 1 and closes the
  // sub-pipeline, pushing the perfectly schedulable chunk-2 task out of
  // wave 0. HPDS skips the conflicting chunk and fills the wave.
  Algorithm a;
  a.name = "holb";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = 8;
  a.nchunks = 8;
  a.transfers = {{0, 1, 0, 0, TransferOp::kRecv},
                 {0, 1, 0, 1, TransferOp::kRecv},
                 {2, 3, 0, 2, TransferOp::kRecv}};
  DependencyGraph dag(a, conns_);
  HpdsScheduler hpds;
  const Schedule hs = hpds.Build(dag, conns_);
  ASSERT_EQ(hs.nwaves(), 2);
  EXPECT_EQ(hs.sub_pipelines[0].size(), 2u);  // chunk 0 + chunk 2 together
  RoundRobinScheduler rr;
  const Schedule rs = rr.Build(dag, conns_);
  ASSERT_EQ(rs.nwaves(), 2);
  EXPECT_EQ(rs.sub_pipelines[0].size(), 1u);  // head-of-line blocked
}

TEST_F(SchedulerBehaviourTest, SameLinkTasksNeverShareWave) {
  Algorithm a;
  a.name = "samelink";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = 8;
  a.nchunks = 8;
  a.transfers = {{0, 1, 0, 0, TransferOp::kRecv},
                 {0, 1, 0, 1, TransferOp::kRecv}};  // independent chunks
  DependencyGraph dag(a, conns_);
  HpdsScheduler hpds;
  const Schedule s = hpds.Build(dag, conns_);
  EXPECT_EQ(s.nwaves(), 2);
}

TEST_F(SchedulerBehaviourTest, LatencyClassesSplitWaves) {
  // An intra-node task depending on an inter-node task is pushed out of the
  // producer's sub-pipeline (§4.3 bubble avoidance).
  Algorithm a;
  a.name = "mixed";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = 8;
  a.nchunks = 8;
  a.transfers = {{0, 4, 0, 0, TransferOp::kRecv},    // inter
                 {4, 5, 1, 0, TransferOp::kRecv}};   // intra, depends on it
  DependencyGraph dag(a, conns_);
  HpdsScheduler hpds;
  const Schedule s = hpds.Build(dag, conns_);
  ASSERT_EQ(s.nwaves(), 2);
  EXPECT_EQ(s.sub_pipelines[0].size(), 1u);
  EXPECT_EQ(s.sub_pipelines[0][0], TaskId(0));
}

TEST_F(SchedulerBehaviourTest, ValidateScheduleCatchesViolations) {
  const Algorithm algo = Make("ring_allgather", topo_);
  DependencyGraph dag(algo, conns_);
  HpdsScheduler hpds;
  Schedule s = hpds.Build(dag, conns_);

  // Duplicate a task.
  Schedule dup = s;
  dup.sub_pipelines.back().push_back(s.sub_pipelines[0][0]);
  EXPECT_FALSE(ValidateSchedule(dup, dag, conns_).ok());

  // Drop a task.
  Schedule missing = s;
  missing.sub_pipelines.back().pop_back();
  EXPECT_FALSE(ValidateSchedule(missing, dag, conns_).ok());

  // Reverse the waves: data deps now point backwards.
  Schedule reversed = s;
  std::reverse(reversed.sub_pipelines.begin(), reversed.sub_pipelines.end());
  const Status st = ValidateSchedule(reversed, dag, conns_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("data dependency"), std::string::npos);

  // Merge two waves that share links: communication conflict.
  Schedule merged = s;
  auto& first = merged.sub_pipelines[0];
  first.insert(first.end(), merged.sub_pipelines[1].begin(),
               merged.sub_pipelines[1].end());
  merged.sub_pipelines.erase(merged.sub_pipelines.begin() + 1);
  const Status comm = ValidateSchedule(merged, dag, conns_);
  ASSERT_FALSE(comm.ok());
  EXPECT_NE(comm.message().find("communication dependency"),
            std::string::npos)
      << comm.ToString();
}

TEST_F(SchedulerBehaviourTest, ValidateScheduleReportsBadTaskIds) {
  const Algorithm algo = Make("ring_allgather", topo_);
  DependencyGraph dag(algo, conns_);
  HpdsScheduler hpds;
  const Schedule s = hpds.Build(dag, conns_);

  // Same task count, but one id past the end: a Status, not an abort.
  Schedule past_end = s;
  past_end.sub_pipelines[0][0] = TaskId(dag.ntasks());
  const Status high = ValidateSchedule(past_end, dag, conns_);
  ASSERT_FALSE(high.ok());
  EXPECT_EQ(high.code(), StatusCode::kInternal);
  EXPECT_NE(high.message().find("task " + std::to_string(dag.ntasks()) +
                                " out of range"),
            std::string::npos)
      << high.ToString();

  Schedule invalid = s;
  invalid.sub_pipelines.back().back() = TaskId();
  const Status neg = ValidateSchedule(invalid, dag, conns_);
  ASSERT_FALSE(neg.ok());
  EXPECT_EQ(neg.code(), StatusCode::kInternal);
  EXPECT_NE(neg.message().find("task -1 out of range"), std::string::npos)
      << neg.ToString();
}

TEST_F(SchedulerBehaviourTest, ValidateScheduleCatchesLinkReuse) {
  // Two independent chunks over one GPU pair, forced into one wave.
  Algorithm a;
  a.name = "samelink";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = 8;
  a.nchunks = 8;
  a.transfers = {{0, 1, 0, 0, TransferOp::kRecv},
                 {0, 1, 0, 1, TransferOp::kRecv}};
  DependencyGraph dag(a, conns_);
  Schedule s;
  s.sub_pipelines = {{TaskId(0), TaskId(1)}};
  const Status st = ValidateSchedule(s, dag, conns_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("communication dependency violated: tasks 0 "
                              "and 1 share a link"),
            std::string::npos)
      << st.ToString();
}

TEST_F(SchedulerBehaviourTest, ValidateScheduleCatchesSharedNic) {
  // On 2x8 A100 two GPUs share each NIC: 0->8 and 1->9 are distinct
  // connections whose paths meet on one NIC, which a connection-only check
  // would miss.
  const Topology topo(presets::A100(2, 8));
  ConnectionTable conns(topo);
  Algorithm a;
  a.name = "sharednic";
  a.collective = CollectiveOp::kAllGather;
  a.nranks = 16;
  a.nchunks = 16;
  a.transfers = {{0, 8, 0, 0, TransferOp::kRecv},
                 {1, 9, 0, 1, TransferOp::kRecv}};
  DependencyGraph dag(a, conns);
  const LinkId l0 = dag.node(TaskId(0)).connection;
  const LinkId l1 = dag.node(TaskId(1)).connection;
  ASSERT_NE(l0, l1);
  ASSERT_TRUE(conns.Conflicts(l0, l1));

  Schedule together;
  together.sub_pipelines = {{TaskId(0), TaskId(1)}};
  const Status st = ValidateSchedule(together, dag, conns);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("communication dependency"), std::string::npos)
      << st.ToString();

  Schedule apart;
  apart.sub_pipelines = {{TaskId(0)}, {TaskId(1)}};
  EXPECT_TRUE(ValidateSchedule(apart, dag, conns).ok());
}

// The pairwise check ValidateSchedule ran before its stamp pass, kept as
// the reference the stamp pass must agree with: coverage, data order, then
// ConnectionTable::Conflicts on every pair of tasks in each sub-pipeline.
Status PairwiseValidate(const Schedule& schedule, const DependencyGraph& dag,
                        const ConnectionTable& connections) {
  const int ntasks = dag.ntasks();
  if (schedule.ntasks() != ntasks) return Status::Internal("task count");
  std::vector<int> pos(static_cast<std::size_t>(ntasks), -1);
  int next = 0;
  for (const auto& sub : schedule.sub_pipelines) {
    for (TaskId t : sub) {
      if (!t.valid() || t.value >= ntasks) {
        return Status::Internal("task out of range");
      }
      if (pos[static_cast<std::size_t>(t.value)] != -1) {
        return Status::Internal("task scheduled twice");
      }
      pos[static_cast<std::size_t>(t.value)] = next++;
    }
  }
  for (int t = 0; t < ntasks; ++t) {
    for (TaskId pred : dag.node(TaskId(t)).preds) {
      if (pos[static_cast<std::size_t>(pred.value)] >=
          pos[static_cast<std::size_t>(t)]) {
        return Status::Internal("data dependency violated");
      }
    }
  }
  for (const auto& sub : schedule.sub_pipelines) {
    for (std::size_t i = 0; i < sub.size(); ++i) {
      for (std::size_t j = i + 1; j < sub.size(); ++j) {
        if (connections.Conflicts(dag.node(sub[i]).connection,
                                  dag.node(sub[j]).connection)) {
          std::ostringstream os;
          os << "communication dependency violated: tasks " << sub[i].value
             << " and " << sub[j].value
             << " share a link within one sub-pipeline";
          return Status::Internal(os.str());
        }
      }
    }
  }
  return Status::Ok();
}

// The class of a validation result: "ok", or the violated invariant.
std::string MessageClass(const Status& st) {
  if (st.ok()) return "ok";
  for (const char* cls : {"communication dependency", "data dependency",
                          "out of range", "scheduled twice"}) {
    if (st.message().find(cls) != std::string::npos) return cls;
  }
  return "other: " + st.message();
}

// Seeded corruption: merge two adjacent waves, or move one task to a
// random position of another wave. Both keep every task exactly once.
Schedule Corrupt(const Schedule& s, Rng& rng) {
  Schedule out = s;
  auto& waves = out.sub_pipelines;
  const auto nwaves = static_cast<std::int64_t>(waves.size());
  if (rng.NextBool(0.5)) {
    const auto w = static_cast<std::size_t>(rng.NextInt(0, nwaves - 2));
    waves[w].insert(waves[w].end(), waves[w + 1].begin(), waves[w + 1].end());
    waves.erase(waves.begin() + static_cast<std::ptrdiff_t>(w) + 1);
    return out;
  }
  const auto from = static_cast<std::size_t>(rng.NextInt(0, nwaves - 1));
  auto to = static_cast<std::size_t>(rng.NextInt(0, nwaves - 2));
  if (to >= from) ++to;
  auto& src = waves[from];
  const auto i = rng.NextInt(0, static_cast<std::int64_t>(src.size()) - 1);
  const TaskId task = src[static_cast<std::size_t>(i)];
  src.erase(src.begin() + i);
  auto& dst = waves[to];
  const auto at = rng.NextInt(0, static_cast<std::int64_t>(dst.size()));
  dst.insert(dst.begin() + at, task);
  if (src.empty()) {
    waves.erase(waves.begin() + static_cast<std::ptrdiff_t>(from));
  }
  return out;
}

class ValidateDifferentialTest
    : public ::testing::TestWithParam<std::tuple<SchedulerCase, int>> {};

TEST_P(ValidateDifferentialTest, AgreesWithPairwiseReference) {
  const auto& [c, sched_kind] = GetParam();
  const Topology topo(presets::A100(c.nodes, c.gpus));
  const Algorithm algo = Make(c.name, topo);
  ConnectionTable conns(topo);
  DependencyGraph dag(algo, conns);
  const Schedule schedule = BuildSchedule(sched_kind, dag, conns);
  ASSERT_TRUE(ValidateSchedule(schedule, dag, conns).ok());
  ASSERT_GE(schedule.nwaves(), 2);  // Corrupt needs two waves

  constexpr int kCorruptions = 24;
  std::uint64_t seed = static_cast<std::uint64_t>(
      (c.nodes * 131 + c.gpus) * kSchedulerKinds + sched_kind);
  for (const char ch : c.name) {
    seed = seed * 31 + static_cast<unsigned char>(ch);
  }
  Rng rng(seed);
  int violations = 0;
  for (int k = 0; k < kCorruptions; ++k) {
    const Schedule bad = Corrupt(schedule, rng);
    const Status fast = ValidateSchedule(bad, dag, conns);
    const Status ref = PairwiseValidate(bad, dag, conns);
    ASSERT_EQ(MessageClass(fast), MessageClass(ref))
        << "corruption " << k << ": " << fast.ToString() << " vs "
        << ref.ToString();
    if (!fast.ok()) ++violations;
  }
  EXPECT_GT(violations, 0) << "no corruption was rejected";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ValidateDifferentialTest,
    ::testing::Combine(::testing::ValuesIn(Cases()),
                       ::testing::Range(0, kSchedulerKinds)),
    CaseName);

TEST(ValidateDifferential, EveryClassIsExercised) {
  // Across the whole library the seeded corruptions reach both the
  // data-dependency and the communication-dependency rejections.
  int comm = 0;
  int data = 0;
  for (const SchedulerCase& c : Cases()) {
    const Topology topo(presets::A100(c.nodes, c.gpus));
    const Algorithm algo = Make(c.name, topo);
    ConnectionTable conns(topo);
    DependencyGraph dag(algo, conns);
    Rng rng(static_cast<std::uint64_t>(c.nodes * 131 + c.gpus));
    for (int kind = 0; kind < kSchedulerKinds; ++kind) {
      const Schedule schedule = BuildSchedule(kind, dag, conns);
      ASSERT_GE(schedule.nwaves(), 2);
      for (int k = 0; k < 4; ++k) {
        const std::string cls =
            MessageClass(ValidateSchedule(Corrupt(schedule, rng), dag, conns));
        comm += cls == "communication dependency" ? 1 : 0;
        data += cls == "data dependency" ? 1 : 0;
      }
    }
  }
  EXPECT_GT(comm, 0);
  EXPECT_GT(data, 0);
}

}  // namespace
}  // namespace resccl
