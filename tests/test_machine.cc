// Unit tests for the TB execution machine: rendezvous, dependencies,
// barriers, stats accounting, deadlock detection.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/hierarchical.h"
#include "algorithms/synthesized.h"
#include "runtime/backend.h"
#include "runtime/lowering.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl {
namespace {

SimTransferDecl MakeDecl(Rank src, Rank dst, std::int64_t bytes) {
  SimTransferDecl d;
  d.src = src;
  d.dst = dst;
  d.bytes = bytes;
  return d;
}

SimTb MakeTb(Rank rank, std::vector<SimInstr> program) {
  SimTb tb;
  tb.rank = rank;
  tb.program = std::move(program);
  return tb;
}

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : topo_(presets::A100(2, 8)) {}

  // One transfer between src/dst plus dedicated send/recv TBs.
  static SimProgram SingleTransfer(Rank src, Rank dst, std::int64_t bytes) {
    SimProgram p;
    p.AddTransfer(MakeDecl(src, dst, bytes));
    p.tbs.push_back(MakeTb(src, {SimInstr{SimInstr::Kind::kSendSide, 0, -1, {}}}));
    p.tbs.push_back(MakeTb(dst, {SimInstr{SimInstr::Kind::kRecvSide, 0, -1, {}}}));
    return p;
  }

  Topology topo_;
  CostModel cost_;
};

TEST_F(MachineTest, SingleIntraTransferTiming) {
  SimMachine machine(topo_, cost_);
  const SimRunReport r = machine.Run(SingleTransfer(0, 1, Size::MiB(1).bytes()));
  // α (2us) + 1MiB at 300 GB/s (~3.5us).
  EXPECT_NEAR(r.makespan.us(), 2.0 + 1048576 / 300e3, 0.05);
  ASSERT_EQ(r.transfers.size(), 1u);
  EXPECT_DOUBLE_EQ(r.transfers[0].start.us(), 0.0);
  EXPECT_EQ(r.transfers[0].complete, r.makespan);
}

TEST_F(MachineTest, InterTransferPaysHigherLatency) {
  SimMachine machine(topo_, cost_);
  const SimRunReport r = machine.Run(SingleTransfer(0, 8, Size::MiB(1).bytes()));
  // α (5us) + 1MiB at 25 GB/s (~41.9us).
  EXPECT_NEAR(r.makespan.us(), 5.0 + 1048576 / 25e3, 0.1);
}

TEST_F(MachineTest, ReduceTransferCostsMore) {
  SimMachine machine(topo_, cost_);
  SimProgram plain = SingleTransfer(0, 1, Size::MiB(1).bytes());
  SimProgram reduce = SingleTransfer(0, 1, Size::MiB(1).bytes());
  reduce.transfers[0].is_reduce = true;
  const SimTime t_plain = machine.Run(plain).makespan;
  const SimTime t_reduce = machine.Run(reduce).makespan;
  EXPECT_GT(t_reduce, t_plain);
}

TEST_F(MachineTest, RendezvousWaitCountsAsSync) {
  // The receiver arrives immediately; the sender is delayed by overhead.
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, Size::MiB(1).bytes()));
  SimInstr send{SimInstr::Kind::kSendSide, 0, -1, SimTime::Us(50)};
  SimInstr recv{SimInstr::Kind::kRecvSide, 0, -1, {}};
  p.tbs.push_back(MakeTb(0, {send}));
  p.tbs.push_back(MakeTb(1, {recv}));
  SimMachine machine(topo_, cost_);
  const SimRunReport r = machine.Run(p);
  EXPECT_NEAR(r.tbs[1].sync.us(), 50.0, 0.01);   // receiver waited
  EXPECT_NEAR(r.tbs[0].sync.us(), 0.0, 0.01);    // sender never waited
  EXPECT_NEAR(r.tbs[0].overhead.us(), 50.0, 0.01);
  EXPECT_GT(r.tbs[0].busy.us(), 0.0);
  EXPECT_EQ(r.tbs[0].busy, r.tbs[1].busy);
}

TEST_F(MachineTest, DependencyOrdersTransfers) {
  // t1 (1->2) depends on t0 (0->1): a forwarding chain.
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, Size::MiB(1).bytes()));
  p.AddTransfer(MakeDecl(1, 2, Size::MiB(1).bytes()), std::vector<int>{0});
  p.tbs.push_back(MakeTb(0, {SimInstr{SimInstr::Kind::kSendSide, 0, -1, {}}}));
  p.tbs.push_back(MakeTb(1, {SimInstr{SimInstr::Kind::kRecvSide, 0, -1, {}},
                    SimInstr{SimInstr::Kind::kSendSide, 1, -1, {}}}));
  p.tbs.push_back(MakeTb(2, {SimInstr{SimInstr::Kind::kRecvSide, 1, -1, {}}}));
  SimMachine machine(topo_, cost_);
  const SimRunReport r = machine.Run(p);
  EXPECT_GE(r.transfers[1].start, r.transfers[0].complete);
}

TEST_F(MachineTest, IndependentTransfersOverlap) {
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, Size::MiB(1).bytes()));
  p.AddTransfer(MakeDecl(2, 3, Size::MiB(1).bytes()));
  for (int t = 0; t < 2; ++t) {
    p.tbs.push_back(MakeTb(static_cast<Rank>(2 * t), {SimInstr{SimInstr::Kind::kSendSide, t, -1, {}}}));
    p.tbs.push_back(MakeTb(static_cast<Rank>(2 * t + 1), {SimInstr{SimInstr::Kind::kRecvSide, t, -1, {}}}));
  }
  SimMachine machine(topo_, cost_);
  const SimRunReport r = machine.Run(p);
  // Disjoint resources: both finish in single-transfer time.
  EXPECT_NEAR(r.makespan.us(), 2.0 + 1048576 / 300e3, 0.05);
}

TEST_F(MachineTest, BarrierSynchronizesAndAccountsSync) {
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, Size::MiB(4).bytes()));
  p.barrier_parties = {3};
  SimInstr barrier{SimInstr::Kind::kBarrier, -1, 0, {}};
  p.tbs.push_back(MakeTb(0, {SimInstr{SimInstr::Kind::kSendSide, 0, -1, {}}, barrier}));
  p.tbs.push_back(MakeTb(1, {SimInstr{SimInstr::Kind::kRecvSide, 0, -1, {}}, barrier}));
  p.tbs.push_back(MakeTb(2, {barrier}));  // joins immediately, waits for both
  SimMachine machine(topo_, cost_);
  const SimRunReport r = machine.Run(p);
  // All three finish together, at the transfer's completion.
  EXPECT_EQ(r.tbs[0].finish, r.tbs[1].finish);
  EXPECT_EQ(r.tbs[1].finish, r.tbs[2].finish);
  EXPECT_NEAR(r.tbs[2].sync.us(), r.makespan.us(), 0.01);
}

TEST_F(MachineTest, MissingPeerIsDeadlockNotHang) {
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, 1024));
  p.tbs.push_back(MakeTb(0, {SimInstr{SimInstr::Kind::kSendSide, 0, -1, {}}}));
  // No receiver TB.
  SimMachine machine(topo_, cost_);
  try {
    (void)machine.Run(p);
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no receiver"), std::string::npos);
  }
}

TEST_F(MachineTest, UnsatisfiableDependencyIsDeadlock) {
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, 1024), std::vector<int>{1});
  p.AddTransfer(MakeDecl(2, 3, 1024));  // never joined by any TB
  p.tbs.push_back(MakeTb(0, {SimInstr{SimInstr::Kind::kSendSide, 0, -1, {}}}));
  p.tbs.push_back(MakeTb(1, {SimInstr{SimInstr::Kind::kRecvSide, 0, -1, {}}}));
  SimMachine machine(topo_, cost_);
  EXPECT_THROW((void)machine.Run(p), std::runtime_error);
}

TEST_F(MachineTest, WrongRankProgramRejected) {
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, 1024));
  p.tbs.push_back(MakeTb(5, {SimInstr{SimInstr::Kind::kSendSide, 0, -1, {}}}));
  p.tbs.push_back(MakeTb(1, {SimInstr{SimInstr::Kind::kRecvSide, 0, -1, {}}}));
  SimMachine machine(topo_, cost_);
  EXPECT_THROW((void)machine.Run(p), std::logic_error);
}

TEST_F(MachineTest, SelfLoopRejected) {
  SimProgram p;
  p.AddTransfer(MakeDecl(3, 3, 1024));
  SimMachine machine(topo_, cost_);
  EXPECT_THROW((void)machine.Run(p), std::logic_error);
}

TEST_F(MachineTest, IdleRatiosComputed) {
  SimProgram p;
  p.AddTransfer(MakeDecl(0, 1, Size::MiB(1).bytes()));
  SimInstr send{SimInstr::Kind::kSendSide, 0, -1, {}};
  SimInstr recv{SimInstr::Kind::kRecvSide, 0, -1, SimTime::Us(30)};
  p.tbs.push_back(MakeTb(0, {send}));
  p.tbs.push_back(MakeTb(1, {recv}));
  SimMachine machine(topo_, cost_);
  const SimRunReport r = machine.Run(p);
  // The sender waits 30us for the receiver's overhead: sync/finish > 0.
  EXPECT_GT(r.MaxIdleRatio(), 0.5);
  EXPECT_GT(r.AvgIdleRatio(), 0.0);
  EXPECT_LT(r.AvgBusyRatio(), 1.0);
}

TEST_F(MachineTest, ReusableAcrossRuns) {
  SimMachine machine(topo_, cost_);
  const SimRunReport a = machine.Run(SingleTransfer(0, 1, 1 << 20));
  const SimRunReport b = machine.Run(SingleTransfer(0, 1, 1 << 20));
  EXPECT_EQ(a.makespan, b.makespan);
}

auto StatsTuple(const FluidNetwork::Stats& s) {
  return std::make_tuple(s.flows_started, s.flows_recycled, s.recompute_calls,
                         s.walk_visits, s.binding_skips,
                         s.rate_unchanged_skips, s.reschedules);
}

void ExpectSameRun(const SimRunReport& a, const SimRunReport& b) {
  EXPECT_EQ(a.makespan.us(), b.makespan.us());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(StatsTuple(a.fluid), StatsTuple(b.fluid));
  EXPECT_EQ(a.queue.popped, b.queue.popped);
  EXPECT_EQ(a.queue.skipped_stale, b.queue.skipped_stale);
  EXPECT_EQ(a.queue.peak_heap, b.queue.peak_heap);
  ASSERT_EQ(a.tbs.size(), b.tbs.size());
  for (std::size_t i = 0; i < a.tbs.size(); ++i) {
    EXPECT_EQ(a.tbs[i].busy.us(), b.tbs[i].busy.us());
    EXPECT_EQ(a.tbs[i].sync.us(), b.tbs[i].sync.us());
    EXPECT_EQ(a.tbs[i].finish.us(), b.tbs[i].finish.us());
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t t = 0; t < a.transfers.size(); ++t) {
    EXPECT_EQ(a.transfers[t].start.us(), b.transfers[t].start.us());
    EXPECT_EQ(a.transfers[t].complete.us(), b.transfers[t].complete.us());
  }
  ASSERT_EQ(a.link_usage.size(), b.link_usage.size());
  for (std::size_t r = 0; r < a.link_usage.size(); ++r) {
    EXPECT_EQ(a.link_usage[r].bytes, b.link_usage[r].bytes);
    EXPECT_EQ(a.link_usage[r].active.us(), b.link_usage[r].active.us());
  }
}

// A reused machine runs every program exactly as a fresh one would — same
// timing and the same event and re-rate counters, whatever it ran before.
// The cells are the 2x8 replay workload's (three plans × four sizes), run
// in mixed order on one warm machine.
TEST(MachineReuse, WarmMachineMatchesFreshAcrossShapes) {
  const Topology topo(presets::A100(2, 8));
  const CostModel cost;
  std::vector<SimProgram> programs;
  for (const Algorithm& algo : {algorithms::HierarchicalMeshAllReduce(topo),
                                algorithms::HierarchicalMeshAllGather(topo),
                                algorithms::TacclLikeAllReduce(topo)}) {
    const Result<PreparedPlan> prepared =
        Prepare(algo, topo, BackendKind::kResCCL);
    ASSERT_TRUE(prepared.ok());
    for (const int mib : {8, 32, 128, 512}) {
      LaunchConfig launch;
      launch.buffer = Size::MiB(mib);
      programs.push_back(Lower(prepared.value()->plan, cost, launch,
                               topo.spec().channels_per_peer)
                             .program);
    }
  }
  SimMachine warm(topo, cost);
  for (std::size_t k = 0; k < programs.size(); ++k) {
    const std::size_t i = k * 5 % programs.size();  // 5 is coprime to 12
    SCOPED_TRACE("cell " + std::to_string(i));
    SimMachine fresh(topo, cost);
    ExpectSameRun(warm.Run(programs[i]), fresh.Run(programs[i]));
  }
}

}  // namespace
}  // namespace resccl
