// Unit and property tests for the fluid link model: single-flow timing,
// fair sharing, contention penalty, capacity conservation, usage accounting.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fluid_reference.h"
#include "sim/faults.h"
#include "sim/fluid.h"
#include "topology/topology.h"

namespace resccl {
namespace {

class FluidTest : public ::testing::Test {
 protected:
  FluidTest() : topo_(presets::A100(2, 8)), net_(topo_, cost_, queue_) {}

  void RunAll() {
    while (queue_.RunOne()) {
    }
  }

  Topology topo_;
  CostModel cost_;
  EventQueue queue_;
  FluidNetwork net_;
};

TEST_F(FluidTest, SingleIntraFlowRunsAtBottleneck) {
  const Path& path = topo_.PathBetween(0, 1);
  SimTime done = SimTime::Zero();
  net_.StartFlow(path, Size::MiB(3).bytes(), Bandwidth::GBps(1000),
                 [&](SimTime t) { done = t; });
  RunAll();
  // 3 MiB at 300 GB/s.
  EXPECT_NEAR(done.us(), 3.0 * 1048576 / 300e3, 0.01);
}

TEST_F(FluidTest, InjectionCapBinds) {
  const Path& path = topo_.PathBetween(0, 1);
  SimTime done = SimTime::Zero();
  net_.StartFlow(path, Size::MiB(1).bytes(), Bandwidth::GBps(10),
                 [&](SimTime t) { done = t; });
  RunAll();
  EXPECT_NEAR(done.us(), 1048576 / 10e3, 0.1);
}

TEST_F(FluidTest, TwoFlowsShareFairly) {
  // Two flows over the same NIC (ranks 0 and 1 share nic0): each gets the
  // fair share degraded by the NIC's γ.
  SimTime done0 = SimTime::Zero(), done1 = SimTime::Zero();
  net_.StartFlow(topo_.PathBetween(0, 8), Size::MiB(1).bytes(),
                 Bandwidth::GBps(1000), [&](SimTime t) { done0 = t; });
  net_.StartFlow(topo_.PathBetween(1, 9), Size::MiB(1).bytes(),
                 Bandwidth::GBps(1000), [&](SimTime t) { done1 = t; });
  RunAll();
  const double gamma = topo_.spec().nic_gamma;
  const double share = 25e3 / 2.0 / (1.0 + gamma);  // bytes/us
  const double expect_us = 1048576 / share;
  EXPECT_NEAR(done0.us(), expect_us, expect_us * 0.01);
  EXPECT_NEAR(done1.us(), expect_us, expect_us * 0.01);
}

TEST_F(FluidTest, LateJoinerSlowsEarlierFlow) {
  const Path& path0 = topo_.PathBetween(0, 8);
  const Path& path1 = topo_.PathBetween(1, 9);
  SimTime done0 = SimTime::Zero();
  net_.StartFlow(path0, Size::MiB(1).bytes(), Bandwidth::GBps(1000),
                 [&](SimTime t) { done0 = t; });
  // Second flow joins at 20us via an event.
  queue_.Schedule(SimTime::Us(20), [&](SimTime) {
    net_.StartFlow(path1, Size::MiB(1).bytes(), Bandwidth::GBps(1000),
                   [](SimTime) {});
  });
  RunAll();
  // Solo it would take ~41.9us; sharing after 20us pushes it later.
  EXPECT_GT(done0.us(), 45.0);
  EXPECT_LT(done0.us(), 70.0);
}

TEST_F(FluidTest, CompletionFreesCapacityForPeer) {
  SimTime done_small = SimTime::Zero(), done_big = SimTime::Zero();
  net_.StartFlow(topo_.PathBetween(0, 8), Size::KiB(64).bytes(),
                 Bandwidth::GBps(1000), [&](SimTime t) { done_small = t; });
  net_.StartFlow(topo_.PathBetween(1, 9), Size::MiB(2).bytes(),
                 Bandwidth::GBps(1000), [&](SimTime t) { done_big = t; });
  RunAll();
  EXPECT_LT(done_small.us(), done_big.us());
  // The big flow speeds up after the small one drains: total time must be
  // well under the full-share-for-both bound.
  const double full_contention = 2 * 1048576 / (25e3 / 2 / 1.08);
  EXPECT_LT(done_big.us(), full_contention);
}

TEST_F(FluidTest, UsageAccounting) {
  const Path& path = topo_.PathBetween(0, 1);
  net_.StartFlow(path, Size::MiB(1).bytes(), Bandwidth::GBps(1000),
                 [](SimTime) {});
  RunAll();
  const auto& out = net_.usage(path.resources[0]);
  EXPECT_EQ(out.bytes, Size::MiB(1).bytes());
  EXPECT_NEAR(out.active.us(), 1048576 / 300e3, 0.01);
  // An untouched resource stays at zero.
  const auto& other = net_.usage(topo_.PathBetween(4, 5).resources[0]);
  EXPECT_EQ(other.bytes, 0);
}

TEST_F(FluidTest, ActiveFlowCountTracks) {
  EXPECT_EQ(net_.ActiveFlowCount(), 0);
  net_.StartFlow(topo_.PathBetween(0, 1), Size::MiB(1).bytes(),
                 Bandwidth::GBps(1000), [](SimTime) {});
  EXPECT_EQ(net_.ActiveFlowCount(), 1);
  RunAll();
  EXPECT_EQ(net_.ActiveFlowCount(), 0);
}

TEST_F(FluidTest, RejectsEmptyFlow) {
  EXPECT_THROW(net_.StartFlow(topo_.PathBetween(0, 1), 0,
                              Bandwidth::GBps(1), [](SimTime) {}),
               std::logic_error);
}

// Property: with N concurrent flows through one NIC, aggregate throughput
// never exceeds capacity, and Fig. 4's shape holds — throughput ramps with
// flow count while injection-capped, then *degrades* under contention.
TEST_F(FluidTest, AggregateNeverExceedsCapacityAndFig4Shape) {
  const double tb_cap_gbps = 1.6 * 4;  // a 4-warp TB staging to the NIC
  std::vector<double> agg;
  for (int n : {1, 2, 4, 8, 12}) {
    EventQueue queue;
    FluidNetwork net(topo_, cost_, queue);
    SimTime last = SimTime::Zero();
    for (int i = 0; i < n; ++i) {
      // All flows share nic0 of node0 (ranks 0,1 -> 8,9): same uplink.
      net.StartFlow(topo_.PathBetween(i % 2, 8 + i % 2),
                    Size::MiB(4).bytes(), Bandwidth::GBps(tb_cap_gbps),
                    [&](SimTime t) { last = std::max(last, t); });
    }
    while (queue.RunOne()) {
    }
    const double total_bytes = 4.0 * 1048576 * n;
    const double gbps = total_bytes / 1e3 / last.us();
    EXPECT_LE(gbps, 25.0 + 1e-6) << n << " flows";
    agg.push_back(gbps);
  }
  EXPECT_GT(agg[1], agg[0]);        // 2 flows beat 1 (injection-capped)
  EXPECT_GT(agg[2], agg[1]);        // 4 flows approach line rate
  EXPECT_LT(agg[3], agg[2]);        // 8 flows: contention collapse (Fig. 4)
  EXPECT_LT(agg[4], agg[3]);        // and it keeps degrading
}

// --- Time-varying capacity (fault windows) ---------------------------------

// Degrades every resource on `path` to `scale` over [start, end).
FaultPlan DegradePath(const Path& path, double scale, SimTime start,
                      SimTime end = SimTime::Infinity()) {
  FaultPlan plan;
  for (const ResourceId r : path.resources) {
    FaultPlan::LinkFault fault;
    fault.resource = r;
    fault.start = start;
    fault.end = end;
    fault.capacity_scale = scale;
    plan.AddLinkFault(fault);
  }
  return plan;
}

// Two equal flows contend on the 0->1 fabric link: each runs at the Eq. 1
// share r1 = C/2/(1+γ) until the link degrades to scale s at time W, then at
// s*r1. Completion must hit W + (B - r1*W) / (s*r1) analytically.
TEST_F(FluidTest, DegradedMidTransferCompletesAtAnalyticTime) {
  const Path& path = topo_.PathBetween(0, 1);
  const double kScale = 0.5;
  const SimTime kWindow = SimTime::Us(7);
  const FaultPlan faults = DegradePath(path, kScale, kWindow);

  EventQueue queue;
  FluidNetwork net(topo_, cost_, queue, &faults);
  SimTime done0 = SimTime::Zero(), done1 = SimTime::Zero();
  const double bytes = static_cast<double>(Size::MiB(2).bytes());
  net.StartFlow(path, Size::MiB(2).bytes(), Bandwidth::GBps(1000),
                [&](SimTime t) { done0 = t; });
  net.StartFlow(path, Size::MiB(2).bytes(), Bandwidth::GBps(1000),
                [&](SimTime t) { done1 = t; });
  while (queue.RunOne()) {
  }

  const double gamma = topo_.spec().fabric_gamma;
  const double r1 = 300e3 / 2.0 / (1.0 + gamma);  // bytes/us, per flow
  const double expect_us =
      kWindow.us() + (bytes - r1 * kWindow.us()) / (kScale * r1);
  ASSERT_GT(bytes, r1 * kWindow.us());  // the fault really lands mid-transfer
  EXPECT_NEAR(done0.us(), expect_us, expect_us * 0.001);
  EXPECT_NEAR(done1.us(), expect_us, expect_us * 0.001);
}

// The inverse profile: the link starts degraded and recovers at W, so the
// flow finishes at W + (B - s*r1*W) / r1.
TEST_F(FluidTest, RecoveryMidTransferSpeedsFlowBackUp) {
  const Path& path = topo_.PathBetween(0, 1);
  const double kScale = 0.5;
  const SimTime kWindow = SimTime::Us(7);
  const FaultPlan faults =
      DegradePath(path, kScale, SimTime::Zero(), kWindow);

  EventQueue queue;
  FluidNetwork net(topo_, cost_, queue, &faults);
  SimTime done = SimTime::Zero();
  const double bytes = static_cast<double>(Size::MiB(2).bytes());
  net.StartFlow(path, Size::MiB(2).bytes(), Bandwidth::GBps(1000),
                [&](SimTime t) { done = t; });
  net.StartFlow(path, Size::MiB(2).bytes(), Bandwidth::GBps(1000),
                [](SimTime) {});
  while (queue.RunOne()) {
  }

  const double gamma = topo_.spec().fabric_gamma;
  const double r1 = 300e3 / 2.0 / (1.0 + gamma);
  const double expect_us =
      kWindow.us() + (bytes - kScale * r1 * kWindow.us()) / r1;
  ASSERT_GT(bytes, kScale * r1 * kWindow.us());
  EXPECT_NEAR(done.us(), expect_us, expect_us * 0.001);
}

// A window that opens only after the transfer would already be done leaves
// the timing bit-identical to a clean network.
TEST_F(FluidTest, WindowAfterCompletionHasNoEffect) {
  const Path& path = topo_.PathBetween(0, 1);
  SimTime clean_done = SimTime::Zero();
  {
    EventQueue queue;
    FluidNetwork net(topo_, cost_, queue);
    net.StartFlow(path, Size::MiB(3).bytes(), Bandwidth::GBps(1000),
                  [&](SimTime t) { clean_done = t; });
    while (queue.RunOne()) {
    }
  }

  const FaultPlan faults =
      DegradePath(path, 0.1, clean_done + SimTime::Us(100));
  EventQueue queue;
  FluidNetwork net(topo_, cost_, queue, &faults);
  SimTime done = SimTime::Zero();
  net.StartFlow(path, Size::MiB(3).bytes(), Bandwidth::GBps(1000),
                [&](SimTime t) { done = t; });
  while (queue.RunOne()) {
  }
  EXPECT_EQ(done.us(), clean_done.us());
}

// --- Incremental re-rate accounting (stats()) ------------------------------

// A solo flow costs exactly two RecomputeFlow calls on the incremental
// walk: the deferred-flush rating at start and the completion wake. Its
// completion matches the trace-replay reference (fluid_reference.h).
TEST_F(FluidTest, SoloFlowRerateCounts) {
  const Path& path = topo_.PathBetween(0, 1);
  const Bandwidth cap = Bandwidth::GBps(1000);

  SimTime done = SimTime::Zero();
  net_.StartFlow(path, Size::MiB(1).bytes(), cap,
                 [&](SimTime t) { done = t; });
  RunAll();
  EXPECT_EQ(net_.stats().recompute_calls, 2u);
  EXPECT_EQ(net_.stats().reschedules, 1u);

  const tests::ReferenceFlow flows[] = {
      {SimTime::Zero(), Size::MiB(1).bytes(), cap.bytes_per_us(),
       path.resources}};
  const SimTime want = tests::SolveReference(topo_, flows).complete[0];
  EXPECT_NEAR(done.us(), want.us(), want.us() * 1e-9);
}

// Two flows sharing a path, distinct sizes: one coalesced flush rates both
// at start (2), the first completion wake (1) triggers a single re-rate of
// the survivor at the flush (1), and the survivor's own wake completes it
// (1) — 5 total, independent of path length.
TEST_F(FluidTest, SharedPathRerateCountsCoalesceAndDedup) {
  const Path& path = topo_.PathBetween(0, 1);
  const Bandwidth cap = Bandwidth::GBps(1000);

  SimTime done = SimTime::Zero();
  net_.StartFlow(path, Size::MiB(1).bytes(), cap, [](SimTime) {});
  net_.StartFlow(path, Size::MiB(2).bytes(), cap,
                 [&](SimTime t) { done = t; });
  RunAll();
  EXPECT_EQ(net_.stats().recompute_calls, 5u);

  const tests::ReferenceFlow flows[] = {
      {SimTime::Zero(), Size::MiB(1).bytes(), cap.bytes_per_us(),
       path.resources},
      {SimTime::Zero(), Size::MiB(2).bytes(), cap.bytes_per_us(),
       path.resources}};
  const SimTime want = tests::SolveReference(topo_, flows).complete[1];
  EXPECT_NEAR(done.us(), want.us(), want.us() * 1e-9);
}

// Sequentially re-running flows must recycle Flow entries and event-queue
// slots instead of growing the arenas.
TEST_F(FluidTest, ArenaAndSlotReuseBoundAllocation) {
  const Path& path = topo_.PathBetween(0, 1);
  for (int i = 0; i < 10; ++i) {
    net_.StartFlow(path, Size::KiB(64).bytes(), Bandwidth::GBps(1000),
                   [](SimTime) {});
    RunAll();
  }
  EXPECT_EQ(net_.stats().flows_started, 10u);
  EXPECT_EQ(net_.stats().flows_recycled, 9u);
  EXPECT_EQ(queue_.allocated_slots(), 1u);
}

// A diagnostic FlowRate read inside the current timestamp must observe the
// rate the deferred marks imply, not the pre-flush zero.
TEST_F(FluidTest, FlowRateReadFlushesDeferredRates) {
  const FlowId id = net_.StartFlow(topo_.PathBetween(0, 1),
                                   Size::MiB(1).bytes(),
                                   Bandwidth::GBps(1000), [](SimTime) {});
  // 300 GB/s bottleneck, solo: 300e3 bytes/us.
  EXPECT_NEAR(net_.FlowRate(id), 300e3, 1.0);
}

// Property: random flow soup still conserves bytes and terminates.
TEST_F(FluidTest, RandomSoupDrainsCompletely) {
  Rng rng(42);
  int completed = 0;
  const int kFlows = 60;
  for (int i = 0; i < kFlows; ++i) {
    Rank a = static_cast<Rank>(rng.NextInt(0, topo_.nranks() - 1));
    Rank b = static_cast<Rank>(rng.NextInt(0, topo_.nranks() - 1));
    if (a == b) b = (b + 1) % topo_.nranks();
    net_.StartFlow(topo_.PathBetween(a, b),
                   rng.NextInt(1024, Size::MiB(2).bytes()),
                   Bandwidth::GBps(static_cast<double>(rng.NextInt(5, 400))),
                   [&](SimTime) { ++completed; });
  }
  RunAll();
  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(net_.ActiveFlowCount(), 0);
}

}  // namespace
}  // namespace resccl
