// Property suite for deterministic fault injection: ~200 seeded FaultPlans
// swept across every algorithm × backend. Three invariants:
//   * faults change timing, never data — VerifyLoweredExecution still holds;
//   * a faulted run is never faster than the clean replay of the same plan;
//   * the same seed reproduces a bit-identical SimRunReport.
// A reused ExecContext memoizes the clean replay; its reports must equal a
// fresh context's through every change that invalidates the memo. Fault
// plans naming resources the fabric lacks are rejected.
// The base seed is overridable via RESCCL_FAULT_SEED so CI can sweep
// distinct seed families without a rebuild.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "algo_cases.h"
#include "runtime/backend.h"
#include "runtime/exec_context.h"
#include "sim/faults.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using tests::AlgoCase;
using tests::AlgorithmCases;

std::uint64_t BaseSeed() {
  const char* env = std::getenv("RESCCL_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

// Field-exact equality of two run reports; any divergence means the fault
// machinery consumed non-deterministic state (clock, query order, ...).
void ExpectIdenticalReports(const SimRunReport& a, const SimRunReport& b) {
  EXPECT_EQ(a.makespan.us(), b.makespan.us());
  ASSERT_EQ(a.tbs.size(), b.tbs.size());
  for (std::size_t i = 0; i < a.tbs.size(); ++i) {
    EXPECT_EQ(a.tbs[i].rank, b.tbs[i].rank);
    EXPECT_EQ(a.tbs[i].busy.us(), b.tbs[i].busy.us());
    EXPECT_EQ(a.tbs[i].sync.us(), b.tbs[i].sync.us());
    EXPECT_EQ(a.tbs[i].overhead.us(), b.tbs[i].overhead.us());
    EXPECT_EQ(a.tbs[i].fault_stall.us(), b.tbs[i].fault_stall.us());
    EXPECT_EQ(a.tbs[i].finish.us(), b.tbs[i].finish.us());
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].start.us(), b.transfers[i].start.us());
    EXPECT_EQ(a.transfers[i].complete.us(), b.transfers[i].complete.us());
  }
  ASSERT_EQ(a.stalls.size(), b.stalls.size());
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(a.stalls[i].tb, b.stalls[i].tb);
    EXPECT_EQ(a.stalls[i].start.us(), b.stalls[i].start.us());
    EXPECT_EQ(a.stalls[i].duration.us(), b.stalls[i].duration.us());
  }
}

PreparedPlan PrepareResCCL(const Algorithm& algo, const Topology& topo) {
  return Prepare(algo, topo, BackendKind::kResCCL).value();
}

// Field-exact equality of two faulted-vs-clean comparisons.
void ExpectIdenticalImpact(const FaultImpact& a, const FaultImpact& b) {
  EXPECT_EQ(a.faulted, b.faulted);
  EXPECT_EQ(a.clean_makespan.us(), b.clean_makespan.us());
  EXPECT_EQ(a.slowdown_vs_clean, b.slowdown_vs_clean);
  EXPECT_EQ(a.total_stall.us(), b.total_stall.us());
  EXPECT_EQ(a.worst_rank, b.worst_rank);
  EXPECT_EQ(a.worst_rank_finish.us(), b.worst_rank_finish.us());
  EXPECT_EQ(a.worst_rank_stall.us(), b.worst_rank_stall.us());
  EXPECT_EQ(a.worst_rank_idle, b.worst_rank_idle);
}

class FaultProperty
    : public ::testing::TestWithParam<std::tuple<AlgoCase, BackendKind>> {};

// Four seeded fault plans per (algorithm, backend) on one prepared plan:
// 17 algorithms x 3 backends x 4 seeds = 204 faulted executions.
TEST_P(FaultProperty, FaultsPerturbTimingNeverData) {
  const auto& [algo_case, backend] = GetParam();
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algo_case.make(topo);
  const PreparedPlan prepared = Prepare(algo, topo, backend).value();

  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  request.verify_elems = 2;

  const std::uint64_t base = BaseSeed();
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t seed = base * 1000003 + static_cast<std::uint64_t>(i);
    const double intensity = 0.25 * (i + 1);
    request.faults = FaultPlan::Make(seed, intensity, topo);
    ASSERT_FALSE(request.faults.empty());

    const CollectiveReport r = Execute(*prepared, request);
    SCOPED_TRACE("seed=" + std::to_string(seed));

    // Timing, never data.
    EXPECT_TRUE(r.verified) << r.verify_error;

    // A faulted fabric cannot beat the clean replay of the same plan.
    ASSERT_TRUE(r.fault.faulted);
    EXPECT_GE(r.sim.makespan.us(), r.fault.clean_makespan.us() - 1e-9);
    EXPECT_GE(r.fault.slowdown_vs_clean, 1.0 - 1e-9);

    // Accounting: the new fault_stall bucket joins the per-TB breakdown
    // without breaking the lifetime bound, and the report-level total
    // matches the recorded stall slices.
    SimTime slice_total;
    for (const auto& s : r.sim.stalls) slice_total += s.duration;
    SimTime bucket_total;
    for (const TbStats& tb : r.sim.tbs) {
      bucket_total += tb.fault_stall;
      EXPECT_LE(tb.busy + tb.sync + tb.overhead + tb.fault_stall,
                tb.finish + SimTime::Us(0.01));
    }
    EXPECT_DOUBLE_EQ(slice_total.us(), bucket_total.us());
    EXPECT_DOUBLE_EQ(r.fault.total_stall.us(), bucket_total.us());

    EXPECT_EQ(r.fault.worst_rank == kInvalidRank, r.sim.tbs.empty());

    // Same seed, same plan: bit-identical report.
    if (i == 0) {
      const CollectiveReport again = Execute(*prepared, request);
      ExpectIdenticalReports(r.sim, again.sim);
      EXPECT_EQ(r.fault.slowdown_vs_clean, again.fault.slowdown_vs_clean);
    }
  }
}

std::string FaultPropertyName(
    const ::testing::TestParamInfo<std::tuple<AlgoCase, BackendKind>>& info) {
  const auto& [a, b] = info.param;
  return std::string(a.name) + "_" + BackendName(b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultProperty,
    ::testing::Combine(::testing::ValuesIn(AlgorithmCases()),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike)),
    FaultPropertyName);

TEST(FaultPlanTest, MakeIsDeterministic) {
  const Topology topo(presets::A100(2, 4));
  const FaultPlan a = FaultPlan::Make(42, 0.7, topo);
  const FaultPlan b = FaultPlan::Make(42, 0.7, topo);
  ASSERT_EQ(a.link_faults().size(), b.link_faults().size());
  for (std::size_t i = 0; i < a.link_faults().size(); ++i) {
    EXPECT_EQ(a.link_faults()[i].resource, b.link_faults()[i].resource);
    EXPECT_EQ(a.link_faults()[i].start.us(), b.link_faults()[i].start.us());
    EXPECT_EQ(a.link_faults()[i].end.us(), b.link_faults()[i].end.us());
    EXPECT_EQ(a.link_faults()[i].capacity_scale,
              b.link_faults()[i].capacity_scale);
  }
  for (int tb = 0; tb < 16; ++tb) {
    EXPECT_EQ(a.StallFor(tb, 10).before_instr, b.StallFor(tb, 10).before_instr);
    EXPECT_EQ(a.StallFor(tb, 10).duration.us(),
              b.StallFor(tb, 10).duration.us());
  }
  for (int t = 0; t < 64; ++t) {
    EXPECT_EQ(a.LatencyScale(t), b.LatencyScale(t));
  }
}

TEST(FaultPlanTest, DifferentSeedsDiffer) {
  const Topology topo(presets::A100(2, 4));
  const FaultPlan a = FaultPlan::Make(1, 0.7, topo);
  const FaultPlan b = FaultPlan::Make(2, 0.7, topo);
  bool any_difference = a.link_faults().size() != b.link_faults().size();
  for (std::size_t i = 0;
       !any_difference && i < a.link_faults().size(); ++i) {
    any_difference = a.link_faults()[i].capacity_scale !=
                         b.link_faults()[i].capacity_scale ||
                     a.link_faults()[i].resource != b.link_faults()[i].resource;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, ZeroIntensityIsEmptyAndClean) {
  const Topology topo(presets::A100(2, 4));
  EXPECT_TRUE(FaultPlan::Make(42, 0.0, topo).empty());

  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan prepared =
      Prepare(algo, topo, BackendKind::kResCCL).value();
  RunRequest clean;
  clean.launch.buffer = Size::MiB(4);
  RunRequest zero = clean;
  zero.faults = FaultPlan::Make(42, 0.0, topo);

  const CollectiveReport a = Execute(*prepared, clean);
  const CollectiveReport b = Execute(*prepared, zero);
  EXPECT_FALSE(a.fault.faulted);
  EXPECT_FALSE(b.fault.faulted);
  EXPECT_TRUE(b.sim.stalls.empty());
  ExpectIdenticalReports(a.sim, b.sim);
}

TEST(FaultPlanTest, CapacityScaleRespectsWindows) {
  const Topology topo(presets::A100(1, 2));
  FaultPlan plan;
  FaultPlan::LinkFault fault;
  fault.resource = ResourceId(0);
  fault.start = SimTime::Us(10);
  fault.end = SimTime::Us(20);
  fault.capacity_scale = 0.5;
  plan.AddLinkFault(fault);

  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(5)), 1.0);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(10)), 0.5);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(19)), 0.5);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(20)), 1.0);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(1), SimTime::Us(15)), 1.0);

  // Transition points are strictly ahead of `now`.
  EXPECT_EQ(plan.NextTransitionAfter(ResourceId(0), SimTime::Us(5)).us(), 10.0);
  EXPECT_EQ(plan.NextTransitionAfter(ResourceId(0), SimTime::Us(10)).us(),
            20.0);
  EXPECT_TRUE(plan.NextTransitionAfter(ResourceId(0), SimTime::Us(20))
                  .is_infinite());
}

// One ExecContext runs every change that must re-run its memoized clean
// replay, and a few that must not. Each call's report must equal a fresh
// context's bit for bit: the one-shot Execute for one job, a new ExecContext
// for a co-run. Where the memo must be stale, the fresh clean makespan also
// differs from the previous faulted call's, so a memo that misses that
// invalidation cannot pass.
TEST(FaultMemoTest, ReusedContextMatchesFreshThroughEveryInvalidation) {
  const Topology topo(presets::A100(2, 4));
  const PreparedPlan a =
      PrepareResCCL(algorithms::RingAllReduce(topo.nranks()), topo);
  const PreparedPlan b =
      PrepareResCCL(algorithms::HierarchicalMeshAllReduce(topo), topo);

  RunRequest small;
  small.launch.buffer = Size::MiB(4);
  small.launch.chunk = Size::KiB(128);
  RunRequest big = small;
  big.launch.buffer = Size::MiB(8);
  RunRequest ll = big;
  ll.launch.protocol = Protocol::kLL;

  std::vector<FaultPlan> faults;
  const std::uint64_t base = BaseSeed();
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t seed = base * 1000003 + static_cast<std::uint64_t>(i);
    faults.push_back(FaultPlan::Make(seed, 0.25 * (i + 1), topo));
  }
  const auto faulted = [&](RunRequest request, int k) {
    request.faults = faults[static_cast<std::size_t>(k)];
    return request;
  };

  // One call: its jobs (a co-run when more than one), its request, and
  // whether the memo must be stale on it.
  struct Step {
    std::string label;
    std::vector<ExecJob> jobs;
    RunRequest request;
    bool stale;
  };
  const auto one = [](const PreparedPlan& plan, const RunRequest& request) {
    return std::vector<ExecJob>{{plan, request.launch}};
  };
  const std::vector<ExecJob> corun = {{a, small.launch}, {b, big.launch}};
  const std::vector<Step> steps = {
      {"A, fault plan 0", one(a, small), faulted(small, 0), true},
      {"A, fault plan 1", one(a, small), faulted(small, 1), false},
      {"A, fault plan 2", one(a, small), faulted(small, 2), false},
      {"buffer change", one(a, big), faulted(big, 0), true},
      {"Simple to LL", one(a, ll), faulted(ll, 1), true},
      {"plan B", one(b, ll), faulted(ll, 1), true},
      {"clean B", one(b, ll), ll, false},
      {"B after a clean call", one(b, ll), faulted(ll, 2), false},
      {"clean A re-lowers", one(a, small), small, false},
      {"A after a clean re-lower", one(a, small), faulted(small, 2), true},
      {"co-run A+B", corun, faulted(small, 0), true},
      {"A alone", one(a, small), faulted(small, 1), true},
      {"co-run A+B again", corun, faulted(small, 2), true},
  };

  ExecContext ctx;
  SimTime last_clean;  // the previous faulted call's clean makespan
  for (const Step& step : steps) {
    SCOPED_TRACE(step.label);
    const CollectiveReport& got = ctx.Execute(step.jobs, step.request);
    ExecContext fresh_ctx;
    const CollectiveReport want =
        step.jobs.size() == 1 ? Execute(*step.jobs[0].plan, step.request)
                              : fresh_ctx.Execute(step.jobs, step.request);
    EXPECT_EQ(got.sim.makespan.us(), want.sim.makespan.us());
    ExpectIdenticalImpact(got.fault, want.fault);
    if (!want.fault.faulted) continue;
    if (step.stale) {
      EXPECT_NE(want.fault.clean_makespan.us(), last_clean.us());
    } else {
      EXPECT_EQ(want.fault.clean_makespan.us(), last_clean.us());
    }
    last_clean = want.fault.clean_makespan;
  }
}

// A FaultPlan is tied to the fabric it was sampled for. One naming a
// resource id the plan's topology lacks is rejected, on the one-shot path
// and on a reused context, and the context still serves valid requests.
TEST(FaultPlanTest, ForeignResourcesAreRejected) {
  const Topology topo(presets::A100(2, 8));
  const PreparedPlan plan =
      PrepareResCCL(algorithms::RingAllReduce(topo.nranks()), topo);
  RunRequest valid;
  valid.launch.buffer = Size::MiB(4);
  valid.faults = FaultPlan::Make(5, 1.0, topo);

  // Sampled for a fabric with twice the resources.
  const Topology bigger(presets::A100(4, 8));
  ASSERT_GT(bigger.resources().size(), topo.resources().size());
  RunRequest foreign = valid;
  foreign.faults = FaultPlan::Make(5, 1.0, bigger);

  // A hand-built fault far past the last resource.
  RunRequest far = valid;
  far.faults = FaultPlan();
  FaultPlan::LinkFault fault;
  fault.resource = ResourceId(1'000'000);
  fault.capacity_scale = 0.5;
  far.faults.AddLinkFault(fault);

  ExecContext ctx;
  (void)ctx.Execute(plan, valid);
  for (const RunRequest* bad : {&foreign, &far}) {
    EXPECT_THROW((void)Execute(*plan, *bad), std::invalid_argument);
    EXPECT_THROW((void)ctx.Execute(plan, *bad), std::invalid_argument);
    const CollectiveReport want = Execute(*plan, valid);
    const CollectiveReport& got = ctx.Execute(plan, valid);
    EXPECT_EQ(got.sim.makespan.us(), want.sim.makespan.us());
    ExpectIdenticalImpact(got.fault, want.fault);
  }
}

}  // namespace
}  // namespace resccl
