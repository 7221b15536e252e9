// Multi-tenant scheduling service: admission, coalescing, weighted
// fairness, priority-ordered shedding, deterministic batching, and
// live-mode (threaded) equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/ring.h"
#include "algorithms/tree.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/workload.h"
#include "sim/faults.h"
#include "topology/topology.h"

namespace resccl::service {
namespace {

std::shared_ptr<const Topology> SmallTopo() {
  return std::make_shared<const Topology>(presets::A100(1, 4));
}

Request SmallRequest(const Topology& topo,
                     const std::string& tenant = "default",
                     Priority priority = Priority::kNormal) {
  Request req;
  req.tenant = tenant;
  req.priority = priority;
  req.algorithm = algorithms::RingAllReduce(topo.nranks());
  req.run.launch.buffer = Size::MiB(4);
  return req;
}

// --- Basic serving ---------------------------------------------------------

TEST(ServiceTest, ServesOneRequest) {
  auto topo = SmallTopo();
  SchedulingService svc(topo, ServiceConfig{});
  const std::uint64_t id = svc.Submit(SmallRequest(*topo));
  EXPECT_EQ(svc.queued(), 1u);
  EXPECT_TRUE(svc.Step());
  EXPECT_FALSE(svc.Step());

  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, id);
  EXPECT_EQ(out[0].outcome, Outcome::kServed);
  EXPECT_GT(out[0].report.elapsed.us(), 0.0);

  const SchedulingService::Stats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.prepares, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  // The batch makespan advanced the virtual clock.
  EXPECT_GT(svc.VirtualNow(), 0.0);
}

TEST(ServiceTest, DrainIsDestructive) {
  auto topo = SmallTopo();
  SchedulingService svc(topo, ServiceConfig{});
  (void)svc.Submit(SmallRequest(*topo));
  svc.RunUntilQuiescent();
  EXPECT_EQ(svc.Drain().size(), 1u);
  EXPECT_TRUE(svc.Drain().empty());
}

// --- Coalescing ------------------------------------------------------------

TEST(ServiceTest, IdenticalBatchCompilesOnce) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.max_in_flight = 8;
  SchedulingService svc(topo, config);
  for (int i = 0; i < 8; ++i) {
    (void)svc.Submit(SmallRequest(*topo, "t" + std::to_string(i % 3)));
  }
  svc.RunUntilQuiescent();

  // One compile for the whole batch; everyone else shares the artifact.
  EXPECT_EQ(svc.plan_cache().stats().misses, 1u);
  const SchedulingService::Stats stats = svc.stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.prepares, 1u);
  EXPECT_EQ(stats.coalesced, 7u);

  // All eight reports describe the same plan and the same launch: their
  // simulated results must be bit-identical.
  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 8u);
  for (const Response& r : out) {
    EXPECT_EQ(r.outcome, Outcome::kServed);
    EXPECT_EQ(r.report.elapsed.us(), out[0].report.elapsed.us());
    EXPECT_EQ(r.report.algo_bw.gbps(), out[0].report.algo_bw.gbps());
    EXPECT_EQ(r.report.sim.events, out[0].report.sim.events);
  }
}

TEST(ServiceTest, TenancyNeverEntersTheFingerprint) {
  auto topo = SmallTopo();
  SchedulingService svc(topo, ServiceConfig{});
  // Different tenants, priorities, and buffer sizes — same compile inputs.
  Request a = SmallRequest(*topo, "alice", Priority::kHigh);
  Request b = SmallRequest(*topo, "bob", Priority::kLow);
  b.run.launch.buffer = Size::MiB(16);
  (void)svc.Submit(a);
  (void)svc.Submit(b);
  svc.RunUntilQuiescent();
  EXPECT_EQ(svc.plan_cache().stats().misses, 1u);
  EXPECT_EQ(svc.stats().served, 2u);
}

// --- Weighted fairness -----------------------------------------------------

TEST(ServiceTest, BackloggedTenantsShareByWeight) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.queue_bound = 256;
  config.max_in_flight = 1;
  config.tenants = {{"a", 2.0}, {"b", 1.0}, {"c", 1.0}};
  SchedulingService svc(topo, config);
  for (int i = 0; i < 40; ++i) {
    for (const char* t : {"a", "b", "c"}) {
      (void)svc.Submit(SmallRequest(*topo, t));
    }
  }
  // Serve half the backlog so every tenant stays backlogged throughout.
  for (int s = 0; s < 60; ++s) ASSERT_TRUE(svc.Step());

  const SchedulingService::Stats stats = svc.stats();
  const auto a = static_cast<double>(stats.served_bytes.at("a"));
  const auto b = static_cast<double>(stats.served_bytes.at("b"));
  const auto c = static_cast<double>(stats.served_bytes.at("c"));
  const double total = a + b + c;
  EXPECT_NEAR(a / total, 0.50, 0.05);
  EXPECT_NEAR(b / total, 0.25, 0.025);
  EXPECT_NEAR(c / total, 0.25, 0.025);
  svc.RunUntilQuiescent();
}

TEST(ServiceTest, StrictPriorityAcrossClasses) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.max_in_flight = 1;
  SchedulingService svc(topo, config);
  const std::uint64_t low =
      svc.Submit(SmallRequest(*topo, "t", Priority::kLow));
  const std::uint64_t normal =
      svc.Submit(SmallRequest(*topo, "t", Priority::kNormal));
  const std::uint64_t high =
      svc.Submit(SmallRequest(*topo, "t", Priority::kHigh));
  svc.RunUntilQuiescent();
  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, high);
  EXPECT_EQ(out[1].id, normal);
  EXPECT_EQ(out[2].id, low);
}

// --- Overload --------------------------------------------------------------

TEST(ServiceTest, OverloadShedsLowestClassForUrgentArrivals) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.queue_bound = 4;
  SchedulingService svc(topo, config);

  std::vector<std::uint64_t> low_ids;
  for (int i = 0; i < 4; ++i) {
    low_ids.push_back(svc.Submit(SmallRequest(*topo, "t", Priority::kLow)));
  }
  EXPECT_EQ(svc.queued(), 4u);

  // A low arrival at the bound is rejected: nothing queued is less urgent.
  const std::uint64_t rejected_low =
      svc.Submit(SmallRequest(*topo, "t", Priority::kLow));
  // A high arrival evicts the newest queued low request.
  const std::uint64_t admitted_high =
      svc.Submit(SmallRequest(*topo, "t", Priority::kHigh));
  EXPECT_EQ(svc.queued(), 4u);

  const SchedulingService::Stats stats = svc.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected_by_class[2], 1u);
  EXPECT_EQ(stats.shed_by_class[2], 1u);
  EXPECT_EQ(stats.shed_inversions, 0u);
  EXPECT_EQ(stats.max_queue_depth, 4u);

  // Both drops completed immediately with the right outcome; the victim is
  // the newest low request.
  std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, rejected_low);
  EXPECT_EQ(out[0].outcome, Outcome::kRejected);
  EXPECT_EQ(out[1].id, low_ids.back());
  EXPECT_EQ(out[1].outcome, Outcome::kShed);

  // The service still quiesces and serves everything left, high first.
  svc.RunUntilQuiescent();
  out = svc.Drain();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].id, admitted_high);
  for (const Response& r : out) EXPECT_EQ(r.outcome, Outcome::kServed);
}

TEST(ServiceTest, EqualPriorityNeverSheds) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.queue_bound = 2;
  SchedulingService svc(topo, config);
  for (int i = 0; i < 5; ++i) {
    (void)svc.Submit(SmallRequest(*topo, "t", Priority::kNormal));
  }
  const SchedulingService::Stats stats = svc.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.shed, 0u);
  svc.RunUntilQuiescent();
}

// --- Failure propagation ---------------------------------------------------

TEST(ServiceTest, CompileFailureBecomesFailedOutcome) {
  auto topo = SmallTopo();
  SchedulingService svc(topo, ServiceConfig{});
  Request bad = SmallRequest(*topo);
  // Rank-mismatched algorithm: Prepare returns InvalidArgument.
  bad.algorithm = algorithms::RingAllReduce(topo->nranks() + 1);
  (void)svc.Submit(bad);
  (void)svc.Submit(SmallRequest(*topo));  // healthy neighbor
  svc.RunUntilQuiescent();

  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 2u);
  int failed = 0;
  int served = 0;
  for (const Response& r : out) {
    if (r.outcome == Outcome::kFailed) {
      ++failed;
      EXPECT_FALSE(r.error.empty());
    }
    if (r.outcome == Outcome::kServed) ++served;
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(ServiceTest, ForeignFaultPlanBecomesFailedOutcome) {
  auto topo = SmallTopo();
  SchedulingService svc(topo, ServiceConfig{});
  Request bad = SmallRequest(*topo);
  // Sampled for a larger fabric: names links this one lacks, so Execute
  // throws and the service records the request as failed.
  bad.run.faults = FaultPlan::Make(5, 1.0, Topology(presets::A100(4, 8)));
  (void)svc.Submit(bad);
  svc.RunUntilQuiescent();

  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, Outcome::kFailed);
  EXPECT_NE(out[0].error.find("fabric lacks"), std::string::npos)
      << out[0].error;
  EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(ServiceTest, ZeroChunkBecomesFailedOutcome) {
  auto topo = SmallTopo();
  SchedulingService svc(topo, ServiceConfig{});
  Request bad = SmallRequest(*topo);
  bad.run.launch.chunk = Size::Bytes(0);  // no micro-batch split exists
  const std::uint64_t bad_id = svc.Submit(bad);
  const std::uint64_t next_id = svc.Submit(SmallRequest(*topo));
  svc.RunUntilQuiescent();

  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 2u);
  for (const Response& r : out) {
    if (r.id == bad_id) {
      EXPECT_EQ(r.outcome, Outcome::kFailed);
      EXPECT_NE(r.error.find("positive buffer and chunk"), std::string::npos)
          << r.error;
    } else {
      EXPECT_EQ(r.id, next_id);
      EXPECT_EQ(r.outcome, Outcome::kServed);
      EXPECT_GT(r.report.elapsed.us(), 0.0);
    }
  }
  EXPECT_EQ(svc.stats().failed, 1u);
  EXPECT_EQ(svc.stats().served, 1u);
}

// --- Lanes -----------------------------------------------------------------

// One lane serves every request on one reused ExecContext. Across shapes,
// sizes, a faulted run and a failure, each report must equal a one-shot
// Execute of the same request bit for bit.
TEST(ServiceTest, ReusedLaneMatchesOneShotExecute) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.max_in_flight = 1;
  SchedulingService svc(topo, config);

  std::vector<Request> requests(7, SmallRequest(*topo));
  requests[1].algorithm = algorithms::DoubleBinaryTreeAllReduce(topo->nranks());
  requests[1].run.launch.buffer = Size::MiB(16);
  requests[2].run.faults = FaultPlan::Make(3, 0.5, *topo);
  requests[3].run.launch.chunk = Size::Bytes(0);  // fails in Execute
  requests[4].run.launch.buffer = Size::MiB(1);
  requests[5].algorithm = algorithms::RingAllGather(topo->nranks());
  requests[6].run.faults = FaultPlan::Make(4, 1.0, *topo);
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    index_of[svc.Submit(requests[i])] = i;
  }
  svc.RunUntilQuiescent();

  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), requests.size());
  for (const Response& r : out) {
    const std::size_t i = index_of.at(r.id);
    if (i == 3) {
      EXPECT_EQ(r.outcome, Outcome::kFailed);
      continue;
    }
    ASSERT_EQ(r.outcome, Outcome::kServed) << i << ": " << r.error;
    const Request& req = requests[i];
    Result<PreparedPlan> plan =
        Prepare(req.algorithm, topo, req.options, req.backend);
    ASSERT_TRUE(plan.ok());
    const CollectiveReport fresh = Execute(*plan.value(), req.run);
    EXPECT_EQ(r.report.elapsed, fresh.elapsed) << i;
    EXPECT_EQ(r.report.sim.events, fresh.sim.events) << i;
    EXPECT_EQ(r.report.fault.clean_makespan, fresh.fault.clean_makespan) << i;
  }
  EXPECT_EQ(svc.stats().served, requests.size() - 1);
}

// Live lanes re-lower as two shapes alternate; a response's observed
// program stays the one its report was simulated from.
TEST(ServiceTest, LiveObservedReportsKeepTheirLoweredProgram) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.deterministic = false;
  config.queue_bound = 256;
  SchedulingService svc(topo, config);
  for (int i = 0; i < 32; ++i) {
    Request req = SmallRequest(*topo);
    if (i % 2 == 1) {
      req.algorithm = algorithms::DoubleBinaryTreeAllReduce(topo->nranks());
    }
    req.run.observe = true;
    (void)svc.Submit(std::move(req));
  }
  svc.RunUntilQuiescent();

  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 32u);
  for (const Response& r : out) {
    ASSERT_EQ(r.outcome, Outcome::kServed) << r.error;
    ASSERT_NE(r.report.lowered, nullptr);
    EXPECT_EQ(r.report.lowered->program.tbs.size(), r.report.sim.tbs.size());
  }
}

// --- Deterministic clock ---------------------------------------------------

TEST(ServiceTest, QueueWaitsReflectArrivalTimes) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.max_in_flight = 2;
  SchedulingService svc(topo, config);
  svc.AdvanceTo(100.0);
  (void)svc.SubmitAt(SmallRequest(*topo), 10.0);
  (void)svc.SubmitAt(SmallRequest(*topo), 40.0);
  ASSERT_TRUE(svc.Step());  // both dispatch at virtual time 100

  const std::vector<Response> out = svc.Drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].queue_wait_us, 90.0);
  EXPECT_DOUBLE_EQ(out[1].queue_wait_us, 60.0);
}

TEST(ServiceTest, ExecuteJobsAreBitIdentical) {
  auto topo = SmallTopo();
  WorkloadSpec wl;
  wl.seed = 7;
  wl.requests = 16;
  wl.mean_interarrival_us = 50.0;
  wl.tenants = {{"a", 2.0}, {"b", 1.0}};
  const std::vector<Arrival> arrivals = GenerateWorkload(*topo, wl);

  auto run = [&](int jobs) {
    ServiceConfig config;
    config.jobs = jobs;
    config.max_in_flight = 4;
    SchedulingService svc(topo, config);
    ReplayOpenLoop(svc, arrivals);
    return svc.Drain();
  };
  const std::vector<Response> serial = run(1);
  const std::vector<Response> threaded = run(4);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].id, threaded[i].id);
    EXPECT_EQ(serial[i].outcome, threaded[i].outcome);
    EXPECT_EQ(serial[i].queue_wait_us, threaded[i].queue_wait_us);
    // Bit-identical simulated results: the ParallelFor by-index contract.
    EXPECT_EQ(serial[i].report.elapsed.us(), threaded[i].report.elapsed.us());
    EXPECT_EQ(serial[i].report.sim.events, threaded[i].report.sim.events);
    EXPECT_EQ(serial[i].report.algo_bw.gbps(),
              threaded[i].report.algo_bw.gbps());
  }
}

// --- Live (threaded) mode --------------------------------------------------

TEST(ServiceTest, LiveModeServesConcurrentSubmitters) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.deterministic = false;
  config.max_in_flight = 4;
  config.queue_bound = 256;
  SchedulingService svc(topo, config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&svc, &topo, t] {
      for (int i = 0; i < kPerThread; ++i) {
        (void)svc.Submit(SmallRequest(*topo, "t" + std::to_string(t)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  svc.RunUntilQuiescent();

  const SchedulingService::Stats stats = svc.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.served, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  // Identical fingerprints: exactly one compile, everyone else coalesced
  // (memory hit or single-flight wait).
  EXPECT_EQ(svc.plan_cache().stats().misses, 1u);
  EXPECT_EQ(stats.prepares, 1u);
  EXPECT_EQ(stats.coalesced, stats.served - 1);
  EXPECT_EQ(svc.Drain().size(), stats.served);
}

TEST(ServiceTest, LiveModeDestructorJoinsInFlightWork) {
  auto topo = SmallTopo();
  ServiceConfig config;
  config.deterministic = false;
  SchedulingService svc(topo, config);
  for (int i = 0; i < 4; ++i) (void)svc.Submit(SmallRequest(*topo));
  // No RunUntilQuiescent: ~SchedulingService must wait for the dispatched
  // work instead of racing it.
}

// --- Telemetry -------------------------------------------------------------

TEST(ServiceTest, PublishesServiceMetrics) {
  auto topo = SmallTopo();
  obs::MetricsRegistry reg;
  reg.Enable(true);
  ServiceConfig config;
  config.queue_bound = 2;
  config.metrics = &reg;
  SchedulingService svc(topo, config);
  for (int i = 0; i < 3; ++i) {
    (void)svc.Submit(SmallRequest(*topo, "acme", Priority::kLow));
  }
  svc.RunUntilQuiescent();

  EXPECT_EQ(reg.counter("service.requests.submitted").value(), 3.0);
  EXPECT_EQ(reg.counter("service.requests.admitted").value(), 2.0);
  EXPECT_EQ(reg.counter("service.requests.rejected").value(), 1.0);
  EXPECT_EQ(reg.counter("service.class.low.rejected").value(), 1.0);
  EXPECT_EQ(reg.counter("service.requests.served").value(), 2.0);
  EXPECT_EQ(reg.counter("service.prepare.compiles").value(), 1.0);
  EXPECT_EQ(reg.counter("service.prepare.coalesced").value(), 1.0);
  EXPECT_GT(reg.counter("service.tenant.acme.served_bytes").value(), 0.0);
  EXPECT_EQ(reg.gauge("service.queue.depth").value(), 0.0);
  EXPECT_EQ(reg.gauge("service.in_flight").value(), 0.0);
}

}  // namespace
}  // namespace resccl::service
