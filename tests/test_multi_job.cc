// Multi-job co-execution tests: correctness under sharing, contention
// slowdowns, and the §4.4 claim that ResCCL degrades more gracefully than
// the stage/instance baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "algorithms/hierarchical.h"
#include "algorithms/ring.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "runtime/exec_context.h"
#include "runtime/multi_job.h"
#include "sim/faults.h"
#include "topology/topology.h"

namespace resccl {
namespace {

JobSpec MakeJob(const std::string& name, Algorithm algo, BackendKind kind,
                Size buffer) {
  JobSpec spec;
  spec.name = name;
  spec.algorithm = std::move(algo);
  spec.options = DefaultCompileOptions(kind);
  spec.launch.buffer = buffer;
  return spec;
}

TEST(MultiJobTest, TwoJobsShareTheClusterCorrectly) {
  const Topology topo(presets::A100(2, 8));
  const std::vector<JobSpec> jobs = {
      MakeJob("ar", algorithms::HierarchicalMeshAllReduce(topo),
              BackendKind::kResCCL, Size::MiB(128)),
      MakeJob("ag", algorithms::HierarchicalMeshAllGather(topo),
              BackendKind::kResCCL, Size::MiB(128)),
  };
  const CoRunReport report = RunConcurrently(jobs, topo);
  ASSERT_EQ(report.jobs.size(), 2u);
  for (const JobOutcome& job : report.jobs) {
    EXPECT_TRUE(job.verified) << job.name;
    // Sharing cannot be faster than isolation, and a NIC-bound pair cannot
    // degrade worse than full serialization.
    EXPECT_GE(job.slowdown, 0.999) << job.name;
    EXPECT_LE(job.slowdown, 2.6) << job.name;
    EXPECT_LE(job.co_run, report.merged.elapsed);
  }
}

TEST(MultiJobTest, SingleJobMatchesIsolatedRun) {
  const Topology topo(presets::A100(2, 4));
  const std::vector<JobSpec> jobs = {
      MakeJob("solo", algorithms::HierarchicalMeshAllReduce(topo),
              BackendKind::kResCCL, Size::MiB(64)),
  };
  const CoRunReport report = RunConcurrently(jobs, topo);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(report.jobs[0].slowdown, 1.0);
  EXPECT_TRUE(report.jobs[0].verified);
}

TEST(MultiJobTest, ResCCLStaysFasterUnderContention) {
  // §4.4: limiting simultaneous connections per link keeps ResCCL's
  // collectives fast even when another job contends for the fabric — the
  // co-run must finish well ahead of the baseline's co-run. (The *relative*
  // slowdown ratio flatters the baseline, which is pre-contended even when
  // running alone.)
  const Topology topo(presets::A100(2, 8));
  const auto co_completion = [&](BackendKind kind) {
    const std::vector<JobSpec> jobs = {
        MakeJob("a", algorithms::HierarchicalMeshAllReduce(topo), kind,
                Size::MiB(256)),
        MakeJob("b", algorithms::HierarchicalMeshAllReduce(topo), kind,
                Size::MiB(256)),
    };
    const CoRunReport report = RunConcurrently(jobs, topo);
    for (const JobOutcome& job : report.jobs) {
      EXPECT_TRUE(job.verified);
    }
    return report.merged.elapsed;
  };
  EXPECT_LT(co_completion(BackendKind::kResCCL),
            co_completion(BackendKind::kMscclLike));
}

TEST(MultiJobTest, JobsShareAPlanCache) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const std::vector<JobSpec> jobs = {
      MakeJob("a", algo, BackendKind::kResCCL, Size::MiB(64)),
      MakeJob("b", algo, BackendKind::kResCCL, Size::MiB(64)),
  };

  PlanCache cache;
  const CoRunReport first = RunConcurrently(jobs, topo, &cache);
  ASSERT_EQ(first.jobs.size(), 2u);
  // Identical (algorithm, options): the second job reuses the first's plan.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  for (const JobOutcome& job : first.jobs) EXPECT_TRUE(job.verified);

  // Re-running the experiment compiles nothing and reproduces the makespan.
  const CoRunReport second = RunConcurrently(jobs, topo, &cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(second.merged.elapsed, first.merged.elapsed);
}

TEST(MultiJobTest, CachelessCoRunOfIdenticalJobsCompilesOnce) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const std::vector<JobSpec> jobs = {
      MakeJob("a", algo, BackendKind::kResCCL, Size::MiB(64)),
      MakeJob("b", algo, BackendKind::kResCCL, Size::MiB(64)),
  };
  // No cache passed: the call-local one still shares the one compile, so
  // the global plan-cache counters read one miss and one hit.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.Enable(true);
  const CoRunReport report = RunConcurrently(jobs, topo);
  reg.Enable(false);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.counter("plan_cache.miss_runs").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("plan_cache.hit_runs").value(), 1.0);
  reg.Reset();

  // Sharing the artifact moves no simulated time: one plan compiled per
  // job gives bit-identical co-run and isolated completions.
  const auto shared_topo = std::make_shared<const Topology>(topo);
  std::vector<ExecJob> separate(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobSpec& spec = jobs[j];
    separate[j].plan =
        Prepare(spec.algorithm, shared_topo, spec.options, spec.name).value();
    separate[j].launch = spec.launch;
  }
  RunRequest request;
  request.verify = true;
  ExecContext ctx;
  const CollectiveReport& merged = ctx.Execute(separate, request);
  EXPECT_EQ(report.merged.elapsed.us(), merged.elapsed.us());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE(jobs[j].name);
    EXPECT_TRUE(report.jobs[j].verified);
    EXPECT_EQ(report.jobs[j].co_run.us(), merged.jobs[j].finish.us());
    RunRequest alone_request;
    alone_request.launch = jobs[j].launch;
    ExecContext alone;
    EXPECT_EQ(report.jobs[j].isolated.us(),
              alone.Execute(separate[j].plan, alone_request).elapsed.us());
  }
}

TEST(MultiJobTest, MixedHitAndMissCoRunRuns) {
  // A cache hit carries the topology object of the call that compiled it,
  // a miss the current call's: equal fabrics behind different pointers.
  const Topology topo(presets::A100(2, 4));
  const JobSpec ar = MakeJob("ar", algorithms::HierarchicalMeshAllReduce(topo),
                             BackendKind::kResCCL, Size::MiB(32));
  const JobSpec ag = MakeJob("ag", algorithms::HierarchicalMeshAllGather(topo),
                             BackendKind::kResCCL, Size::MiB(32));
  PlanCache cache;
  (void)RunConcurrently({ar}, topo, &cache);
  const CoRunReport report = RunConcurrently({ar, ag}, topo, &cache);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);  // ar once, then ag
  EXPECT_EQ(cache.stats().hits, 1u);    // ar on the second call
  for (const JobOutcome& job : report.jobs) {
    EXPECT_TRUE(job.verified) << job.name;
    EXPECT_GE(job.slowdown, 1.0 - 1e-9) << job.name;
  }
}

TEST(MultiJobTest, OneJobCoRunMatchesExecute) {
  const Topology topo(presets::A100(2, 4));
  const JobSpec spec =
      MakeJob("solo", algorithms::HierarchicalMeshAllReduce(topo),
              BackendKind::kResCCL, Size::MiB(32));
  PlanCache cache;
  const CoRunReport co = RunConcurrently({spec}, topo, &cache);
  Result<PlanCache::Lookup> got =
      cache.GetOrPrepare(spec.algorithm, std::make_shared<const Topology>(topo),
                         spec.options, spec.name);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value().hit);

  RunRequest request;
  request.launch = spec.launch;
  ExecContext ctx;
  const CollectiveReport& solo = ctx.Execute(got.value().plan, request);
  const CollectiveReport& merged = co.merged;
  EXPECT_EQ(merged.sim.makespan, solo.sim.makespan);
  EXPECT_EQ(merged.sim.events, solo.sim.events);
  ASSERT_EQ(merged.sim.link_usage.size(), solo.sim.link_usage.size());
  for (std::size_t i = 0; i < solo.sim.link_usage.size(); ++i) {
    EXPECT_EQ(merged.sim.link_usage[i].bytes, solo.sim.link_usage[i].bytes);
    EXPECT_EQ(merged.sim.link_usage[i].active, solo.sim.link_usage[i].active);
  }
  ASSERT_EQ(merged.jobs.size(), 1u);
  EXPECT_EQ(merged.jobs[0].finish, solo.sim.makespan);
  EXPECT_EQ(co.jobs[0].co_run, solo.sim.makespan);
  EXPECT_EQ(co.jobs[0].isolated, solo.sim.makespan);
}

// Two different collectives prepared once on `topo`, as co-run jobs.
std::vector<ExecJob> TwoJobs(const Topology& topo, Size buffer) {
  std::vector<ExecJob> jobs;
  for (const Algorithm& algo : {algorithms::HierarchicalMeshAllReduce(topo),
                                algorithms::HierarchicalMeshAllGather(topo)}) {
    ExecJob job;
    job.plan = Prepare(algo, topo, BackendKind::kResCCL).value();
    job.launch.buffer = buffer;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(MultiJobTest, FaultedCoRunVerifiesEveryJob) {
  const Topology topo(presets::A100(2, 4));
  const std::vector<ExecJob> jobs = TwoJobs(topo, Size::MiB(32));
  RunRequest request;
  request.verify = true;
  request.faults = FaultPlan::Make(7, 0.8, topo);
  ASSERT_FALSE(request.faults.empty());

  ExecContext ctx;
  const CollectiveReport& report = ctx.Execute(jobs, request);
  EXPECT_TRUE(report.verified) << report.verify_error;
  ASSERT_EQ(report.jobs.size(), 2u);
  for (const JobView& job : report.jobs) EXPECT_TRUE(job.verified);
  EXPECT_TRUE(report.fault.faulted);
  EXPECT_GE(report.sim.makespan, report.fault.clean_makespan);
}

TEST(MultiJobTest, ObservedCoRunExplainsItsMakespan) {
  const Topology topo(presets::A100(2, 4));
  std::vector<ExecJob> jobs = TwoJobs(topo, Size::KiB(256));
  jobs[0].launch.protocol = Protocol::kAuto;
  jobs[1].launch.protocol = Protocol::kLL;
  RunRequest request;
  request.observe = true;

  ExecContext ctx;
  const CollectiveReport& report = ctx.Execute(jobs, request);
  ASSERT_NE(report.lowered, nullptr);
  const obs::CriticalPathReport path =
      obs::AnalyzeCriticalPath(report.lowered->program, report.sim);
  const double makespan = report.sim.makespan.us();
  EXPECT_NEAR(path.critical_tb_buckets.Total().us(), makespan,
              1e-9 * makespan);
  EXPECT_NEAR(path.path_buckets.Total().us(), makespan, 1e-9 * makespan);
  EXPECT_GT(report.links.carriers, 0);

  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].protocol,
            ResolveProtocol(topo, CostModel{}, jobs[0].launch,
                            jobs[0].plan->plan.algo.nchunks));
  EXPECT_NE(report.jobs[0].protocol, Protocol::kAuto);
  EXPECT_TRUE(report.protocol_auto);  // job 0's request
  EXPECT_EQ(report.jobs[1].protocol, Protocol::kLL);
  EXPECT_EQ(report.jobs[1].tb_begin, report.jobs[0].tb_count);
  EXPECT_EQ(report.jobs[1].transfer_begin, report.jobs[0].transfer_count);
  EXPECT_EQ(std::max(report.jobs[0].finish, report.jobs[1].finish),
            report.sim.makespan);
}

TEST(MultiJobTest, RejectsPlansOnDifferentFabrics) {
  const Topology two_nodes(presets::A100(2, 4));
  const Topology one_node(presets::A100(1, 8));
  ASSERT_EQ(two_nodes.nranks(), one_node.nranks());
  std::vector<ExecJob> jobs = TwoJobs(two_nodes, Size::MiB(16));
  jobs[1].plan =
      Prepare(algorithms::HierarchicalMeshAllGather(one_node), one_node,
              BackendKind::kResCCL)
          .value();
  ExecContext ctx;
  EXPECT_THROW((void)ctx.Execute(jobs, RunRequest{}), std::invalid_argument);
  EXPECT_THROW((void)ctx.Execute(std::span<const ExecJob>(), RunRequest{}),
               std::invalid_argument);
}

TEST(MultiJobTest, RejectsNonPositiveLaunchGeometry) {
  const Topology topo(presets::A100(2, 4));
  const PreparedPlan plan =
      Prepare(algorithms::HierarchicalMeshAllReduce(topo), topo,
              BackendKind::kResCCL)
          .value();
  ExecContext ctx;
  RunRequest request;
  request.launch.chunk = Size::Bytes(0);
  EXPECT_THROW((void)ctx.Execute(plan, request), std::invalid_argument);
  request.launch.chunk = Size::MiB(1);
  request.launch.buffer = Size::Bytes(-5);
  EXPECT_THROW((void)ctx.Execute(plan, request), std::invalid_argument);
  // One bad job rejects the whole co-run.
  std::vector<ExecJob> jobs = TwoJobs(topo, Size::MiB(16));
  jobs[1].launch.chunk = Size::Bytes(0);
  EXPECT_THROW((void)ctx.Execute(jobs, RunRequest{}), std::invalid_argument);
  // The context stays usable.
  request.launch.buffer = Size::MiB(16);
  EXPECT_GT(ctx.Execute(plan, request).elapsed.us(), 0.0);
}

TEST(MultiJobTest, RejectsEmptyAndBadJobs) {
  const Topology topo(presets::A100(2, 4));
  EXPECT_THROW((void)RunConcurrently({}, topo), std::invalid_argument);
  Algorithm wrong = algorithms::RingAllGather(4);  // 4 ranks on 8-GPU topo
  EXPECT_THROW((void)RunConcurrently({MakeJob("bad", wrong,
                                              BackendKind::kResCCL,
                                              Size::MiB(16))},
                                     topo),
               std::invalid_argument);
}

}  // namespace
}  // namespace resccl
