#include "runtime/multi_job.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "obs/publish.h"
#include "runtime/exec_context.h"

namespace resccl {

CoRunReport RunConcurrently(const std::vector<JobSpec>& jobs,
                            const Topology& topo, PlanCache* cache,
                            int sim_jobs) {
  if (jobs.empty()) throw std::invalid_argument("need at least one job");

  PlanCache local;
  if (cache == nullptr) cache = &local;
  auto shared_topo = std::make_shared<const Topology>(topo);
  CoRunReport report;
  report.jobs.resize(jobs.size());
  std::vector<ExecJob> plans(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobSpec& spec = jobs[j];
    Result<PlanCache::Lookup> got = cache->GetOrPrepare(
        spec.algorithm, shared_topo, spec.options, spec.name);
    if (!got.ok()) {
      throw std::invalid_argument("job '" + spec.name +
                                  "': " + got.status().ToString());
    }
    report.jobs[j].name = spec.name;
    plans[j].plan = std::move(got).value().plan;
    plans[j].launch = spec.launch;
  }

  RunRequest request;
  request.verify = true;
  ExecContext ctx;
  report.merged = ctx.Execute(plans, request);

  // The isolated baselines touch only job-local state (an ExecContext each),
  // so they fan out over the pool; outcomes land by job index.
  ParallelFor(ThreadPool::ResolveJobs(sim_jobs), plans.size(),
              [&](std::size_t j) {
                JobOutcome& outcome = report.jobs[j];
                outcome.co_run = report.merged.jobs[j].finish;
                outcome.verified = report.merged.jobs[j].verified;
                RunRequest alone_request;
                alone_request.launch = plans[j].launch;
                ExecContext alone;
                outcome.isolated =
                    alone.Execute(plans[j].plan, alone_request).elapsed;
                outcome.slowdown = outcome.isolated > SimTime::Zero()
                                       ? outcome.co_run / outcome.isolated
                                       : 0.0;
              });
  obs::PublishCoRun(obs::MetricsRegistry::Global(), report);
  return report;
}

}  // namespace resccl
