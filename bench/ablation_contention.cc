// Ablation: multi-job network contention (§4.4's "Network contention"
// discussion). Two identical AllReduce jobs share the cluster; the table
// reports each backend's isolated completion, co-run completion, and the
// effective bandwidth retained under sharing (the merged report's algo_bw
// over both buffers). ResCCL's connection-limited schedules keep the fabric
// out of the superlinear contention regime.
//
// Self-checking: exits non-zero if any job's data fails to verify or any
// job co-runs faster than it runs alone.
#include <cstdio>

#include "algorithms/hierarchical.h"
#include "bench/bench_util.h"
#include "runtime/multi_job.h"

using namespace resccl;
using namespace resccl::bench;

int main() {
  PrintHeader("Ablation — co-running jobs under network contention",
              "§4.4 (network contention) of the paper",
              "Two identical HM AllReduce jobs (256 MiB each) share the "
              "2x8 cluster.");

  const Topology topo(presets::A100(2, 8));
  TextTable table({"Backend", "isolated ms", "co-run ms", "slowdown",
                   "co-run agg GB/s"});
  int failures = 0;
  for (BackendKind kind : {BackendKind::kNcclLike, BackendKind::kMscclLike,
                           BackendKind::kResCCL}) {
    JobSpec job;
    job.name = "ar";
    job.algorithm = kind == BackendKind::kNcclLike
                        ? DefaultAlgorithm(kind, CollectiveOp::kAllReduce,
                                           topo)
                        : algorithms::HierarchicalMeshAllReduce(topo);
    job.options = DefaultCompileOptions(kind);
    job.launch.buffer = Size::MiB(256);
    JobSpec job2 = job;
    job2.name = "ar2";

    const CoRunReport report = RunConcurrently({job, job2}, topo);
    for (const JobOutcome& outcome : report.jobs) {
      if (!outcome.verified || outcome.slowdown < 1.0 - 1e-9) {
        std::fprintf(stderr, "FAIL: %s job %s: verified=%d slowdown=%.12f\n",
                     BackendName(kind), outcome.name.c_str(),
                     outcome.verified ? 1 : 0, outcome.slowdown);
        ++failures;
      }
    }
    const JobOutcome& a = report.jobs[0];
    table.AddRow({BackendName(kind), Fixed(a.isolated.ms(), 2),
                  Fixed(report.merged.elapsed.ms(), 2),
                  Fixed(a.slowdown, 2) + "x",
                  Fixed(report.merged.algo_bw.gbps(), 1)});
  }
  std::printf("%s", table.ToString().c_str());
  return failures == 0 ? 0 : 1;
}
