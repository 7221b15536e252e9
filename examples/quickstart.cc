// Quickstart: create a communicator for a simulated A100 cluster, run the
// standard collectives under the ResCCL backend, and inspect the report.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "runtime/communicator.h"

int main() {
  using namespace resccl;

  // Two servers of eight A100s, NVSwitch inside, 200 Gbps RoCE between —
  // the paper's main testbed.
  Communicator comm(presets::A100(/*nodes=*/2, /*gpus_per_node=*/8),
                    BackendKind::kResCCL);

  RunRequest request;
  request.launch.buffer = Size::MiB(512);  // bytes synchronized per rank
  request.launch.chunk = Size::MiB(1);     // transfer granularity
  request.verify = true;                   // numerically check the result

  std::printf("cluster: %d GPUs (%d x %d)\n\n", comm.topology().nranks(),
              comm.topology().nodes(), comm.topology().gpus_per_node());

  for (const CollectiveReport& r :
       {comm.AllGather(request), comm.ReduceScatter(request),
        comm.AllReduce(request)}) {
    std::printf("%-22s %8.1f GB/s  %7.2f ms  %3d TBs (%d/GPU)  "
                "link util %4.1f%%  TB idle %4.1f%%  verified=%s\n",
                r.algorithm.c_str(), r.algo_bw.gbps(), r.elapsed.ms(),
                r.total_tbs, r.max_tbs_per_rank, r.links.avg * 100,
                r.sim.AvgIdleRatio() * 100, r.verified ? "yes" : "NO");
  }

  // Collectives compile once and replay thereafter: the AllReduce above
  // paid the compile, this repeat is a plan-cache hit. The report describes
  // the run; the cache counts the compiles.
  const CollectiveReport warm = comm.AllReduce(request);
  const PlanCache::Stats stats = comm.plan_cache().stats();
  std::printf("\nwarm AllReduce: %.2f ms (cache: %llu compiles, %llu hits)\n",
              warm.elapsed.ms(), static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.hits));

  std::printf(
      "\nEvery number above comes from the discrete-event cluster simulator;"
      "\nverification replays the generated kernels against host buffers.\n");
  return 0;
}
