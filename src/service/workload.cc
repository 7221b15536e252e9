#include "service/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "algorithms/ring.h"
#include "algorithms/tree.h"
#include "common/rng.h"

namespace resccl::service {

namespace {

// Launch buffers: a log-uniform power of two in [1, 8] MiB, i.e.
// 1 MiB << {0..3}.
constexpr int kMinBufferMib = 1;
constexpr int kBufferSizeSteps = 3;

// The compile-shape pool. Shapes differ in algorithm (and therefore
// fingerprint); launch buffer size deliberately does NOT define a shape —
// it never enters the fingerprint, so requests of different sizes still
// coalesce onto one plan.
Algorithm ShapeAlgorithm(int shape, const Topology& topo) {
  const int n = topo.nranks();
  switch (shape) {
    case 0: return algorithms::RingAllReduce(n);
    case 1: return algorithms::RingAllGather(n);
    case 2: return algorithms::RingReduceScatter(n);
    default: return algorithms::DoubleBinaryTreeAllReduce(n);
  }
}

}  // namespace

std::vector<Arrival> GenerateWorkload(const Topology& topo,
                                      const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  const int shapes = std::clamp(spec.distinct_shapes, 1, 4);
  std::vector<TenantSpec> tenants = spec.tenants;
  if (tenants.empty()) tenants.push_back(TenantSpec{"default", 1.0});

  // Pre-build one Algorithm per shape: the stream reuses the objects, so
  // identical shapes really are byte-identical inputs to the fingerprint.
  std::vector<Algorithm> pool;
  pool.reserve(static_cast<std::size_t>(shapes));
  for (int s = 0; s < shapes; ++s) pool.push_back(ShapeAlgorithm(s, topo));

  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(spec.requests));
  double clock_us = 0;
  for (int i = 0; i < spec.requests; ++i) {
    // Exponential interarrival via inverse CDF; 1 - U keeps the argument
    // of log strictly positive.
    clock_us +=
        -spec.mean_interarrival_us * std::log(1.0 - rng.NextDouble());

    Arrival a;
    a.arrival_us = clock_us;
    a.req.tenant =
        tenants[static_cast<std::size_t>(rng.NextInt(
                    0, static_cast<std::int64_t>(tenants.size()) - 1))]
            .name;
    const double p = rng.NextDouble();
    a.req.priority = p < spec.p_high          ? Priority::kHigh
                     : p < spec.p_high + spec.p_low ? Priority::kLow
                                                    : Priority::kNormal;
    a.req.algorithm =
        pool[static_cast<std::size_t>(rng.NextInt(0, shapes - 1))];
    a.req.run.launch.buffer =
        Size::MiB(kMinBufferMib << rng.NextInt(0, kBufferSizeSteps));
    out.push_back(std::move(a));
  }
  return out;
}

void ReplayOpenLoop(SchedulingService& svc,
                    const std::vector<Arrival>& arrivals) {
  RESCCL_CHECK_MSG(svc.config().deterministic,
                   "ReplayOpenLoop drives the virtual clock");
  for (const Arrival& a : arrivals) {
    // Work the server forward until the clock reaches this arrival: batch
    // after batch while anything is queued, then an idle jump. Each Step
    // pops at least one request, so the loop terminates.
    while (svc.VirtualNow() < a.arrival_us) {
      if (!svc.Step()) {
        svc.AdvanceTo(a.arrival_us);
        break;
      }
    }
    svc.SubmitAt(a.req, a.arrival_us);
  }
  svc.RunUntilQuiescent();
}

}  // namespace resccl::service
