// Seeded multi-tenant workloads for the scheduling service.
//
// The serve CLI, the load bench (`micro service`), and the property
// tests all need the same thing: a reproducible open-loop arrival stream —
// exponential interarrivals, a tenant/priority mix, a bounded pool of
// distinct compile shapes — plus a driver that replays it against a
// deterministic SchedulingService. Keeping both here means the bench
// measures exactly the process the tests prove invariants about.
#pragma once

#include <cstdint>
#include <vector>

#include "service/service.h"
#include "topology/topology.h"

namespace resccl::service {

struct WorkloadSpec {
  std::uint64_t seed = 1;
  int requests = 64;
  // Mean of the exponential interarrival distribution (virtual µs). Small
  // relative to a batch makespan = overload; large = an idle server.
  double mean_interarrival_us = 50.0;
  // Number of distinct compile shapes (algorithm variants) the stream draws
  // from, clamped to [1, 4]. 1 makes every request fingerprint-identical —
  // the fully-coalescible workload the coalesce-rate check uses.
  int distinct_shapes = 4;
  // Tenant mix (uniform draw). Empty = one "default" tenant, weight 1.
  std::vector<TenantSpec> tenants;
  // Priority mix: P(high), P(low); the rest arrive as normal.
  double p_high = 0.2;
  double p_low = 0.3;
};

struct Arrival {
  double arrival_us = 0;
  Request req;
};

// Expands `spec` into a concrete arrival stream for `topo`, sorted by
// arrival time. Same (spec, topo) -> identical stream, always. Launch
// buffers are log-uniform powers of two in [1, 8] MiB.
[[nodiscard]] std::vector<Arrival> GenerateWorkload(const Topology& topo,
                                                    const WorkloadSpec& spec);

// Replays `arrivals` (already time-sorted) open-loop against a
// deterministic-mode service: the virtual clock runs batches whenever work
// is queued, idles forward to the next arrival otherwise, and drains after
// the last arrival. Responses accumulate inside `svc` (Drain() them).
void ReplayOpenLoop(SchedulingService& svc,
                    const std::vector<Arrival>& arrivals);

}  // namespace resccl::service
