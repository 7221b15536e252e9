// Test-only reference solver for the fluid model (sim/fluid.h).
//
// Replays a fixed set of flows — entry time, bytes, injection cap, path —
// and recomputes every active flow's rate from the fluid.h formula at every
// instant one can change: a flow entering, a flow draining, a FaultPlan
// window boundary. Nothing is deferred, skipped, bucketed or cached, so the
// production network's incremental walk is checked against the formula
// itself, not against a second copy of its own bookkeeping. It drains a
// flow by the same rule as production (<= 1e-3 bytes left is done).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sim/faults.h"
#include "sim/fluid.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl::tests {

struct ReferenceFlow {
  SimTime start;                     // enters the network
  std::int64_t bytes = 0;
  double cap = 0.0;                  // injection cap, bytes/us
  std::span<const ResourceId> path;  // must outlive the solve
};

struct ReferenceResult {
  std::vector<SimTime> complete;                   // per flow
  std::vector<FluidNetwork::ResourceUsage> usage;  // per resource
};

// The flows a finished SimMachine run of `program` started: each transfer
// entered the network `latency` after it started and carried its wire bytes
// along PathBetween(src, dst). Capping at ideal_rate = min(injection cap,
// unfaulted path bottleneck) instead of the injection cap is exact: no
// resource's share exceeds its capacity, so the min picks the same rate.
inline std::vector<ReferenceFlow> FlowsOf(const Topology& topo,
                                          const SimProgram& program,
                                          const SimRunReport& run) {
  std::vector<ReferenceFlow> flows;
  for (std::size_t t = 0; t < run.transfers.size(); ++t) {
    const TransferStats& s = run.transfers[t];
    const SimTransferDecl& d = program.transfers[t];
    flows.push_back({s.start + s.latency, s.wire_bytes, s.ideal_rate,
                     topo.PathBetween(d.src, d.dst).resources});
  }
  return flows;
}

inline ReferenceResult SolveReference(const Topology& topo,
                                      std::span<const ReferenceFlow> flows,
                                      const FaultPlan* faults = nullptr) {
  const std::size_t n = flows.size();
  ReferenceResult out;
  out.complete.assign(n, SimTime::Infinity());
  out.usage.assign(topo.resources().size(), {});
  std::vector<int> z(out.usage.size(), 0);
  std::vector<SimTime> busy_since(out.usage.size());
  std::vector<double> remaining(n, 0.0), rate(n, 0.0);
  std::vector<std::size_t> order(n), active;
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flows[a].start < flows[b].start;
                   });
  std::size_t next = 0;
  SimTime now = n > 0 ? flows[order[0]].start : SimTime::Zero();
  while (next < n || !active.empty()) {
    std::erase_if(active, [&](std::size_t f) {
      if (remaining[f] > 1e-3) return false;
      out.complete[f] = now;
      for (ResourceId r : flows[f].path) {
        const auto ri = static_cast<std::size_t>(r.value);
        if (--z[ri] == 0) out.usage[ri].active += now - busy_since[ri];
      }
      return true;
    });
    for (; next < n && flows[order[next]].start <= now; ++next) {
      const std::size_t f = order[next];
      remaining[f] = static_cast<double>(flows[f].bytes);
      active.push_back(f);
      for (ResourceId r : flows[f].path) {
        const auto ri = static_cast<std::size_t>(r.value);
        if (z[ri]++ == 0) busy_since[ri] = now;
        out.usage[ri].bytes += flows[f].bytes;
      }
    }
    // Every rate from scratch, and the earliest time any of them changes.
    SimTime step = next < n ? flows[order[next]].start : SimTime::Infinity();
    for (std::size_t f : active) {
      rate[f] = flows[f].cap;
      for (ResourceId r : flows[f].path) {
        const Resource& res = topo.resource(r);
        const double zr = z[static_cast<std::size_t>(r.value)];
        double capacity = res.capacity.bytes_per_us();
        if (faults != nullptr) {
          capacity *= faults->CapacityScaleAt(r, now);
          step = std::min(step, faults->NextTransitionAfter(r, now));
        }
        rate[f] = std::min(
            rate[f], capacity / zr / (1.0 + res.contention_gamma * (zr - 1)));
      }
      step = std::min(step, now + SimTime::Us(remaining[f] / rate[f]));
    }
    for (std::size_t f : active) remaining[f] -= rate[f] * (step - now).us();
    now = step;
  }
  return out;
}

}  // namespace resccl::tests
