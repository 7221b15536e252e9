// Publication of per-run reports into the metrics registry.
//
// The run path keeps its zero-overhead report structs (SimRunReport,
// CompileStats, FaultImpact, ...); after a run completes, these helpers
// fold the aggregates into stable metric names (docs/observability.md).
// Every helper early-outs on a disabled registry, so the default cost is
// one relaxed atomic load per run. Publication is side-effect-free with
// respect to simulation and compilation: nothing here feeds back into
// timing, results, or the compile fingerprint.
#pragma once

#include "analysis/bounds.h"
#include "analysis/perf_rules.h"
#include "obs/metrics.h"
#include "runtime/backend.h"
#include "runtime/multi_job.h"

namespace resccl::obs {

// One lower-bound computation, under stable analysis.bound.* names:
// evaluation count, the bound components, and the binding-cut family split.
void PublishBoundReport(MetricsRegistry& reg, const BoundReport& report);

// One performance-lint pass, under analysis.perf.*: pass count, advisory
// findings per rule, the static floor, and the optimality histogram.
void PublishPerfReport(MetricsRegistry& reg, const PerfReport& report);

// One compile's phase times under compile.*_us. Prepare calls it once per
// artifact it builds, so the counters sum compiles, not replays.
void PublishCompileStats(MetricsRegistry& reg, const CompileStats& stats);

// Folds one Execute's report into `reg`: run counters, makespan/algo-bw
// histograms, fluid re-rate counters, per-TB time buckets, link
// utilization gauges, and fault impact (when faulted).
void PublishCollectiveReport(MetricsRegistry& reg,
                             const CollectiveReport& report);

// Folds one RunConcurrently outcome into `reg`: job counts and the per-job
// co-run slowdown histogram.
void PublishCoRun(MetricsRegistry& reg, const CoRunReport& report);

// Scheduling-service (src/service) telemetry under stable service.* names.
// These take plain scalars so obs stays independent of the service layer;
// the registered names are cataloged in docs/observability.md.

// One admission event: `decision` is "submitted" | "admitted" |
// "rejected" | "shed", `priority` the class name ("high" | "normal" |
// "low"). Feeds service.requests.<decision>; rejections and sheds also
// land in per-class counters (service.class.<p>.<decision>).
void PublishServiceDecision(MetricsRegistry& reg, std::string_view decision,
                            std::string_view priority);

// One completed (dispatched) request: served-vs-failed, the coalesce
// split (plan shared vs freshly compiled), the queue-wait histogram, and
// the per-tenant served-bytes counter the fairness bench reads.
void PublishServiceCompletion(MetricsRegistry& reg, std::string_view tenant,
                              bool failed, bool coalesced,
                              double queue_wait_us, double bytes);

// Live queue state after any transition (gauges).
void PublishServiceDepth(MetricsRegistry& reg, double queued,
                         double in_flight);

}  // namespace resccl::obs
