#include "obs/publish.h"

#include <string>
#include <vector>

namespace resccl::obs {

namespace {

// Exponential µs buckets covering everything from a one-chunk hop to a
// multi-second co-run.
std::vector<double> MakespanBoundsUs() {
  return {10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7};
}

std::vector<double> SlowdownBounds() {
  return {1.0, 1.1, 1.25, 1.5, 2.0, 4.0, 8.0};
}

std::vector<double> BandwidthBoundsGbps() {
  return {1.0, 10.0, 50.0, 100.0, 200.0, 400.0, 1000.0};
}

}  // namespace

void PublishCompileStats(MetricsRegistry& reg, const CompileStats& stats) {
  if (!reg.enabled()) return;
  reg.counter("compile.analysis_us").Add(stats.analysis_us);
  reg.counter("compile.scheduling_us").Add(stats.scheduling_us);
  reg.counter("compile.allocation_us").Add(stats.allocation_us);
  reg.counter("compile.lowering_us").Add(stats.lowering_us);
  reg.counter("compile.verify_us").Add(stats.verify_us);
  reg.counter("compile.validate_us").Add(stats.validate_us);
}

void PublishCollectiveReport(MetricsRegistry& reg,
                             const CollectiveReport& report) {
  if (!reg.enabled()) return;

  reg.counter("run.count").Increment();
  reg.counter("run.sim_us").Add(report.sim.makespan.us());
  reg.histogram("run.makespan_us", MakespanBoundsUs())
      .Observe(report.sim.makespan.us());
  reg.histogram("run.algo_bw_gbps", BandwidthBoundsGbps())
      .Observe(report.algo_bw.gbps());
  reg.gauge("run.last_makespan_us").Set(report.sim.makespan.us());
  reg.gauge("run.last_algo_bw_gbps").Set(report.algo_bw.gbps());
  reg.counter("run.microbatches").Add(report.nmicrobatches);
  reg.counter("run.tbs").Add(report.total_tbs);

  // Per-protocol run counters ("sim.protocol.Simple", ...): which transport
  // protocol runs actually used, and how many of those choices were made by
  // the kAuto crossover model rather than the caller.
  reg.counter(std::string("sim.protocol.") + ProtocolName(report.protocol))
      .Increment();
  if (report.protocol_auto) {
    reg.counter("sim.protocol.auto_resolved").Increment();
  }

  reg.counter("sim.events").Add(static_cast<double>(report.sim.events));
  // Queue mechanics (sim/event_queue.h): pops counts every heap pop —
  // fired events plus the stale entries lazy invalidation discards — so
  // pops - skipped_stale == sim.events for the run; peak_heap is the
  // high-water mark of resident entries (a gauge: last run, not a sum).
  const EventQueue::Stats& q = report.sim.queue;
  reg.counter("sim.events.popped").Add(static_cast<double>(q.popped));
  reg.counter("sim.events.skipped_stale")
      .Add(static_cast<double>(q.skipped_stale));
  reg.gauge("sim.events.peak_heap").Set(static_cast<double>(q.peak_heap));
  const FluidNetwork::Stats& fl = report.sim.fluid;
  reg.counter("sim.fluid.flows_started")
      .Add(static_cast<double>(fl.flows_started));
  reg.counter("sim.fluid.flows_recycled")
      .Add(static_cast<double>(fl.flows_recycled));
  reg.counter("sim.fluid.recompute_calls")
      .Add(static_cast<double>(fl.recompute_calls));
  reg.counter("sim.fluid.binding_skips")
      .Add(static_cast<double>(fl.binding_skips));
  reg.counter("sim.fluid.reschedules").Add(static_cast<double>(fl.reschedules));

  SimTime busy;
  SimTime sync;
  SimTime overhead;
  SimTime stall;
  for (const TbStats& tb : report.sim.tbs) {
    busy += tb.busy;
    sync += tb.sync;
    overhead += tb.overhead;
    stall += tb.fault_stall;
  }
  reg.counter("sim.tb.busy_us").Add(busy.us());
  reg.counter("sim.tb.sync_us").Add(sync.us());
  reg.counter("sim.tb.overhead_us").Add(overhead.us());
  reg.counter("sim.tb.fault_stall_us").Add(stall.us());

  reg.gauge("links.avg_busy_frac").Set(report.links.avg);
  reg.gauge("links.max_busy_frac").Set(report.links.max);
  reg.gauge("links.carriers").Set(report.links.carriers);
  // Per-rail NIC-link rows: near-equal values mean the transfer striping is
  // rail-aligned; a hot rail shows up as a high max over its siblings.
  for (const RailUtilization& rail : report.rails) {
    if (rail.carriers == 0) continue;  // rail idle this run (or unused NIC)
    const std::string prefix = "links.rail" + std::to_string(rail.rail);
    reg.counter(prefix + ".bytes").Add(static_cast<double>(rail.bytes));
    reg.gauge(prefix + ".avg_busy_frac").Set(rail.avg_busy_frac);
    reg.gauge(prefix + ".max_busy_frac").Set(rail.max_busy_frac);
  }

  if (report.fault.faulted) {
    reg.counter("fault.runs").Increment();
    reg.counter("fault.total_stall_us").Add(report.fault.total_stall.us());
    reg.histogram("fault.slowdown_vs_clean", SlowdownBounds())
        .Observe(report.fault.slowdown_vs_clean);
  }
}

void PublishCoRun(MetricsRegistry& reg, const CoRunReport& report) {
  if (!reg.enabled()) return;

  reg.counter("multi_job.runs").Increment();
  reg.counter("multi_job.jobs")
      .Add(static_cast<double>(report.jobs.size()));
  reg.gauge("multi_job.last_makespan_us").Set(report.merged.elapsed.us());
  for (const JobOutcome& job : report.jobs) {
    reg.histogram("multi_job.slowdown", SlowdownBounds())
        .Observe(job.slowdown);
  }
}

void PublishServiceDecision(MetricsRegistry& reg, std::string_view decision,
                            std::string_view priority) {
  if (!reg.enabled()) return;
  reg.counter(std::string("service.requests.") + std::string(decision))
      .Increment();
  // Drops are the per-class signal the load bench watches: shedding must
  // concentrate on the lowest class, so high/normal drop counters staying
  // at zero *is* the priority-ordering property.
  if (decision == "rejected" || decision == "shed") {
    reg.counter("service.class." + std::string(priority) + "." +
                std::string(decision))
        .Increment();
  }
}

void PublishServiceCompletion(MetricsRegistry& reg, std::string_view tenant,
                              bool failed, bool coalesced,
                              double queue_wait_us, double bytes) {
  if (!reg.enabled()) return;
  reg.counter(failed ? "service.requests.failed" : "service.requests.served")
      .Increment();
  reg.counter(coalesced ? "service.prepare.coalesced"
                        : "service.prepare.compiles")
      .Increment();
  // Same exponential µs grid as run.makespan_us: queue waits under load
  // range from sub-batch to multi-second.
  reg.histogram("service.queue.wait_us", MakespanBoundsUs())
      .Observe(queue_wait_us);
  if (!failed) {
    reg.counter("service.tenant." + std::string(tenant) + ".served_bytes")
        .Add(bytes);
  }
}

void PublishServiceDepth(MetricsRegistry& reg, double queued,
                         double in_flight) {
  if (!reg.enabled()) return;
  reg.gauge("service.queue.depth").Set(queued);
  reg.gauge("service.in_flight").Set(in_flight);
}

void PublishBoundReport(MetricsRegistry& reg, const BoundReport& report) {
  if (!reg.enabled()) return;
  reg.counter("analysis.bound.evaluations").Increment();
  reg.gauge("analysis.bound.last_alpha_us").Set(report.alpha.us());
  reg.gauge("analysis.bound.last_bandwidth_us").Set(report.bandwidth.us());
  reg.gauge("analysis.bound.last_combined_us").Set(report.combined.us());
  // The cut family that bound this evaluation ("rank", "node", "rack",
  // "pod", "aggregate", or "none"): the prefix before any index digits.
  std::string family;
  for (const char c : report.binding_cut) {
    if (c >= '0' && c <= '9') break;
    if (c == ' ') break;
    family += c;
  }
  reg.counter("analysis.bound.binding." + family).Increment();
}

void PublishPerfReport(MetricsRegistry& reg, const PerfReport& report) {
  if (!reg.enabled()) return;
  reg.counter("analysis.perf.passes").Increment();
  reg.counter("analysis.perf.advice")
      .Add(static_cast<double>(report.diagnostics.size()));
  for (const Diagnostic& d : report.diagnostics) {
    reg.counter("analysis.perf.rule." + d.rule_id).Increment();
  }
  reg.gauge("analysis.perf.last_static_floor_us").Set(report.static_floor_us);
  // Percent-of-optimal grid: how tight plans run against the bound.
  reg.histogram("analysis.perf.optimality_pct",
                {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0})
      .Observe(report.optimality_pct);
}

}  // namespace resccl::obs
