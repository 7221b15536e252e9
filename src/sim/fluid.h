// Fluid-flow network model.
//
// Active transfers are fluid flows over the topology's resource pools. Each
// flow's instantaneous rate is
//
//     rate(f) = min( cap(f),  min_{r ∈ path(f)}  capacity(r) / z(r) )
//               × 1 / (1 + γ·(z_max(f) − 1))
//
// where z(r) is the number of active flows on resource r, z_max(f) the
// maximum such count along f's path, and cap(f) the thread block's injection
// capability. Rates therefore depend only on per-resource counts, so when a
// flow starts or finishes only flows sharing one of its resources need a
// rate update — each update integrates the bytes moved at the old rate and
// reschedules the flow's completion event.
//
// The re-rate walk is incremental (docs/simulation_model.md, "Re-rate
// complexity"). Rates only matter once simulated time advances, so all
// count changes within one timestamp coalesce: flow starts and completions
// mark their resources dirty, and a single flush — driven by the event
// queue's advance hook just before the clock moves — re-rates the affected
// flows once. Within the flush, an epoch-stamped visited set considers each
// flow at most once, and an O(1) binding test per incidence proves most
// flows' rates unchanged without recomputing them: a flow is only re-rated
// if a dirty resource now constrains below its current rate, or could have
// been binding for it at some count the resource took during the timestamp.
// Skipped flows keep their queued completion events and defer integration
// to their next re-rate; that is exact, not an approximation, because a
// skipped flow's rate is constant over the deferred span. (Deferral does
// reassociate the floating-point partial sums, so the walk matches a solver
// that recomputes every rate at every timestamp — the trace-replay
// reference in tests/fluid_reference.h — to relative fp tolerance rather
// than bit-exactly; on its own the walk is fully deterministic.) Completed
// Flow entries and their event-queue slots recycle through free lists, so
// arbitrarily long simulations run in bounded memory with no steady-state
// allocation.
//
// The binding test's inputs are only the flow's current rate and whether it
// sits at its injection cap — so flows on one resource with bit-identical
// rate and the same cap-bound status are interchangeable, and the
// incremental walk *aggregates* them: each resource keeps its active flows
// bucketed by exact (rate, cap-bound) key, the flush's dirty-resource scan
// tests one bucket instead of each member, and a skipped bucket skips all
// its flows at once. On a rail-aligned fabric this is the difference
// between O(flows) and O(aggregates) per dirty trunk or spine link: the
// hundreds of same-(level, rail, direction) flows a hierarchical collective
// drives through a shared uplink land in a handful of buckets because the
// fair-share rate math gives symmetric flows bit-identical rates. The
// grouping is exact, not a heuristic — no rate is approximated; flows whose
// rates diverge (fault windows, asymmetric paths) just occupy more buckets,
// degrading gracefully toward the per-flow walk.
//
// Memory layout (docs/simulation_model.md, "Memory layout and allocation
// discipline"): flow state is struct-of-arrays. Per-flow path resources
// and bucket refs live in one shared CSR arena (sim/span_arena.h) as
// {begin, len} spans instead of per-flow heap vectors; the per-resource
// bucket-key index is an open-addressed flat table (sim/flat_map.h); the
// hot scalars (rate, remaining, last_update, span) are parallel arrays the
// flush walks contiguously.
//
// With a FaultPlan attached, capacity(r) additionally carries the plan's
// time-varying degradation scale; flows crossing a fault-window boundary are
// re-rated at the boundary instead of waiting for their (now stale)
// completion event.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/inplace_function.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/flat_map.h"
#include "sim/span_arena.h"
#include "topology/topology.h"

namespace resccl {

class FaultPlan;

struct FlowTag {};
using FlowId = Id<FlowTag>;

class FluidNetwork {
 public:
  // Inline storage: completion callbacks ([this, transfer]-sized captures)
  // must never heap-allocate on the StartFlow path. Trivially-copyable so
  // recycling a completed flow's entry is a byte copy, not a manager call.
  using CompletionFn = TrivialInplaceFunction<void(SimTime now), 48>;

  // Re-rate accounting since construction or the last Reset. A reused
  // network counts exactly what a fresh one would; the perf harnesses
  // (bench/micro_sim, bench/micro_scale) pin these counters exactly.
  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t flows_recycled = 0;  // entries reused from the free list
    std::uint64_t recompute_calls = 0;  // RecomputeFlow invocations
    std::uint64_t walk_visits = 0;  // O(1) binding tests, one per
                                    // (dirty resource, bucket) pair
    std::uint64_t binding_skips = 0;  // flows proven unchanged w/o recompute
    std::uint64_t rate_unchanged_skips = 0;  // recomputed, rate identical
    std::uint64_t reschedules = 0;  // completion/wake events (re)queued
  };

  // `faults` (optional, unowned, must outlive the network) degrades
  // per-resource capacity over the plan's time windows.
  FluidNetwork(const Topology& topo, const CostModel& cost, EventQueue& queue,
               const FaultPlan* faults = nullptr);
  // Unregisters the advance hook; the queue must still be alive (declare
  // the network after the queue, or on the same scope below it).
  ~FluidNetwork();
  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  // Returns the network to its just-constructed state under a (possibly
  // different) fault plan, keeping every warmed buffer's capacity — flow
  // arrays, span arena, bucket tables, scratch — so a reused network runs
  // the next same-shaped program without allocating. The caller must Reset
  // the event queue alongside (slots are not freed individually here).
  void Reset(const FaultPlan* faults);

  // Starts a flow of `bytes` over `path` with injection cap `cap`;
  // `on_complete` fires exactly once, when the last byte drains. The
  // path's resource list is copied into the flow (the caller's Path only
  // needs to outlive this call). Returned FlowIds are recycled after the
  // flow completes — they stay valid for FlowRate only until then.
  FlowId StartFlow(const Path& path, std::int64_t bytes, Bandwidth cap,
                   CompletionFn on_complete);

  // Diagnostics for tests: current rate in bytes/us (0 if finished).
  [[nodiscard]] double FlowRate(FlowId id) const;
  [[nodiscard]] int ActiveFlowCount() const { return active_count_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  // Arena accounting for the property tests: pool cells and live spans.
  [[nodiscard]] const PathSpanArena& arena() const { return arena_; }

  // Per-resource accounting, used for link-utilization metrics.
  struct ResourceUsage {
    std::int64_t bytes = 0;     // total bytes carried
    SimTime active;             // total time with >= 1 active flow
  };
  [[nodiscard]] const ResourceUsage& usage(ResourceId r) const {
    return usage_[static_cast<std::size_t>(r.value)];
  }
  [[nodiscard]] std::span<const ResourceUsage> all_usage() const {
    return usage_;
  }

  // One aggregate-rate change on one resource: at time `t` the summed flow
  // rate through `resource` moved by `delta` bytes/us. Because rates are
  // piecewise constant between changes, replaying the deltas in order
  // reconstructs each resource's exact utilization timeline (obs/timeline.h)
  // — no sampling involved. Entries are globally time-ordered (simulated
  // time is monotonic) and deltas for one flow telescope to zero by its
  // completion.
  struct RateDelta {
    SimTime t;
    ResourceId resource;
    double delta = 0.0;  // bytes/us
  };
  // Off by default (zero cost: one branch per re-rate). Arm before the
  // first StartFlow; the log only records changes from then on.
  void EnableRateLog() { rate_log_enabled_ = true; }
  [[nodiscard]] std::vector<RateDelta> TakeRateLog() {
    return std::move(rate_log_);
  }

  // Structural invariants of the SoA layout, checked in O(live state):
  // every active flow's span in bounds, every bucket ref pointing at a
  // bucket that lists the flow at that position, bucket key index
  // consistent with bucket contents. Test hook (throws via RESCCL_CHECK);
  // not called on any hot path.
  void DebugValidate() const;

 private:
  using FlowIndex = std::uint32_t;

  // One aggregate: the flows on one resource sharing a bit-identical rate
  // and cap-bound status. The flush's binding test runs once per bucket;
  // `max_reseq` is the conservative max over members' reseq (monotonic
  // while the bucket lives — a stale high value only widens the test).
  struct Bucket {
    double rate = 0.0;
    bool capped = false;  // every member at its injection cap
    std::uint64_t max_reseq = 0;
    std::vector<FlowIndex> flows;
  };

  // Per-resource bucket table. Bucket indices are stable (a free list
  // recycles emptied slots), so BucketRefs stay valid while the table
  // grows; `by_key` maps the exact (rate bits, cap-bound) key to its
  // bucket. Slots in use are [0, end); Reset rewinds `end` to 0 and keeps
  // the warmed Bucket storage past it, so a reused network hands out slots
  // in the same order as a fresh one. Iteration for the flush scan is over
  // the dense `buckets[0, end)` range, never the map — deterministic
  // order, independent of what the network ran before.
  struct ResourceBuckets {
    std::vector<Bucket> buckets;
    std::uint32_t end = 0;
    std::vector<std::uint32_t> free;
    FlatMap64 by_key;
  };

  // Flow state, struct-of-arrays: parallel vectors indexed by flow id. The
  // flush's hot reads (rate, visit_stamp, span) sit in their own dense
  // arrays; the path itself lives in the shared CSR arena. Cold per-flow
  // state (the completion callback) stays out of the hot lanes.
  struct FlowSoA {
    std::vector<PathSpanArena::Span> span;
    std::vector<double> remaining;      // bytes
    std::vector<double> rate;           // bytes/us
    std::vector<double> cap;            // bytes/us
    std::vector<SimTime> last_update;
    std::vector<EventQueue::Slot> slot;
    std::vector<std::uint64_t> reseq;   // recompute seq of the last re-rate
    std::vector<std::uint64_t> visit_stamp;  // epoch of last flush visit
    std::vector<std::uint8_t> active;
    std::vector<CompletionFn> on_complete;

    [[nodiscard]] std::size_t size() const { return rate.size(); }
    void PushDefault();
    void Clear();
  };

  // One dirty resource within the current timestamp: the count it had
  // before the first change (z_first) and the range of counts it took
  // ([z_lo, z_hi], covering pre- and post-change values). The flush's
  // binding test uses z_first for flows rated before the batch and the
  // range for flows rated mid-batch.
  struct Mark {
    std::size_t ri;
    int z_first;
    int z_lo;
    int z_hi;
  };

  [[nodiscard]] std::span<const ResourceId> PathOf(FlowIndex index) const {
    return arena_.resources(flows_.span[index]);
  }

  void UpdateResourceCounts(std::span<const ResourceId> resources, int delta,
                            SimTime now);
  // (Re)files the flow under the bucket matching its current rate on every
  // path resource / unfiles it (on completion or before a rate change
  // refiles it).
  void InsertIntoBuckets(FlowIndex index);
  void RemoveFromBuckets(FlowIndex index);
  // Rate-unchanged skips still advance the flow's reseq; its buckets'
  // max_reseq must follow for the flush's mid-batch classification.
  void BumpBucketReseq(FlowIndex index);
  [[nodiscard]] static std::uint64_t BucketKey(double rate, bool capped);
  // Records a count change on one resource for the pending flush batch.
  void MarkResource(std::size_t ri, int z_before, int z_after);
  // Re-rates everything affected by the pending batch; returns true if it
  // did any work. Loops until clean: re-rates can complete flows whose
  // callbacks start new ones, all still at the current timestamp.
  bool FlushDeferred();
  void RecomputeFlow(FlowIndex index, SimTime now, bool allow_skip);
  void Complete(FlowIndex index, SimTime now);
  void LogRateChange(FlowIndex index, SimTime now, double delta);
  [[nodiscard]] double ResourceShare(ResourceId r, int z, SimTime now) const;
  [[nodiscard]] double CurrentRate(FlowIndex index, SimTime now) const;
  [[nodiscard]] SimTime NextFaultTransition(FlowIndex index,
                                            SimTime now) const;

  const Topology& topo_;
  const CostModel& cost_;
  EventQueue& queue_;
  const FaultPlan* faults_ = nullptr;
  FlowSoA flows_;
  PathSpanArena arena_;                              // path + bucket-ref CSR
  std::vector<FlowIndex> free_flows_;                // recyclable entries
  std::vector<int> resource_active_;                 // per-resource flow count
  std::vector<ResourceBuckets> resource_buckets_;    // per-resource members
  std::vector<ResourceUsage> usage_;
  std::vector<SimTime> resource_busy_since_;
  // Last (count → share) computed per resource, valid only in the
  // fault-free mode (shares there are pure in (resource, count)). Written
  // from the logically-const ResourceShare; never needs invalidation — the
  // topology is fixed for the network's lifetime.
  mutable std::vector<int> share_cache_z_;
  mutable std::vector<double> share_cache_val_;
  std::uint64_t visit_epoch_ = 0;
  // Deferred re-rate state. pending_marks_ accumulates dirty resources
  // for the current timestamp; mark_stamp_/mark_index_
  // dedup marks per resource (epoch-guarded, no clearing pass);
  // pending_forced_ holds flows started this timestamp, which have no rate
  // yet and must be rated at flush regardless of the binding test.
  std::vector<Mark> pending_marks_;
  std::vector<FlowIndex> pending_forced_;
  std::vector<std::uint64_t> mark_stamp_;
  std::vector<std::size_t> mark_index_;
  std::uint64_t mark_epoch_ = 1;
  std::uint64_t recompute_seq_ = 0;
  std::uint64_t batch_start_seq_ = 0;  // recompute_seq_ when batch opened
  std::vector<Mark> flush_marks_;              // flush scratch (reused)
  std::vector<FlowIndex> flush_forced_;        // flush scratch (reused)
  std::vector<FlowIndex> flush_affected_;      // flush scratch (reused)
  bool in_flush_ = false;
  int active_count_ = 0;
  bool rate_log_enabled_ = false;
  std::vector<RateDelta> rate_log_;
  Stats stats_;
};

}  // namespace resccl
