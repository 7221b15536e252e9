// Multi-tenant collective-scheduling service.
//
// The compile-once/execute-many split (backend.h), the plan cache, and the
// metrics registry make ResCCL a fast library; this module makes it a
// *server*: a long-running SchedulingService that admits thousands of
// concurrent collective requests from many tenants against one shared plan
// cache and one simulator pool, and degrades gracefully under overload.
//
//   Admission    a bounded queue (Config::queue_bound). When full, the
//                lowest-priority queued request is shed to admit a more
//                urgent arrival; an arrival no more urgent than everything
//                queued is rejected outright. Shedding is priority-ordered
//                by construction — a request is never dropped while a
//                strictly less urgent one stays queued — and the service
//                counts violations (Stats::shed_inversions, always 0) so
//                the load bench can assert the property, not assume it.
//   Fairness     strict priority across classes; within a class, tenants
//                share by weight: dequeue picks the tenant minimizing
//                (charged_bytes + head_bytes) / weight — start-time fair
//                queuing over served bytes, so long-run per-tenant
//                throughput tracks the configured weights.
//   Coalescing   Prepare goes through the shared PlanCache, whose
//                single-flight miss path guarantees one compile per
//                fingerprint no matter how many requesters race; N
//                concurrent identical requests cost one compile and N
//                Executes of the shared artifact.
//   Execution    Config::max_in_flight lanes, each an in-flight slot with
//                its own ExecContext (runtime/exec_context.h), so a request
//                reuses its lane's machine and lowering instead of building
//                a context. Lanes run on the shared work-stealing pool
//                (live mode) or batch-by-batch under the virtual clock
//                (deterministic mode); both run one lane body.
//
// Deterministic-first: with Config::deterministic (the default), nothing
// runs in the background. Submit/SubmitAt only enqueue; Step() dispatches
// one batch of up to max_in_flight requests into lanes 0..n-1 at the
// current *virtual* time, executes the lanes (optionally via ParallelFor —
// bit-identical to serial by the by-index determinism contract), and
// advances the virtual clock by the batch's slowest simulated makespan.
// Arrival order, admission decisions, queue waits, and completion order are
// all exactly reproducible, so fairness, coalescing, and shedding invariants
// are assertable equalities rather than flaky thresholds. Live mode
// (deterministic = false) runs the identical admission/fairness/shedding
// state machine behind real threads.
//
// Telemetry: every decision and completion publishes to the obs metrics
// registry under stable service.* names (docs/observability.md) when the
// registry is enabled; Stats mirrors the counters unconditionally.
//
// Tenancy is a serving-time concept only: tenant, priority, quota, and
// queue state never enter the compile fingerprint, so all tenants share
// one plan per (algorithm, topology, options) — see DESIGN.md.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "runtime/backend.h"
#include "runtime/exec_context.h"
#include "runtime/plan_cache.h"

namespace resccl::service {

// Lower value = more urgent. Dispatch is strict priority across classes;
// shedding always starts from the least urgent queued class.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kPriorityClasses = 3;

[[nodiscard]] const char* PriorityName(Priority p);

enum class Outcome : std::uint8_t {
  kServed,    // executed; Response::report is valid
  kRejected,  // refused at admission (queue full, nothing less urgent queued)
  kShed,      // admitted earlier, evicted to make room for a more urgent one
  kFailed,    // dispatched but Prepare/Execute failed; Response::error set
};

[[nodiscard]] const char* OutcomeName(Outcome o);

struct TenantSpec {
  std::string name;
  double weight = 1.0;  // relative share of served bytes within a class
};

struct ServiceConfig {
  // Maximum queued (admitted but not yet dispatched) requests. The queue
  // depth never exceeds this — asserted via Stats::max_queue_depth.
  std::size_t queue_bound = 1024;
  // Maximum requests dispatched concurrently (live mode) or per batch
  // (deterministic mode): the number of lanes.
  int max_in_flight = 4;
  // Execute parallelism within a deterministic batch: ParallelFor jobs.
  // Reports are bit-identical across jobs values. 0 resolves RESCCL_JOBS.
  int jobs = 1;
  // Virtual clock + explicit Step pump (true) vs background threads on the
  // shared pool (false). The scheduling state machine is identical.
  bool deterministic = true;
  // Tenants with non-default weights. Unknown tenants register on first
  // use with weight 1.0.
  std::vector<TenantSpec> tenants;
  // Registry for service.* telemetry; nullptr = MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
};

struct Request {
  std::string tenant = "default";
  Priority priority = Priority::kNormal;
  Algorithm algorithm;
  CompileOptions options;
  RunRequest run;  // launch config, cost model, verify, faults
  std::string backend = "ResCCL";
};

struct Response {
  std::uint64_t id = 0;
  std::string tenant;
  Priority priority = Priority::kNormal;
  Outcome outcome = Outcome::kRejected;
  // Dispatch time minus arrival time: virtual µs (deterministic) or wall
  // µs (live). Zero for requests never dispatched.
  double queue_wait_us = 0;
  std::int64_t bytes = 0;  // launch buffer bytes (the fairness currency)
  // Valid when outcome == kServed. report.plan_cache_hit is true when the
  // plan came without a fresh compile (memory/disk hit or a coalesced wait
  // on a concurrent compile of the same fingerprint).
  CollectiveReport report;
  std::string error;  // set when outcome == kFailed
};

class SchedulingService {
 public:
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    std::uint64_t coalesced = 0;  // served without a fresh compile
    std::uint64_t prepares = 0;   // served via a fresh compile
    // Requests dropped (rejected or shed) while a strictly less urgent
    // request stayed queued. The admission policy makes this impossible;
    // it is counted so benches assert the invariant instead of trusting it.
    std::uint64_t shed_inversions = 0;
    std::size_t max_queue_depth = 0;  // high-water mark, <= queue_bound
    std::array<std::uint64_t, kPriorityClasses> rejected_by_class{};
    std::array<std::uint64_t, kPriorityClasses> shed_by_class{};
    std::map<std::string, std::int64_t> served_bytes;  // per tenant
  };

  // `topo` is the cluster every tenant's collectives run on; all requests
  // compile against it (one artifact per fingerprint, shared cache-wide).
  SchedulingService(std::shared_ptr<const Topology> topo,
                    ServiceConfig config);
  ~SchedulingService();
  SchedulingService(const SchedulingService&) = delete;
  SchedulingService& operator=(const SchedulingService&) = delete;

  // Submits one request. The admission decision (admit / reject / shed a
  // victim) happens synchronously; rejected requests complete immediately
  // with Outcome::kRejected. Returns the request id. Thread-safe in both
  // modes. In live mode, admitted work also starts executing.
  std::uint64_t Submit(Request req);

  // Deterministic mode only: Submit with an explicit arrival time for
  // open-loop workloads — the request "arrived" at `arrival_us` even if
  // the virtual clock has already advanced past it executing a batch, so
  // queue waits reflect the offered arrival process, not the batch grid.
  // arrival_us must not exceed the virtual clock.
  std::uint64_t SubmitAt(Request req, double arrival_us);

  // Deterministic mode only: advances the virtual clock to `virtual_us`
  // (must be >= VirtualNow) — models idle time between arrivals.
  void AdvanceTo(double virtual_us);

  // Deterministic mode only: dispatches one batch of up to max_in_flight
  // requests at the current virtual time, executes it, records responses,
  // and advances the virtual clock by the batch's slowest simulated
  // makespan. Returns false (and leaves the clock alone) when the queue is
  // empty. Batch completion order is submission-fairness order, so the
  // whole run is bit-reproducible.
  bool Step();

  // Deterministic mode: Step until the queue drains. Live mode: block
  // until no request is queued or in flight. Either way the service is
  // quiescent afterwards: every admitted request has a recorded outcome.
  void RunUntilQuiescent();

  // Completed responses since the last Drain, in completion order
  // (deterministic mode: exactly reproducible; live mode: arbitrary).
  [[nodiscard]] std::vector<Response> Drain();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const PlanCache& plan_cache() const { return cache_; }
  [[nodiscard]] double VirtualNow() const;
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] int in_flight() const;
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    Request req;
    double arrival_us = 0;
    std::int64_t bytes = 0;
  };
  struct TenantState {
    std::string name;
    double weight = 1.0;
    // Fairness numerator: bytes charged at dispatch. Charging at dispatch
    // (not completion) keeps consecutive picks from piling onto one tenant
    // while its first request is still in flight.
    std::int64_t charged_bytes = 0;
    std::array<std::deque<Pending>, kPriorityClasses> queues;
  };

  // One in-flight slot. Its fields belong to whoever dispatched it until it
  // is recorded: Step (deterministic) or the lane's pool task (live).
  struct Lane {
    Pending pending;
    double queue_wait_us = 0;
    PlanCache::Lookup lookup;
    std::string error;  // non-empty: Prepare or Execute failed
    ExecContext ctx;
    // A copy of ctx's report, taken outside mu_ so the lock never waits on
    // it; RecordLaneLocked moves it into the Response.
    CollectiveReport report;
    bool busy = false;  // live mode, guarded by mu_
  };

  [[nodiscard]] std::size_t TenantIndexLocked(const std::string& name);
  [[nodiscard]] int LowestQueuedClassLocked() const;
  // The least urgent, newest-arrived queued request (class `cls`).
  [[nodiscard]] Pending PopShedVictimLocked(int cls);
  // Weighted-fair pick: strict priority, then min (charged + head)/weight.
  [[nodiscard]] bool PopNextLocked(Pending& out);
  void EnqueueLocked(Pending p);
  void RecordDropLocked(Pending p, Outcome outcome);
  // The lane body, shared by both modes: Prepare (possibly coalesced),
  // Execute on the lane's context, then record the outcome under mu_.
  void PrepareLane(Lane& lane);
  void ExecuteLane(Lane& lane);
  void RecordLaneLocked(Lane& lane);
  void PublishDepthLocked();
  std::uint64_t SubmitInternal(Request req, double arrival_us);
  // Live mode: move queued work into free lanes.
  void DispatchMoreLocked();
  [[nodiscard]] double WallNowUs() const;

  std::shared_ptr<const Topology> topo_;
  ServiceConfig config_;
  obs::MetricsRegistry& metrics_;
  PlanCache cache_;

  mutable std::mutex mu_;
  std::condition_variable quiescent_cv_;
  std::vector<TenantState> tenants_;
  std::map<std::string, std::size_t> tenant_index_;
  std::size_t queued_total_ = 0;
  int in_flight_ = 0;
  std::uint64_t next_id_ = 0;
  double virtual_now_us_ = 0;
  double wall_epoch_us_ = 0;  // live mode: steady_clock at construction
  Stats stats_;
  std::vector<Response> completed_;
  std::vector<Lane> lanes_;  // max_in_flight of them, never resized

  // Live-mode execution tasks; joined (after the queue drains) in ~Service.
  TaskGroup group_;
};

}  // namespace resccl::service
