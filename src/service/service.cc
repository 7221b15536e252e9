#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/publish.h"

namespace resccl::service {

namespace {

double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "?";
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kServed: return "served";
    case Outcome::kRejected: return "rejected";
    case Outcome::kShed: return "shed";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

SchedulingService::SchedulingService(std::shared_ptr<const Topology> topo,
                                     ServiceConfig config)
    : topo_(std::move(topo)),
      config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? *config_.metrics
                                          : obs::MetricsRegistry::Global()),
      lanes_(static_cast<std::size_t>(std::max(1, config_.max_in_flight))),
      group_(ThreadPool::Shared()) {
  RESCCL_CHECK(topo_ != nullptr);
  config_.max_in_flight = static_cast<int>(lanes_.size());
  config_.jobs = ThreadPool::ResolveJobs(config_.jobs);
  for (const TenantSpec& t : config_.tenants) {
    (void)TenantIndexLocked(t.name);
    tenants_[tenant_index_.at(t.name)].weight = t.weight > 0 ? t.weight : 1.0;
  }
  wall_epoch_us_ = SteadyNowUs();
}

SchedulingService::~SchedulingService() {
  // Live mode: every dispatched task must finish before members die. The
  // queue keeps draining through the tasks' completion hooks, so waiting on
  // the group alone is enough — each completion dispatches successors into
  // the same group.
  group_.Wait();
}

double SchedulingService::WallNowUs() const {
  return SteadyNowUs() - wall_epoch_us_;
}

std::size_t SchedulingService::TenantIndexLocked(const std::string& name) {
  auto it = tenant_index_.find(name);
  if (it != tenant_index_.end()) return it->second;
  TenantState state;
  state.name = name;
  tenants_.push_back(std::move(state));
  tenant_index_.emplace(name, tenants_.size() - 1);
  return tenants_.size() - 1;
}

int SchedulingService::LowestQueuedClassLocked() const {
  for (int c = kPriorityClasses - 1; c >= 0; --c) {
    for (const TenantState& t : tenants_) {
      if (!t.queues[static_cast<std::size_t>(c)].empty()) return c;
    }
  }
  return -1;
}

SchedulingService::Pending SchedulingService::PopShedVictimLocked(int cls) {
  // The newest arrival in the class: within each tenant the newest is the
  // deque back, so the victim is the back with the largest id. Dropping
  // LIFO keeps the oldest (longest-waiting) work of the class alive.
  TenantState* victim_tenant = nullptr;
  std::uint64_t newest = 0;
  for (TenantState& t : tenants_) {
    auto& q = t.queues[static_cast<std::size_t>(cls)];
    if (q.empty()) continue;
    if (victim_tenant == nullptr || q.back().id > newest) {
      victim_tenant = &t;
      newest = q.back().id;
    }
  }
  RESCCL_CHECK(victim_tenant != nullptr);
  auto& q = victim_tenant->queues[static_cast<std::size_t>(cls)];
  Pending victim = std::move(q.back());
  q.pop_back();
  --queued_total_;
  return victim;
}

bool SchedulingService::PopNextLocked(Pending& out) {
  for (int c = 0; c < kPriorityClasses; ++c) {
    TenantState* best = nullptr;
    double best_tag = std::numeric_limits<double>::infinity();
    for (TenantState& t : tenants_) {
      const auto& q = t.queues[static_cast<std::size_t>(c)];
      if (q.empty()) continue;
      // Start-time fair queuing over served bytes: the tenant whose
      // charged work (including this head request) is smallest relative to
      // its weight goes first. Ties resolve by registration order — the
      // iteration order here — so the pick is deterministic.
      const double tag =
          (static_cast<double>(t.charged_bytes + q.front().bytes)) / t.weight;
      if (best == nullptr || tag < best_tag) {
        best = &t;
        best_tag = tag;
      }
    }
    if (best == nullptr) continue;
    auto& q = best->queues[static_cast<std::size_t>(c)];
    out = std::move(q.front());
    q.pop_front();
    --queued_total_;
    best->charged_bytes += out.bytes;
    return true;
  }
  return false;
}

void SchedulingService::EnqueueLocked(Pending p) {
  const std::size_t t = TenantIndexLocked(p.req.tenant);
  const auto c = static_cast<std::size_t>(p.req.priority);
  tenants_[t].queues[c].push_back(std::move(p));
  ++queued_total_;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queued_total_);
}

void SchedulingService::RecordDropLocked(Pending p, Outcome outcome) {
  const auto cls = static_cast<std::size_t>(p.req.priority);
  if (outcome == Outcome::kShed) {
    ++stats_.shed;
    ++stats_.shed_by_class[cls];
  } else {
    ++stats_.rejected;
    ++stats_.rejected_by_class[cls];
  }
  // The invariant counter: dropping this request while something strictly
  // less urgent is still queued would be a priority inversion. The policy
  // always drops from the lowest queued class, so this stays 0; the load
  // bench asserts that rather than assuming it.
  const int lowest = LowestQueuedClassLocked();
  if (lowest > static_cast<int>(cls)) ++stats_.shed_inversions;
  obs::PublishServiceDecision(metrics_, OutcomeName(outcome),
                              PriorityName(p.req.priority));

  Response r;
  r.id = p.id;
  r.tenant = std::move(p.req.tenant);
  r.priority = p.req.priority;
  r.outcome = outcome;
  r.bytes = p.bytes;
  completed_.push_back(std::move(r));
}

void SchedulingService::PrepareLane(Lane& lane) {
  const Request& req = lane.pending.req;
  Result<PlanCache::Lookup> lookup =
      cache_.GetOrPrepare(req.algorithm, topo_, req.options, req.backend);
  lane.error.clear();
  if (lookup.ok()) {
    lane.lookup = std::move(lookup).value();
  } else {
    lane.error = lookup.status().ToString();
  }
}

void SchedulingService::ExecuteLane(Lane& lane) {
  if (!lane.error.empty()) return;
  try {
    lane.report = lane.ctx.Execute(lane.lookup.plan, lane.pending.req.run);
  } catch (const std::exception& e) {
    lane.error = e.what();
  }
}

void SchedulingService::RecordLaneLocked(Lane& lane) {
  Pending& p = lane.pending;
  const bool failed = !lane.error.empty();
  const bool hit = !failed && lane.lookup.hit;
  Response r;
  r.id = p.id;
  r.priority = p.req.priority;
  r.queue_wait_us = lane.queue_wait_us;
  r.bytes = p.bytes;
  if (failed) {
    ++stats_.failed;
    r.outcome = Outcome::kFailed;
    r.error = std::move(lane.error);
  } else {
    ++stats_.served;
    ++(hit ? stats_.coalesced : stats_.prepares);
    stats_.served_bytes[p.req.tenant] += p.bytes;
    r.outcome = Outcome::kServed;
    r.report = std::move(lane.report);
    r.report.plan_cache_hit = hit;
    r.report.prepare_us = lane.lookup.prepare_us;
  }
  obs::PublishServiceCompletion(metrics_, p.req.tenant, failed, hit,
                                lane.queue_wait_us,
                                failed ? 0.0 : static_cast<double>(p.bytes));
  r.tenant = std::move(p.req.tenant);
  completed_.push_back(std::move(r));
}

void SchedulingService::PublishDepthLocked() {
  obs::PublishServiceDepth(metrics_, static_cast<double>(queued_total_),
                           static_cast<double>(in_flight_));
}

std::uint64_t SchedulingService::Submit(Request req) {
  const std::lock_guard<std::mutex> lock(mu_);
  const double arrival =
      config_.deterministic ? virtual_now_us_ : WallNowUs();
  return SubmitInternal(std::move(req), arrival);
}

std::uint64_t SchedulingService::SubmitAt(Request req, double arrival_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  RESCCL_CHECK_MSG(config_.deterministic,
                   "SubmitAt is a deterministic-mode interface");
  RESCCL_CHECK_MSG(arrival_us <= virtual_now_us_,
                   "arrival " << arrival_us << "us is ahead of the virtual "
                   "clock; AdvanceTo it first");
  return SubmitInternal(std::move(req), arrival_us);
}

std::uint64_t SchedulingService::SubmitInternal(Request req,
                                                double arrival_us) {
  // Callers hold mu_.
  Pending p;
  p.id = ++next_id_;
  p.bytes = req.run.launch.buffer.bytes();
  p.arrival_us = arrival_us;
  p.req = std::move(req);
  const std::uint64_t id = p.id;
  const Priority priority = p.req.priority;

  ++stats_.submitted;
  obs::PublishServiceDecision(metrics_, "submitted", PriorityName(priority));

  if (queued_total_ < config_.queue_bound) {
    ++stats_.admitted;
    obs::PublishServiceDecision(metrics_, "admitted", PriorityName(priority));
    EnqueueLocked(std::move(p));
  } else {
    // Overload: make room by shedding from the least urgent queued class,
    // but only for a strictly more urgent arrival — otherwise reject the
    // arrival itself. Queue depth therefore never exceeds the bound.
    const int lowest = LowestQueuedClassLocked();
    if (lowest > static_cast<int>(priority)) {
      Pending victim = PopShedVictimLocked(lowest);
      RecordDropLocked(std::move(victim), Outcome::kShed);
      ++stats_.admitted;
      obs::PublishServiceDecision(metrics_, "admitted",
                                  PriorityName(priority));
      EnqueueLocked(std::move(p));
    } else {
      RecordDropLocked(std::move(p), Outcome::kRejected);
    }
  }
  PublishDepthLocked();
  if (!config_.deterministic) DispatchMoreLocked();
  return id;
}

void SchedulingService::AdvanceTo(double virtual_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  RESCCL_CHECK_MSG(config_.deterministic,
                   "AdvanceTo is a deterministic-mode interface");
  RESCCL_CHECK_MSG(virtual_us >= virtual_now_us_,
                   "virtual clock cannot run backwards");
  virtual_now_us_ = virtual_us;
}

bool SchedulingService::Step() {
  const std::lock_guard<std::mutex> lock(mu_);
  RESCCL_CHECK_MSG(config_.deterministic,
                   "Step is a deterministic-mode interface; live mode "
                   "dispatches on Submit");
  if (queued_total_ == 0) return false;

  std::size_t n = 0;
  while (n < lanes_.size() && PopNextLocked(lanes_[n].pending)) {
    lanes_[n].queue_wait_us = virtual_now_us_ - lanes_[n].pending.arrival_us;
    ++n;
  }
  in_flight_ = static_cast<int>(n);
  PublishDepthLocked();

  // Prepare serially in lane order: misses single-flight through the
  // shared cache, so duplicated fingerprints in (and across) batches cost
  // one compile. Then execute the lanes via ParallelFor — each lane writes
  // only its own context, so jobs = N is bit-identical to serial.
  for (std::size_t i = 0; i < n; ++i) PrepareLane(lanes_[i]);
  ParallelFor(config_.jobs, n, [&](std::size_t i) { ExecuteLane(lanes_[i]); });

  // The batch models max_in_flight concurrent executors: it occupies the
  // virtual clock for as long as its slowest member simulates.
  double batch_makespan_us = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes_[i].error.empty()) {
      batch_makespan_us =
          std::max(batch_makespan_us, lanes_[i].report.elapsed.us());
    }
  }
  virtual_now_us_ += batch_makespan_us;
  for (std::size_t i = 0; i < n; ++i) RecordLaneLocked(lanes_[i]);
  in_flight_ = 0;
  PublishDepthLocked();
  return true;
}

void SchedulingService::RunUntilQuiescent() {
  if (config_.deterministic) {
    while (Step()) {
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  quiescent_cv_.wait(lock,
                     [&] { return queued_total_ == 0 && in_flight_ == 0; });
}

void SchedulingService::DispatchMoreLocked() {
  for (Lane& lane : lanes_) {
    if (lane.busy) continue;
    if (!PopNextLocked(lane.pending)) return;
    lane.busy = true;
    ++in_flight_;
    lane.queue_wait_us = WallNowUs() - lane.pending.arrival_us;
    PublishDepthLocked();
    // The pool task: everything slow — the possibly-coalesced Prepare and
    // the Execute — runs outside mu_; only the bookkeeping locks.
    group_.Run([this, &lane] {
      PrepareLane(lane);
      ExecuteLane(lane);
      const std::lock_guard<std::mutex> lock(mu_);
      RecordLaneLocked(lane);
      lane.busy = false;
      --in_flight_;
      DispatchMoreLocked();
      PublishDepthLocked();
      if (queued_total_ == 0 && in_flight_ == 0) quiescent_cv_.notify_all();
    });
  }
}

std::vector<Response> SchedulingService::Drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Response> out;
  out.swap(completed_);
  return out;
}

SchedulingService::Stats SchedulingService::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

double SchedulingService::VirtualNow() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_us_;
}

std::size_t SchedulingService::queued() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_total_;
}

int SchedulingService::in_flight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

}  // namespace resccl::service
