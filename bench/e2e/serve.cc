// serve_live: the scheduling service in live mode, driven from this thread.
//
// Three pool workers execute (max_in_flight = 3) and this thread generates
// load: four threads on a four-core box. Requests come from the library's
// own seeded generator (service/workload.h): 4 tenants weighted 4:2:1:1,
// the default priority mix, 4 compile shapes, 1-8 MiB buffers. The stream
// is generated once as a pool and cycled, so memory stays flat however
// long the run.
//
//   phase 1  backlogged: a window of kBacklogWindow requests stays
//            outstanding, so the queue never drains; completions per second
//            are the service's capacity (ops_per_s).
//   phase 2  open loop at a fixed kOpenLoopRate: each request is timed from
//            when it was due to when this thread saw its completion
//            (op_ms, op_tail_ms), so a stall delays the requests behind
//            it too.
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "service/service.h"
#include "service/workload.h"
#include "workloads.h"

namespace e2e {

using namespace resccl;
using namespace resccl::service;

namespace {

// About half the backlogged capacity measured when the benchmark was
// defined (8.2k req/s on a 4-core x86 container), fixed in req/s so every
// commit is offered the same load.
constexpr double kOpenLoopRate = 4000;
constexpr int kMaxInFlight = 3;
// Deep enough that a host stall of tens of ms queues requests (their
// latency shows it) instead of refusing them.
constexpr std::size_t kQueueBound = 1024;
// Far above max_in_flight, so the queue never runs dry between top-ups.
constexpr std::size_t kBacklogWindow = 48;
constexpr int kPoolSize = 2048;
// The generator sleeps between polls (submit what is due, collect what
// completed) instead of spinning: a spinning fourth thread on a four-core
// VM made the tail latency swing by a quarter from run to run, a sleeping
// one by a few percent. Timer slack stretches the period to ~80 us.
constexpr std::chrono::microseconds kPoll{20};
constexpr double kPhase1Share = 0.4;
constexpr double kWindowUs = 0.5e6;
// A window's p99 needs ten samples beyond it.
constexpr std::size_t kP99Samples = 1000;
// A request not back this long after the last one was due is lost.
constexpr double kStragglerTimeoutUs = 10e6;

std::vector<TenantSpec> Tenants() {
  return {{"alpha", 4.0}, {"beta", 2.0}, {"gamma", 1.0}, {"delta", 1.0}};
}

struct ServeState {
  std::shared_ptr<const Topology> topo;
  std::vector<Arrival> pool;
  std::vector<std::size_t> pool_cell;  // pool index -> cells index
  std::vector<Cell> cells;             // distinct (algorithm, buffer)
  std::vector<std::size_t> cell_arrival;  // cells index -> a pool index
  std::size_t shapes = 0;
  std::unique_ptr<SchedulingService> svc;
};

std::unique_ptr<ServeState> MakeServeState(std::uint64_t seed,
                                           RunResult& result) {
  auto s = std::make_unique<ServeState>();
  s->topo = std::make_shared<const Topology>(presets::A100(2, 8));
  WorkloadSpec spec;
  spec.seed = seed;
  spec.requests = kPoolSize;
  spec.mean_interarrival_us = 1e6 / kOpenLoopRate;
  spec.tenants = Tenants();
  s->pool = GenerateWorkload(*s->topo, spec);

  ServiceConfig config;
  config.queue_bound = kQueueBound;
  config.max_in_flight = kMaxInFlight;
  config.deterministic = false;
  config.tenants = Tenants();
  s->svc = std::make_unique<SchedulingService>(s->topo, config);

  // Gate: each distinct (algorithm, buffer) of the pool is served once with
  // the data engine on. This also warms the plan cache: one compile per
  // shape, and every later request is a hit.
  std::map<std::pair<std::string, std::int64_t>, std::size_t> index;
  std::set<std::string> shapes;
  std::map<std::uint64_t, std::size_t> cell_of_id;
  for (std::size_t j = 0; j < s->pool.size(); ++j) {
    const Request& req = s->pool[j].req;
    shapes.insert(req.algorithm.name);
    const auto [it, fresh] = index.try_emplace(
        {req.algorithm.name, req.run.launch.buffer.bytes()}, s->cells.size());
    s->pool_cell.push_back(it->second);
    if (!fresh) continue;
    Cell cell;
    cell.request = req.run;
    s->cells.push_back(std::move(cell));
    s->cell_arrival.push_back(j);
    Request verified = req;
    verified.run.verify = true;
    cell_of_id[s->svc->Submit(std::move(verified))] = s->cells.size() - 1;
  }
  s->shapes = shapes.size();
  s->svc->RunUntilQuiescent();
  for (const Response& r : s->svc->Drain()) {
    if (result.Check(r.outcome == Outcome::kServed,
                     std::string("set-up request ") + OutcomeName(r.outcome) +
                         ": " + r.error)) {
      RecordVerified(s->cells[cell_of_id.at(r.id)], r.report, result);
    }
  }
  return s;
}

// One submitted request, indexed by id minus the phase's first id (one
// submitting thread, so a phase's ids are contiguous).
struct Sent {
  double due_us = 0;
  double submit_begin_us = 0;
  double submit_end_us = 0;
  double seen_us = 0;
  double queue_wait_us = 0;
  std::size_t cell = 0;
  Outcome outcome = Outcome::kRejected;
  bool done = false;
};

class Phase {
 public:
  Phase(ServeState& s, Recorder& rec) : s_(s), rec_(rec) {}

  void Submit(std::size_t n, double due_us) {
    const std::size_t j = n % s_.pool.size();
    Sent sent;
    sent.due_us = due_us;
    sent.cell = s_.pool_cell[j];
    sent.submit_begin_us = NowUs();
    const std::uint64_t id = s_.svc->Submit(s_.pool[j].req);
    sent.submit_end_us = NowUs();
    if (sent_.empty()) first_id_ = id;
    if (id != first_id_ + sent_.size()) ids_contiguous_ = false;
    sent_.push_back(sent);
  }

  // Collects completions; returns how many arrived.
  std::size_t Drain(double now_us) {
    std::size_t n = 0;
    for (const Response& r : s_.svc->Drain()) {
      const std::uint64_t k = r.id - first_id_;
      if (r.id < first_id_ || k >= sent_.size() || sent_[k].done) {
        ++unknown_;
        continue;
      }
      Sent& sent = sent_[k];
      sent.done = true;
      sent.seen_us = now_us;
      sent.outcome = r.outcome;
      sent.queue_wait_us = r.queue_wait_us;
      if (r.outcome == Outcome::kServed &&
          !Reproduces(s_.cells[sent.cell], r.report)) {
        ++diverged_;
      }
      ++n;
      ++done_;
    }
    return n;
  }

  [[nodiscard]] std::size_t outstanding() const {
    return sent_.size() - done_;
  }

  // Waits out the stragglers; then every request must be back exactly once.
  void Finish(RunResult& result) {
    const double deadline = NowUs() + kStragglerTimeoutUs;
    while (outstanding() > 0 && NowUs() < deadline) {
      Drain(NowUs());
      std::this_thread::sleep_for(kPoll);
    }
    result.Check(outstanding() == 0 && unknown_ == 0 && ids_contiguous_,
                 "every submitted request must complete exactly once");
    std::uint64_t refused = 0;
    for (const Sent& sent : sent_) {
      if (sent.outcome != Outcome::kServed) ++refused;
    }
    result.FailOps(refused, "request rejected, shed or failed");
    result.FailOps(diverged_, "served report differs from the set-up run");
    result.attempted += sent_.size();
  }

  // Submit spans, and under phase 2 one span per request from due time to
  // completion; request spans overlap, so they get their own trace lane.
  void RecordSpans(bool requests) {
    for (std::size_t k = 0; k < sent_.size(); ++k) {
      const Sent& sent = sent_[k];
      const auto id = static_cast<std::int64_t>(first_id_ + k);
      const int parent = requests ? rec_.Add("op: serve request", sent.due_us,
                                             sent.seen_us, -1, id, 2)
                                  : -1;
      rec_.Add("SchedulingService::Submit", sent.submit_begin_us,
               sent.submit_end_us, parent, id, requests ? 2 : 1);
    }
  }

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }

 private:
  ServeState& s_;
  Recorder& rec_;
  std::vector<Sent> sent_;
  std::uint64_t first_id_ = 0;
  std::size_t done_ = 0;
  std::uint64_t unknown_ = 0;
  std::uint64_t diverged_ = 0;
  bool ids_contiguous_ = true;
};

// Phase 1: keeps kBacklogWindow requests outstanding for `seconds`; returns
// completions per second in the least disturbed windows (the upper quartile
// over kWindowUs windows, common.h).
double Backlogged(ServeState& s, double seconds, std::size_t& next,
                  Recorder& rec, RunResult& result) {
  Phase phase(s, rec);
  const double start = NowUs();
  const double end = start + seconds * 1e6;
  std::vector<double> rates;
  double window_start = start;
  std::size_t window_done = 0;
  double now = start;
  for (; now < end; now = NowUs()) {
    while (phase.outstanding() < kBacklogWindow) phase.Submit(next++, now);
    window_done += phase.Drain(NowUs());
    std::this_thread::sleep_for(kPoll);
    if (now - window_start >= kWindowUs) {
      rates.push_back(static_cast<double>(window_done) /
                      ((now - window_start) / 1e6));
      window_start = now;
      window_done = 0;
    }
  }
  if (rates.empty()) {
    rates.push_back(static_cast<double>(window_done) /
                    ((now - window_start) / 1e6));
  }
  phase.Finish(result);
  if (rec.enabled()) phase.RecordSpans(/*requests=*/false);
  return Percentile(rates, 1 - kUndisturbed);
}

struct OpenLoopStats {
  double typical_us = 0;  // due -> completion seen, served requests
  double tail_us = 0;
  std::vector<double> lag_us;  // due -> Submit call
  std::vector<double> submit_us;
  std::vector<double> queue_wait_us;
  std::vector<double> exec_us;  // latency minus queue wait
};

// Phase 2: offers kOpenLoopRate, evenly spaced, for `seconds`.
OpenLoopStats OpenLoop(ServeState& s, double seconds, std::size_t& next,
                       Recorder& rec, RunResult& result) {
  Phase phase(s, rec);
  const double start = NowUs();
  const double end = start + seconds * 1e6;
  const double gap_us = 1e6 / kOpenLoopRate;
  double due = start;
  for (double now = start; now < end; now = NowUs()) {
    for (; due <= now && due < end; due += gap_us) phase.Submit(next++, due);
    phase.Drain(NowUs());
    std::this_thread::sleep_for(kPoll);
  }
  phase.Finish(result);
  if (rec.enabled()) phase.RecordSpans(/*requests=*/true);

  OpenLoopStats stats;
  std::map<std::int64_t, std::vector<double>> by_window;
  for (const Sent& sent : phase.sent()) {
    stats.lag_us.push_back(sent.submit_begin_us - sent.due_us);
    stats.submit_us.push_back(sent.submit_end_us - sent.submit_begin_us);
    if (sent.outcome != Outcome::kServed) continue;
    const double latency = sent.seen_us - sent.due_us;
    stats.queue_wait_us.push_back(sent.queue_wait_us);
    stats.exec_us.push_back(latency - sent.queue_wait_us);
    by_window[static_cast<std::int64_t>((sent.due_us - start) / kWindowUs)]
        .push_back(latency);
  }
  // Each full kWindowUs window holds ~2000 requests, enough for ten beyond
  // its p99; the metrics take the least disturbed quarter of the windows
  // (common.h). A host stall inflates the windows it hits, a slower service
  // all of them. A run too short for one full window is one window.
  std::vector<double> all;
  std::vector<double> medians;
  std::vector<double> tails;
  for (const auto& entry : by_window) {
    const std::vector<double>& window = entry.second;
    all.insert(all.end(), window.begin(), window.end());
    if (window.size() < kP99Samples) continue;
    medians.push_back(Median(window));
    tails.push_back(Percentile(window, 0.99));
  }
  if (medians.empty()) {
    medians.push_back(Median(all));
    tails.push_back(Percentile(all, 0.99));
  }
  stats.typical_us = Percentile(medians, kUndisturbed);
  stats.tail_us = Percentile(tails, kUndisturbed);
  return stats;
}

}  // namespace

void RunServe(const Options& opts, Recorder& rec, RunResult& result) {
  const std::unique_ptr<ServeState> s = SetUp<ServeState>(
      result, opts.trace ? 1 : kSetups,
      [&] { return MakeServeState(opts.seed, result); });
  std::size_t next = 0;
  const double phase1 = opts.seconds * kPhase1Share;
  const double phase2 = opts.seconds - phase1;
  if (opts.trace) {
    Recorder off(false);
    SetAllocCounting(false);
    const double plain = Backlogged(*s, phase1 / 2, next, off, result);
    SetAllocCounting(true);
    const double traced = Backlogged(*s, phase1 / 2, next, rec, result);
    result.Set("trace.overhead_frac", plain / traced - 1, "frac");
  } else {
    result.Set("ops_per_s", Backlogged(*s, phase1, next, rec, result), "1/s");
  }
  const SchedulingService::Stats backlog = s->svc->stats();
  const OpenLoopStats open = OpenLoop(*s, phase2, next, rec, result);
  s->svc->RunUntilQuiescent();

  const SchedulingService::Stats stats = s->svc->stats();
  result.Check(stats.shed_inversions == 0, "priority inversion while shedding");
  result.Check(stats.prepares == s->shapes,
               "expected one compile per shape, got " +
                   std::to_string(stats.prepares));
  result.Check(stats.submitted ==
                   stats.served + stats.rejected + stats.shed + stats.failed,
               "service lost track of a request");
  result.Set("op_ms", open.typical_us / 1e3, "ms");
  result.Set("op_tail_ms", open.tail_us / 1e3, "ms");
  SetSimMetrics(result, s->cells);
  if (!opts.trace) return;

  SetLayerDefaults(result);
  const PlanCache::Stats cache = s->svc->plan_cache().stats();
  result.Set("plan_cache.hit_frac",
             static_cast<double>(cache.hits) /
                 static_cast<double>(cache.hits + cache.misses),
             "frac");
  result.Set("plan_cache.compiles", static_cast<double>(cache.misses),
             "count");
  result.Set("service.drop_frac_backlog",
             static_cast<double>(backlog.rejected + backlog.shed) /
                 static_cast<double>(backlog.submitted),
             "frac");
  result.Set("service.coalesced_frac",
             static_cast<double>(stats.coalesced) /
                 static_cast<double>(stats.served),
             "frac");
  result.Set("service.max_queue_depth",
             static_cast<double>(stats.max_queue_depth), "count");
  result.Set("service.submit_us_p50", Percentile(open.submit_us, 0.50), "us");
  result.Set("service.submit_us_p99", Percentile(open.submit_us, 0.99), "us");
  result.Set("service.queue_wait_ms_p50",
             Percentile(open.queue_wait_us, 0.50) / 1e3, "ms");
  result.Set("service.queue_wait_ms_p99",
             Percentile(open.queue_wait_us, 0.99) / 1e3, "ms");
  result.Set("service.exec_ms_p50", Percentile(open.exec_us, 0.50) / 1e3,
             "ms");
  result.Set("gen.lag_p99_ms", Percentile(open.lag_us, 0.99) / 1e3, "ms");
  // The service executes through the one-shot Execute: a fresh context,
  // so a fresh lowering, per request.
  result.Set("lowering.calls_per_op", 1, "frac");

  // The layer passes need the plans; prepare them here, outside the service.
  std::map<std::string, PreparedPlan> plans;
  for (std::size_t i = 0; i < s->cells.size(); ++i) {
    const Request& req = s->pool[s->cell_arrival[i]].req;
    PreparedPlan& plan = plans[req.algorithm.name];
    if (plan == nullptr) {
      Result<PreparedPlan> prepared =
          Prepare(req.algorithm, s->topo, req.options, req.backend);
      if (!prepared.ok()) {
        throw std::runtime_error(prepared.status().ToString());
      }
      plan = std::move(prepared).value();
    }
    s->cells[i].plan = plan;
  }
  std::vector<PreparedPlan> distinct;
  for (const auto& entry : plans) distinct.push_back(entry.second);
  CompileLayers(distinct, rec, result);
  ExecuteLayers(s->cells, /*one_shot=*/true, rec, result);
}

}  // namespace e2e
