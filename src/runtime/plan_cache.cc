#include "runtime/plan_cache.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "obs/metrics.h"

namespace resccl {

namespace {

// Closes one successful lookup: stamps its wall-clock and counts it under
// plan_cache.{hit,miss}_runs, once per lookup whoever the caller is.
PlanCache::Lookup Served(PreparedPlan plan, bool hit,
                         std::chrono::steady_clock::time_point t0) {
  PlanCache::Lookup lookup{std::move(plan), hit, ElapsedUs(t0)};
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (reg.enabled()) {
    reg.counter(hit ? "plan_cache.hit_runs" : "plan_cache.miss_runs")
        .Increment();
  }
  return lookup;
}

}  // namespace

Result<PlanCache::Lookup> PlanCache::GetOrPrepare(
    const Algorithm& algo, std::shared_ptr<const Topology> topo,
    const CompileOptions& options, std::string_view backend_name) {
  RESCCL_CHECK(topo != nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  const Fingerprint key = FingerprintOf(algo, topo->spec(), options);

  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      ++counters_.hits;
      return Served(it->second.plan, true, t0);
    }
    // Single-flight: the first thread missing a key leads the compile;
    // later threads join its flight and wait instead of compiling again.
    auto [fit, inserted] = inflight_.try_emplace(key, nullptr);
    if (inserted) {
      fit->second = std::make_shared<InFlight>();
      leader = true;
    }
    flight = fit->second;
  }

  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->plan == nullptr) return flight->error;
    {
      std::lock_guard<std::mutex> cache_lock(mu_);
      ++counters_.coalesced;
    }
    return Served(flight->plan, true, t0);
  }

  // Leader path, outside the cache lock: a full Prepare. Whatever happens —
  // plan, error, or exception — the flight must resolve, or followers would
  // wait forever.
  const auto resolve = [&](PreparedPlan plan, Status error) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->plan = std::move(plan);
    flight->error = std::move(error);
    flight->cv.notify_all();
  };

  try {
    Result<PreparedPlan> prepared =
        Prepare(algo, std::move(topo), options, backend_name);
    if (!prepared.ok()) {
      resolve(nullptr, prepared.status());
      return prepared.status();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.misses;
    }
    Put(key, prepared.value());
    resolve(prepared.value(), Status::Ok());
    return Served(std::move(prepared).value(), false, t0);
  } catch (...) {
    resolve(nullptr, Status::Internal("Prepare threw; see leader thread"));
    throw;
  }
}

void PlanCache::Put(const Fingerprint& key, PreparedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.push_front(key);
  const bool inserted =
      map_.emplace(key, Entry{std::move(plan), lru_.begin()}).second;
  RESCCL_CHECK(inserted);
  ++counters_.insertions;
  while (map_.size() > kCapacity) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++counters_.evictions;
  }
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace resccl
