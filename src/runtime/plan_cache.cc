#include "runtime/plan_cache.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "analysis/analyzer.h"
#include "common/check.h"
#include "common/clock.h"
#include "core/plan_io.h"

namespace resccl {

PlanCache::PlanCache() : PlanCache(Config()) {}

PlanCache::PlanCache(Config config) : config_(std::move(config)) {
  if (config_.capacity == 0) config_.capacity = 1;
}

std::string PlanCache::DiskPath(const Fingerprint& key) const {
  return (std::filesystem::path(config_.persist_dir) / (key.ToHex() + ".plan"))
      .string();
}

PreparedPlan PlanCache::TryLoadFromDisk(const Fingerprint& key,
                                        std::shared_ptr<const Topology> topo,
                                        std::string_view backend_name) {
  const auto t0 = std::chrono::steady_clock::now();
  std::ifstream in(DiskPath(key));
  if (!in) return nullptr;
  Result<CompiledCollective> plan = LoadPlan(in);
  if (!plan.ok()) return nullptr;  // truncated / corrupted → recompile
  // Reject a file whose restored inputs do not hash back to the key (a
  // tampered artifact or a renamed file from another configuration).
  if (!(FingerprintOf(plan.value().algo, topo->spec(),
                      plan.value().options) == key)) {
    return nullptr;
  }
  // The parser and the fingerprint accept any well-formed file; the static
  // verifier additionally proves the restored plan safe to execute. An
  // edited-on-disk plan that would deadlock or race is recompiled instead.
  if (const AnalysisReport verdict = AnalyzePlan(plan.value(), topo.get());
      !verdict.clean()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.disk_rejects;
    return nullptr;
  }
  auto prepared = std::make_shared<PreparedCollective>();
  prepared->topo = std::move(topo);
  prepared->plan = std::move(plan).value();
  prepared->backend = std::string(backend_name);
  prepared->prepare_us = ElapsedUs(t0);
  return prepared;
}

void PlanCache::Persist(const Fingerprint& key,
                        const PreparedCollective& prepared) {
  // Best effort: persistence failures (read-only dir, disk full) must never
  // fail the collective, so errors are swallowed here.
  std::error_code ec;
  std::filesystem::create_directories(config_.persist_dir, ec);
  if (ec) return;
  std::ofstream out(DiskPath(key));
  if (!out) return;
  SavePlan(prepared.plan, out);
}

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
      return Lookup{it->second.plan, true, ElapsedUs(t0)};
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
    return Lookup{flight->plan, true, ElapsedUs(t0)};
  }

  // Leader path, outside the cache lock: disk restore, then full Prepare.
  // Whatever happens — plan, error, or exception — the flight must resolve,
  // or followers would wait forever.
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
    if (!config_.persist_dir.empty()) {
      if (PreparedPlan loaded = TryLoadFromDisk(key, topo, backend_name)) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.disk_hits;
        }
        Put(key, loaded);
        resolve(loaded, Status::Ok());
        return Lookup{std::move(loaded), true, ElapsedUs(t0)};
      }
    }

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
    if (!config_.persist_dir.empty()) Persist(key, *prepared.value());
    Put(key, prepared.value());
    resolve(prepared.value(), Status::Ok());
    return Lookup{std::move(prepared).value(), false, ElapsedUs(t0)};
  } catch (...) {
    resolve(nullptr, Status::Internal("Prepare threw; see leader thread"));
    throw;
  }
}

PreparedPlan PlanCache::Get(const Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.plan;
}

void PlanCache::Put(const Fingerprint& key, PreparedPlan plan) {
  RESCCL_CHECK(plan != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{std::move(plan), lru_.begin()});
  ++counters_.insertions;
  while (map_.size() > config_.capacity) {
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

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

}  // namespace resccl
