// Thread-safe compiled-plan cache.
//
// The offline workflow (§4.1, §5.3) amortizes one compile over an entire
// training job. PlanCache is the in-process realization: an LRU map from
// the deterministic input fingerprint (core/fingerprint.h) to the immutable
// PreparedCollective artifact. Repeated traffic — a Communicator re-running
// AllReduce, the selector sweeping message sizes, several co-scheduled jobs
// compiling the same algorithm — pays the compile once and replays the
// shared artifact thereafter.
//
// Concurrency model: one mutex guards the LRU map, the in-flight table and
// the counters, and is held only for that bookkeeping. Compilation runs
// outside the lock, so a miss never blocks hits on other keys. Concurrent
// misses on the *same* key single-flight: the first thread becomes the
// leader and compiles; followers block on that compile and share its
// artifact (Stats.coalesced) — exactly one Prepare per
// fingerprint no matter how many requesters race, which is what lets the
// scheduling service (src/service) admit thousands of identical requests
// at the cost of one compile.
//
// The cache lives in memory only. Prepare is the one producer of a
// PreparedCollective: reloading a saved .plan (core/plan_io.h) costs more
// than compiling it again, so .plan files are compile/lint artifacts, not
// something the runtime replays (docs/plan_cache.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "core/fingerprint.h"
#include "runtime/backend.h"

namespace resccl {

class PlanCache {
 public:
  static constexpr std::size_t kCapacity = 64;  // live entries before LRU

  struct Stats {
    std::uint64_t hits = 0;    // served from memory
    std::uint64_t misses = 0;  // full Prepare performed
    // Lookups that joined a concurrent in-flight Prepare of the same key
    // instead of compiling (the single-flight path).
    std::uint64_t coalesced = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  // LRU entries dropped at capacity
  };

  // Outcome of one GetOrPrepare call. `hit` is true whenever this call did
  // no compilation (a memory hit or a coalesced wait on another thread's
  // compile; Stats tells those apart). `prepare_us` is the wall-clock this
  // call spent obtaining the plan — lookup-only (≈0) on a memory hit, the
  // leader's remaining compile time on a coalesced wait. Every successful
  // lookup also counts once under plan_cache.{hit,miss}_runs in the global
  // metrics registry (docs/observability.md).
  struct Lookup {
    PreparedPlan plan;
    bool hit = false;
    double prepare_us = 0;
  };

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Returns the cached artifact for (algo, topo, options), or prepares one,
  // caches it, and returns it. Propagates compile errors for malformed
  // algorithms.
  [[nodiscard]] Result<Lookup> GetOrPrepare(
      const Algorithm& algo, std::shared_ptr<const Topology> topo,
      const CompileOptions& options, std::string_view backend_name = "custom");

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;  // live entries

 private:
  struct Entry {
    PreparedPlan plan;
    std::list<Fingerprint>::iterator lru_pos;
  };
  // One in-flight Prepare: the leader publishes plan-or-error under `mu`
  // and notifies; followers hold a shared_ptr and wait, so the entry stays
  // alive even after the leader unlinks it from the cache.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    PreparedPlan plan;  // null on compile failure
    Status error;
  };
  // Inserts a freshly prepared `key` (single-flight guarantees it is absent)
  // and evicts least recently used entries beyond kCapacity.
  void Put(const Fingerprint& key, PreparedPlan plan);

  mutable std::mutex mu_;
  std::list<Fingerprint> lru_;  // front = most recently used
  std::unordered_map<Fingerprint, Entry, FingerprintHash> map_;
  std::unordered_map<Fingerprint, std::shared_ptr<InFlight>, FingerprintHash>
      inflight_;
  Stats counters_;
};

}  // namespace resccl
