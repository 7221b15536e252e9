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
// Persistence: with `persist_dir` set, every compiled plan is also written
// through SavePlan as "<fingerprint-hex>.plan", and a miss first tries
// LoadPlan from that file — so a restarted process (or another process
// sharing the directory) skips compilation entirely. A truncated, corrupted,
// or mismatched file is rejected by LoadPlan's validation, a fingerprint
// re-check, and the static plan verifier (analysis/analyzer.h), and the plan
// is recompiled and rewritten; such rejections show up in Stats.disk_rejects.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/fingerprint.h"
#include "runtime/backend.h"

namespace resccl {

class PlanCache {
 public:
  struct Config {
    std::size_t capacity = 64;  // live entries before LRU eviction
    std::string persist_dir;    // non-empty: write-through/read via plan_io
  };

  struct Stats {
    std::uint64_t hits = 0;       // served from memory
    std::uint64_t disk_hits = 0;  // restored from persist_dir, no compile
    std::uint64_t misses = 0;     // full Prepare performed
    // Lookups that joined a concurrent in-flight Prepare of the same key
    // instead of compiling (the single-flight path).
    std::uint64_t coalesced = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  // LRU entries dropped at capacity
    // Persisted plans that parsed and fingerprint-matched but failed the
    // static verifier (analysis/analyzer.h) — recompiled and overwritten.
    std::uint64_t disk_rejects = 0;
  };

  // Outcome of one GetOrPrepare call. `hit` is true whenever this call did
  // no compilation (memory, disk, or a coalesced wait on another thread's
  // compile; Stats tells those apart). `prepare_us` is the wall-clock this
  // call spent obtaining the plan — lookup-only (≈0) on a memory hit, the
  // leader's remaining compile time on a coalesced wait.
  struct Lookup {
    PreparedPlan plan;
    bool hit = false;
    double prepare_us = 0;
  };

  PlanCache();  // default Config
  explicit PlanCache(Config config);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Returns the cached artifact for (algo, topo, options), or prepares one,
  // caches it (memory, plus disk when persistence is on), and returns it.
  // Propagates compile errors for malformed algorithms.
  [[nodiscard]] Result<Lookup> GetOrPrepare(
      const Algorithm& algo, std::shared_ptr<const Topology> topo,
      const CompileOptions& options, std::string_view backend_name = "custom");

  // Direct probes (no disk access, no compile) for tests and tools.
  [[nodiscard]] PreparedPlan Get(const Fingerprint& key);
  void Put(const Fingerprint& key, PreparedPlan plan);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;  // live entries
  void Clear();                            // drops entries, keeps counters

  [[nodiscard]] const Config& config() const { return config_; }

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
  [[nodiscard]] std::string DiskPath(const Fingerprint& key) const;
  // Best-effort restore of `key` from persist_dir; nullptr on any failure.
  [[nodiscard]] PreparedPlan TryLoadFromDisk(
      const Fingerprint& key, std::shared_ptr<const Topology> topo,
      std::string_view backend_name);
  void Persist(const Fingerprint& key, const PreparedCollective& prepared);

  Config config_;
  mutable std::mutex mu_;
  std::list<Fingerprint> lru_;  // front = most recently used
  std::unordered_map<Fingerprint, Entry, FingerprintHash> map_;
  std::unordered_map<Fingerprint, std::shared_ptr<InFlight>, FingerprintHash>
      inflight_;
  Stats counters_;
};

}  // namespace resccl
