// Communicator: the library's top-level public API.
//
//   resccl::Communicator comm(resccl::presets::A100(2, 8),
//                             resccl::BackendKind::kResCCL);
//   auto report = comm.AllReduce({.launch = {.buffer = Size::MiB(512)}});
//   // report.algo_bw, report.sim (TB stats), report.links, ...
//
// Collectives run on the backend's default algorithm (hierarchical-mesh for
// ResCCL/MSCCL, multi-channel ring for NCCL-like) or on any custom
// Algorithm — built programmatically, taken from resccl::algorithms, or
// compiled from ResCCLang source with lang::CompileSource.
//
// Every communicator owns (or shares) a PlanCache, so repeated collectives
// compile once and replay the prepared artifact: after a second AllReduce
// of the same shape, plan_cache().stats() reads one miss and one hit. The
// report describes the run; the cache describes the compile.
#pragma once

#include <memory>
#include <string>

#include "core/algorithm.h"
#include "runtime/backend.h"
#include "runtime/exec_context.h"
#include "runtime/plan_cache.h"
#include "topology/topology.h"

namespace resccl {

// The algorithm a backend would pick for a collective on this topology.
// Throws std::invalid_argument when the topology cannot run it (one rank).
[[nodiscard]] Algorithm DefaultAlgorithm(BackendKind kind, CollectiveOp op,
                                         const Topology& topo);

class Communicator {
 public:
  // `spec` is deliberately a by-value sink: callers pass preset r-values and
  // the spec is moved into the topology, so no heavy copy occurs. Pass a
  // `cache` to share one compiled-plan cache across communicators (e.g. all
  // jobs of a training run); by default each instance gets its own.
  Communicator(TopologySpec spec, BackendKind kind,
               std::shared_ptr<PlanCache> cache = nullptr);

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] BackendKind backend() const { return kind_; }

  // The compiled-plan cache serving this communicator (hit/miss counters,
  // shared across instances when injected via the constructor).
  [[nodiscard]] PlanCache& plan_cache() const { return *cache_; }

  // Standard collectives on the backend's default algorithm. Throws
  // std::invalid_argument if the request or the topology is unusable.
  [[nodiscard]] CollectiveReport AllGather(const RunRequest& request) const;
  [[nodiscard]] CollectiveReport AllReduce(const RunRequest& request) const;
  [[nodiscard]] CollectiveReport ReduceScatter(const RunRequest& request) const;
  [[nodiscard]] CollectiveReport Broadcast(const RunRequest& request) const;
  [[nodiscard]] CollectiveReport Reduce(const RunRequest& request) const;

  // Runs a custom algorithm under this communicator's backend. The compiled
  // plan is cached by fingerprint like the standard collectives.
  [[nodiscard]] CollectiveReport Run(const Algorithm& algo,
                                     const RunRequest& request) const;

 private:
  [[nodiscard]] CollectiveReport RunOp(CollectiveOp op,
                                       const RunRequest& request) const;

  std::shared_ptr<const Topology> topo_;
  BackendKind kind_;
  std::shared_ptr<PlanCache> cache_;
  // Per-communicator execution scratch (runtime/exec_context.h): the lowered
  // program, simulation machine, and report vectors are reused across Run
  // calls, so a cache-hit collective replays without rebuilding its
  // simulation state. This makes concurrent Run calls on ONE Communicator
  // unsupported (they never were promised); distinct instances — even ones
  // sharing a PlanCache — stay independent.
  mutable ExecContext exec_;
};

}  // namespace resccl
