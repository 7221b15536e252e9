// Lowering: CompiledCollective → SimProgram.
//
// This is where the three execution granularities of §2.1/§3 take physical
// shape. All modes share the same transfer declarations — one per
// (task, micro-batch) invocation, carrying the per-micro-batch data
// dependencies — and differ only in how each TB's instruction stream walks
// them:
//
//   task-level       per TB:  for task (pipeline order): for mb: issue
//                    No barriers; micro-batches stream through sub-pipeline
//                    chains (Eq. 5's bubble masking).
//   algorithm-level  per TB:  for mb: for task: issue; global barrier
//                    The lazy schedule of Eq. 3 — bubbles repeat every
//                    micro-batch.
//   stage-level      per TB (bound to one stage): for mb: for task: issue;
//                    per-stage barrier. Stages pipeline against each other
//                    but contend for links (Eq. 4).
//
// The interpreter engine adds a per-primitive decode cost and a
// per-micro-batch algorithm reload (Fig. 3); generated kernels pay only the
// launch cost (§4.5).
#pragma once

#include <cstdint>

#include "core/compiler.h"
#include "sim/cost_model.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl {

// Protocol (Simple / LL / LL128 / kAuto) and its per-protocol cost
// parameters live in sim/cost_model.h; this header includes it, so runtime
// code that includes lowering.h sees them too.

struct LaunchConfig {
  Size buffer = Size::MiB(64);   // bytes synchronized per rank
  Size chunk = Size::MiB(1);     // transfer granularity (Table 2: 1MB)
  Protocol protocol = Protocol::kSimple;

  // Derived micro-batch count: the buffer splits into micro-batches of
  // nchunks × chunk bytes each (§2.1), never fewer than one.
  [[nodiscard]] int MicroBatches(int nchunks) const {
    const std::int64_t mb_bytes = chunk.bytes() * nchunks;
    const std::int64_t n = buffer.bytes() / mb_bytes;
    return static_cast<int>(n < 1 ? 1 : n);
  }
};

// Transfer declaration i is the invocation of task i / nmicrobatches on
// micro-batch i % nmicrobatches (one declaration per (task, micro-batch),
// task-major).
struct LoweredProgram {
  SimProgram program;
  int nmicrobatches = 1;
};

// Resolves Protocol::kAuto against an analytic crossover model: each
// concrete protocol's cost is estimated as handshake latency over the
// serialized pipeline (latency_factor × the fabric's widest one-hop α per
// step, plus per-slot flag syncs), the pipelined micro-batch tail, and the
// wire-inflated payload over the per-rank bottleneck bandwidth (throttled
// when the protocol's channel width exceeds the per-peer pool). LL's low
// intercept wins the smallest messages, Simple's unit inflation the
// largest, LL128 the band between — and because the protocols' intercepts
// and slopes are oppositely ordered, the winner is monotone in message
// size. A concrete `launch.protocol` is returned unchanged.
[[nodiscard]] Protocol ResolveProtocol(const Topology& topo,
                                       const CostModel& cost,
                                       const LaunchConfig& launch,
                                       int nchunks);

// `channels_per_peer` is the topology's per-(rank,peer) channel pool
// (TopologySpec::channels_per_peer); callers that hold the topology pass
// it through so protocols that want more concurrent channels than the pool
// provides get their injection throttled proportionally. The default
// matches the TopologySpec default, so topology-less callers lower against
// an unthrottled pool.
[[nodiscard]] LoweredProgram Lower(const CompiledCollective& compiled,
                                   const CostModel& cost,
                                   const LaunchConfig& launch,
                                   int channels_per_peer = 16);

// Reuse variant: lowers into `out`, reusing the capacity of every nested
// vector (transfer decls, the dependency pool, TB instruction streams,
// barrier tables). Every field is (re)assigned — including the decl
// defaults Lower relies on from fresh construction (latency_us,
// latency_scale, latency_extra_us, injection_scale) — so a warm `out` is
// bit-identical to a freshly lowered one. Re-lowering the same shape
// allocates nothing; the execution context (runtime/exec_context.h) leans
// on this for its allocation-free Execute.
void LowerInto(const CompiledCollective& compiled, const CostModel& cost,
               const LaunchConfig& launch, LoweredProgram& out,
               int channels_per_peer = 16);

}  // namespace resccl
