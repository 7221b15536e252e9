// ResCCLang emitter: renders an Algorithm IR back into compilable
// ResCCLang source.
//
// The inverse of lang::CompileSource. Emitted programs list each transfer
// explicitly (algorithm logic is not re-inferred into loops), grouped by
// step for readability, and round-trip exactly: compiling the emitted
// source reproduces the same transfer multiset. Useful for exporting
// library-built or programmatically generated algorithms into the DSL
// toolchain.
#pragma once

#include <string>

#include "common/status.h"
#include "core/algorithm.h"

namespace resccl::lang {

// InvalidArgument when `algo` fails Validate() or has nchunks != nranks,
// which ResCCLang cannot express.
[[nodiscard]] Result<std::string> EmitSource(const Algorithm& algo);

// The Fig. 16 HM-AllReduce program written with loops, for any cluster of
// `nodes` x `gpus` ranks: intra-node full-mesh ReduceScatter, inter-node
// ring ReduceScatter, inter-node ring AllGather, intra-node full-mesh
// AllGather. The Fig. 10(a) workflow benchmark compiles it at up to 1024
// GPUs, so the Parsing phase pays for real loops and arithmetic.
[[nodiscard]] std::string HierarchicalMeshAllReduceSource(int nodes, int gpus);

}  // namespace resccl::lang
