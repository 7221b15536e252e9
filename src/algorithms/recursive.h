// Recursive-distance algorithms — the classic MPI-style collectives, useful
// as additional expert baselines and for latency-oriented regimes.
//
// The two recursive ones require a power-of-two rank count (checked).
#pragma once

#include "core/algorithm.h"

namespace resccl::algorithms {

// True for 1, 2, 4, 8, ...: the recursive algorithms below accept these
// rank counts from 2 up.
[[nodiscard]] constexpr bool IsPowerOfTwo(int n) {
  return n > 0 && (n & (n - 1)) == 0;
}

// Recursive halving ReduceScatter followed by recursive doubling AllGather:
// log2(N) exchange rounds each way, each rank pairing with r XOR 2^k.
// Chunk c finishes, fully reduced, at rank c before the doubling phase.
[[nodiscard]] Algorithm RecursiveHalvingDoublingAllReduce(int nranks);

// Recursive doubling AllGather: after round k every rank holds the chunks
// of its 2^(k+1)-rank block.
[[nodiscard]] Algorithm RecursiveDoublingAllGather(int nranks);

// One-shot (direct) AllGather: every rank sends its chunk straight to every
// peer in a single step — the minimal-latency pattern for small buffers.
[[nodiscard]] Algorithm OneShotAllGather(int nranks);

}  // namespace resccl::algorithms
