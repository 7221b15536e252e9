#include "algorithms/recursive.h"

#include "algorithms/emit_util.h"
#include "common/check.h"

namespace resccl::algorithms {

namespace {

int Log2(int n) {
  int l = 0;
  while ((1 << l) < n) ++l;
  return l;
}

// Chunks whose top `bits` bits match `prefix` (block addressing for the
// recursive exchanges).
void ForBlockChunks(int nranks, int prefix, int bits,
                    const std::function<void(int)>& fn) {
  const int block = nranks >> bits;
  const int base = prefix * block;
  for (int c = base; c < base + block; ++c) fn(c);
}

}  // namespace

Algorithm RecursiveHalvingDoublingAllReduce(int nranks) {
  RESCCL_CHECK_MSG(IsPowerOfTwo(nranks) && nranks >= 2,
                   "recursive halving-doubling needs a power-of-two ranks");
  const int levels = Log2(nranks);
  Algorithm algo;
  algo.name = "rhd_allreduce";
  algo.collective = CollectiveOp::kAllReduce;
  algo.nranks = nranks;
  algo.nchunks = nranks;

  // Reduce-scatter by recursive halving: at round k, rank r exchanges with
  // r ^ (N >> (k+1)) the half of its current block that belongs to the
  // partner's side, reducing what it receives.
  for (int k = 0; k < levels; ++k) {
    const int dist = nranks >> (k + 1);
    for (Rank r = 0; r < nranks; ++r) {
      const Rank partner = r ^ dist;
      // The partner's block prefix after this round: partner's top k+1 bits.
      const int prefix = partner / dist;
      ForBlockChunks(nranks, prefix, k + 1, [&](int c) {
        Emit(algo, r, partner, k, c, TransferOp::kRecvReduceCopy);
      });
    }
  }
  // AllGather by recursive doubling, mirrored.
  for (int k = 0; k < levels; ++k) {
    const int dist = 1 << k;
    for (Rank r = 0; r < nranks; ++r) {
      const Rank partner = r ^ dist;
      // r sends the block it has fully assembled so far: its own prefix at
      // granularity levels-k.
      const int prefix = r / dist;
      ForBlockChunks(nranks, prefix, levels - k, [&](int c) {
        Emit(algo, r, partner, levels + k, c, TransferOp::kRecv);
      });
    }
  }
  return algo;
}

Algorithm RecursiveDoublingAllGather(int nranks) {
  RESCCL_CHECK_MSG(IsPowerOfTwo(nranks) && nranks >= 2,
                   "recursive doubling needs a power-of-two rank count");
  const int levels = Log2(nranks);
  Algorithm algo;
  algo.name = "rd_allgather";
  algo.collective = CollectiveOp::kAllGather;
  algo.nranks = nranks;
  algo.nchunks = nranks;

  // At round k every rank holds the chunks of its 2^k block and exchanges
  // the whole block with its partner at distance 2^k.
  for (int k = 0; k < levels; ++k) {
    const int dist = 1 << k;
    for (Rank r = 0; r < nranks; ++r) {
      const Rank partner = r ^ dist;
      const int block_base = (r / dist) * dist;
      for (int c = block_base; c < block_base + dist; ++c) {
        Emit(algo, r, partner, k, c, TransferOp::kRecv);
      }
    }
  }
  return algo;
}

Algorithm OneShotAllGather(int nranks) {
  RESCCL_CHECK(nranks >= 2);
  Algorithm algo;
  algo.name = "oneshot_allgather";
  algo.collective = CollectiveOp::kAllGather;
  algo.nranks = nranks;
  algo.nchunks = nranks;
  for (Rank r = 0; r < nranks; ++r) {
    for (Rank peer = 0; peer < nranks; ++peer) {
      if (peer == r) continue;
      Emit(algo, r, peer, 0, r, TransferOp::kRecv);
    }
  }
  return algo;
}

}  // namespace resccl::algorithms
