#include "runtime/data_engine.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "memory/data_buffer.h"
#include "memory/reference.h"

namespace resccl {

VerifyResult VerifyLoweredExecution(const CompiledCollective& compiled,
                                    const LoweredProgram& lowered,
                                    std::span<const TransferStats> transfers,
                                    int elems_per_chunk) {
  const int nmb = lowered.nmicrobatches;
  const auto umb = static_cast<std::size_t>(nmb);
  const int nranks = compiled.algo.nranks;
  RESCCL_CHECK(transfers.size() == lowered.program.transfers.size());
  RESCCL_CHECK(transfers.size() == compiled.algo.transfers.size() * umb);

  // One buffer set per micro-batch; they are independent data slices.
  std::vector<BufferSet> buffers;
  buffers.reserve(static_cast<std::size_t>(nmb));
  for (int m = 0; m < nmb; ++m) {
    buffers.emplace_back(nranks, compiled.algo.nchunks, elems_per_chunk);
    InitForCollective(compiled.algo.collective, buffers.back(),
                      compiled.algo.root);
  }

  // Apply transfers in simulated completion order (stable on declaration
  // index for deterministic handling of simultaneous completions).
  std::vector<std::size_t> order(transfers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return transfers[a].complete < transfers[b].complete;
  });

  for (std::size_t i : order) {
    const Transfer& t = compiled.algo.transfers[i / umb];
    BufferSet& set = buffers[i % umb];
    const auto src = set.rank(t.src).Chunk(t.chunk);
    const auto dst = set.rank(t.dst).Chunk(t.chunk);
    if (t.op == TransferOp::kRecvReduceCopy) {
      ApplyReduce(dst, src);
    } else {
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }

  for (int m = 0; m < nmb; ++m) {
    std::string why;
    if (!VerifyCollective(compiled.algo.collective,
                          buffers[static_cast<std::size_t>(m)], why,
                          compiled.algo.root)) {
      return {false, "micro-batch " + std::to_string(m) + ": " + why};
    }
  }
  return {true, {}};
}

}  // namespace resccl
