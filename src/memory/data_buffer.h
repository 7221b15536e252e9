// Simulated GPU memory.
//
// ResCCLang models each rank's input/output region as one DataBuffer split
// into `nchunks` chunks (§4.2); the number of chunks equals the rank count so
// every <Rank, ChunkId> pair addresses a unique chunk. The data engine
// (src/runtime/data_engine) executes every generated kernel against these
// buffers — a copy for `recv` primitives, a reduction for `recvReduceCopy` —
// so collective correctness is verified numerically, not just by schedule
// inspection.
//
// Elements are stored as double: integer-valued test payloads below 2^53 make
// sum reductions exact and order-independent, which is what the correctness
// tests rely on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace resccl {

// dst[i] += src[i]. The only reduction: ResCCLang's one reducing transfer
// type, `rrc` (recvReduceCopy), takes no operator and sums.
void ApplyReduce(std::span<double> dst, std::span<const double> src);

// One rank's communication buffer: `nchunks` chunks of `chunk_elems` each.
class DataBuffer {
 public:
  DataBuffer(int nchunks, int chunk_elems)
      : nchunks_(nchunks),
        chunk_elems_(chunk_elems),
        data_(static_cast<std::size_t>(nchunks) *
              static_cast<std::size_t>(chunk_elems)) {
    RESCCL_CHECK(nchunks >= 1 && chunk_elems >= 1);
  }

  [[nodiscard]] int nchunks() const { return nchunks_; }
  [[nodiscard]] int chunk_elems() const { return chunk_elems_; }

  [[nodiscard]] std::span<double> Chunk(ChunkId c) {
    return {data_.data() + Offset(c), static_cast<std::size_t>(chunk_elems_)};
  }
  [[nodiscard]] std::span<const double> Chunk(ChunkId c) const {
    return {data_.data() + Offset(c), static_cast<std::size_t>(chunk_elems_)};
  }

  void FillChunk(ChunkId c, double value) {
    for (double& v : Chunk(c)) v = value;
  }

 private:
  [[nodiscard]] std::size_t Offset(ChunkId c) const {
    RESCCL_CHECK_MSG(c >= 0 && c < nchunks_, "chunk " << c << " out of range");
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(chunk_elems_);
  }

  int nchunks_;
  int chunk_elems_;
  std::vector<double> data_;
};

// Buffers for every rank of a communicator.
class BufferSet {
 public:
  BufferSet(int nranks, int nchunks, int chunk_elems);

  [[nodiscard]] int nranks() const { return static_cast<int>(buffers_.size()); }
  [[nodiscard]] DataBuffer& rank(Rank r);
  [[nodiscard]] const DataBuffer& rank(Rank r) const;

 private:
  std::vector<DataBuffer> buffers_;
};

}  // namespace resccl
