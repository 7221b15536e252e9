#include "memory/data_buffer.h"

namespace resccl {

void ApplyReduce(std::span<double> dst, std::span<const double> src) {
  RESCCL_CHECK(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

BufferSet::BufferSet(int nranks, int nchunks, int chunk_elems) {
  RESCCL_CHECK(nranks >= 1);
  buffers_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    buffers_.emplace_back(nchunks, chunk_elems);
  }
}

DataBuffer& BufferSet::rank(Rank r) {
  RESCCL_CHECK_MSG(r >= 0 && r < nranks(), "rank " << r << " out of range");
  return buffers_[static_cast<std::size_t>(r)];
}

const DataBuffer& BufferSet::rank(Rank r) const {
  RESCCL_CHECK_MSG(r >= 0 && r < nranks(), "rank " << r << " out of range");
  return buffers_[static_cast<std::size_t>(r)];
}

}  // namespace resccl
