// Unit tests for src/memory: buffers, reductions, reference semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "memory/data_buffer.h"
#include "memory/reference.h"

namespace resccl {
namespace {

TEST(DataBufferTest, ChunkAddressingIsDisjoint) {
  DataBuffer buf(4, 8);
  EXPECT_EQ(buf.nchunks(), 4);
  EXPECT_EQ(buf.chunk_elems(), 8);
  for (ChunkId c = 0; c < 4; ++c) buf.FillChunk(c, c + 1.0);
  for (ChunkId c = 0; c < 4; ++c) {
    for (double v : buf.Chunk(c)) EXPECT_DOUBLE_EQ(v, c + 1.0);
  }
}

TEST(DataBufferTest, OutOfRangeChunkThrows) {
  DataBuffer buf(4, 8);
  EXPECT_THROW((void)buf.Chunk(4), std::logic_error);
  EXPECT_THROW((void)buf.Chunk(-1), std::logic_error);
}

TEST(ReduceTest, Sums) {
  DataBuffer a(1, 4), b(1, 4);
  const double av[] = {1, 5, 3, 7};
  const double bv[] = {2, 4, 6, 1};
  for (int i = 0; i < 4; ++i) {
    a.Chunk(0)[static_cast<std::size_t>(i)] = av[i];
    b.Chunk(0)[static_cast<std::size_t>(i)] = bv[i];
  }
  ApplyReduce(a.Chunk(0), b.Chunk(0));
  EXPECT_DOUBLE_EQ(a.Chunk(0)[0], 3);
  EXPECT_DOUBLE_EQ(a.Chunk(0)[3], 8);
}

TEST(ReduceTest, SizeMismatchThrows) {
  DataBuffer a(1, 4), b(1, 5);
  EXPECT_THROW(ApplyReduce(a.Chunk(0), b.Chunk(0)), std::logic_error);
}

TEST(BufferSetTest, PerRankIsolation) {
  BufferSet set(3, 3, 2);
  EXPECT_EQ(set.nranks(), 3);
  set.rank(0).FillChunk(1, 9.0);
  EXPECT_DOUBLE_EQ(set.rank(1).Chunk(1)[0], 0.0);
  EXPECT_THROW((void)set.rank(3), std::logic_error);
}

TEST(ReferenceTest, AllGatherInitOnlyOwnChunk) {
  BufferSet set(4, 4, 2);
  InitForCollective(CollectiveOp::kAllGather, set);
  for (Rank r = 0; r < 4; ++r) {
    for (ChunkId c = 0; c < 4; ++c) {
      const double v = set.rank(r).Chunk(c)[0];
      if (c == r) {
        EXPECT_DOUBLE_EQ(v, ReferenceValue(r, c, 0));
      } else {
        EXPECT_DOUBLE_EQ(v, 0.0);
      }
    }
  }
}

TEST(ReferenceTest, AllReduceInitFullBuffers) {
  BufferSet set(4, 4, 2);
  InitForCollective(CollectiveOp::kAllReduce, set);
  for (Rank r = 0; r < 4; ++r) {
    for (ChunkId c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(set.rank(r).Chunk(c)[1], ReferenceValue(r, c, 1));
    }
  }
}

// Hand-execute collectives on a tiny world and check verification passes.
TEST(ReferenceTest, VerifyAcceptsCorrectAllGather) {
  BufferSet set(3, 3, 2);
  InitForCollective(CollectiveOp::kAllGather, set);
  for (Rank dst = 0; dst < 3; ++dst) {
    for (ChunkId c = 0; c < 3; ++c) {
      if (c == dst) continue;
      auto src = set.rank(c).Chunk(c);
      auto d = set.rank(dst).Chunk(c);
      std::copy(src.begin(), src.end(), d.begin());
    }
  }
  std::string why;
  EXPECT_TRUE(VerifyCollective(CollectiveOp::kAllGather, set, why)) << why;
}

TEST(ReferenceTest, VerifyAcceptsCorrectAllReduce) {
  BufferSet set(3, 3, 2);
  InitForCollective(CollectiveOp::kAllReduce, set);
  // Sum everything into rank 0, then broadcast.
  for (ChunkId c = 0; c < 3; ++c) {
    for (Rank r = 1; r < 3; ++r) {
      ApplyReduce(set.rank(0).Chunk(c), set.rank(r).Chunk(c));
    }
    for (Rank r = 1; r < 3; ++r) {
      auto src = set.rank(0).Chunk(c);
      auto dst = set.rank(r).Chunk(c);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  std::string why;
  EXPECT_TRUE(VerifyCollective(CollectiveOp::kAllReduce, set, why)) << why;
}

TEST(ReferenceTest, VerifyDetectsCorruption) {
  BufferSet set(3, 3, 2);
  InitForCollective(CollectiveOp::kAllReduce, set);
  std::string why;
  EXPECT_FALSE(VerifyCollective(CollectiveOp::kAllReduce, set, why));
  EXPECT_FALSE(why.empty());
  EXPECT_NE(why.find("rank"), std::string::npos);
}

TEST(ReferenceTest, ReduceScatterOnlyChecksOwnChunk) {
  BufferSet set(2, 2, 2);
  InitForCollective(CollectiveOp::kReduceScatter, set);
  ApplyReduce(set.rank(0).Chunk(0), set.rank(1).Chunk(0));
  ApplyReduce(set.rank(1).Chunk(1), set.rank(0).Chunk(1));
  // Scribble on an unspecified slot: must not affect verification.
  set.rank(0).FillChunk(1, -1.0);
  std::string why;
  EXPECT_TRUE(VerifyCollective(CollectiveOp::kReduceScatter, set, why)) << why;
}

TEST(ReferenceTest, ValuesFitExactDoubles) {
  // Summed across 4096 ranks the payloads must stay integer-exact.
  double sum = 0;
  for (Rank r = 0; r < 4096; ++r) sum += ReferenceValue(r, 4095, 12);
  EXPECT_LT(sum, 9e15);  // < 2^53
  EXPECT_DOUBLE_EQ(sum, std::floor(sum));
}

}  // namespace
}  // namespace resccl
