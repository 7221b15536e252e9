// Reference initializers and expected results for the standard collectives.
//
// Tests seed buffers with InitForCollective(op, ...) and check the executed
// result with VerifyCollective(op, ...); payloads are small integers so sum
// reductions are exact in double and independent of reduction order.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/types.h"
#include "memory/data_buffer.h"

namespace resccl {

enum class CollectiveOp : std::uint8_t {
  kAllGather,
  kReduceScatter,
  kAllReduce,
  kBroadcast,  // rooted: rank `root` distributes its full buffer
  kReduce,     // rooted: rank `root` collects the cross-rank reduction
};

[[nodiscard]] constexpr const char* CollectiveOpName(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kAllGather: return "AllGather";
    case CollectiveOp::kReduceScatter: return "ReduceScatter";
    case CollectiveOp::kAllReduce: return "AllReduce";
    case CollectiveOp::kBroadcast: return "Broadcast";
    case CollectiveOp::kReduce: return "Reduce";
  }
  return "?";
}

// The lowercase tag naming a collective in .plan files and on the command
// line ("allgather", "reducescatter", "allreduce", "broadcast", "reduce").
[[nodiscard]] constexpr const char* CollectiveOpTag(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kAllGather: return "allgather";
    case CollectiveOp::kReduceScatter: return "reducescatter";
    case CollectiveOp::kAllReduce: return "allreduce";
    case CollectiveOp::kBroadcast: return "broadcast";
    case CollectiveOp::kReduce: return "reduce";
  }
  return "?";
}

// The collective `tag` names under CollectiveOpTag; nullopt for any other
// string.
[[nodiscard]] constexpr std::optional<CollectiveOp> ParseCollectiveOpTag(
    std::string_view tag) {
  for (int i = 0; i <= static_cast<int>(CollectiveOp::kReduce); ++i) {
    const auto op = static_cast<CollectiveOp>(i);
    if (tag == CollectiveOpTag(op)) return op;
  }
  return std::nullopt;
}

// Deterministic payload for <rank, chunk, element>; small integers.
[[nodiscard]] double ReferenceValue(Rank rank, ChunkId chunk, int elem);

// Seeds `buffers` with the collective's pre-state: AllGather contributes only
// the rank's own chunk; ReduceScatter/AllReduce/Reduce start with full
// per-rank buffers; Broadcast's payload exists only at `root`.
void InitForCollective(CollectiveOp op, BufferSet& buffers, Rank root = 0);

// Checks the post-state of `buffers` against the collective's semantics with
// a sum reduction. Returns true and leaves `why` empty on success; otherwise
// writes a human-readable mismatch description.
[[nodiscard]] bool VerifyCollective(CollectiveOp op, const BufferSet& buffers,
                                    std::string& why, Rank root = 0);

}  // namespace resccl
