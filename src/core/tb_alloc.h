// Thread-block allocation (§4.4).
//
// Every scheduled task needs a sender-side TB on its source rank and a
// receiver-side TB on its destination rank. Tasks are first grouped into
// *streams* — one per (rank, peer, direction, stage) connection endpoint,
// the unit traditional backends bind a TB to.
//
//   kConnectionBased  one TB per stream: the rigid scheme of NCCL/MSCCL.
//                     Stage-level execution multiplies streams by stages
//                     ("extra channels"), which is where MSCCL's 99%-idle
//                     TBs come from (§2.2).
//   kStateBased       ResCCL's scheme: a timeline analysis over the global
//                     pipeline estimates when each connection is active —
//                     running a static per-stream FIFO model of task-level
//                     execution over a pipelining window — and merges
//                     connections on the same rank whose active intervals
//                     never overlap (Eq. 7), shrinking the TB count without
//                     touching the schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "core/dag.h"
#include "core/schedule.h"

namespace resccl {

enum class Direction : std::uint8_t { kSend, kRecv };

enum class TbAllocPolicy : std::uint8_t { kConnectionBased, kStateBased };

struct TbTaskRef {
  TaskId task;
  Direction dir = Direction::kSend;
  int wave = 0;    // sub-pipeline index
  int order = 0;   // global wave-major position (issue order)
};

// Transfer granularity and micro-batches of pipelining the timeline
// analysis models when estimating activity windows (plans compile before
// any launch size is known). The analyzer's tb-merge replay reads both.
inline constexpr Size kTimelineChunk = Size::MiB(1);
inline constexpr int kTimelineWindow = 8;

struct TbAllocParams {
  TbAllocPolicy policy = TbAllocPolicy::kStateBased;
  // Per-(rank, peer) connection-channel pool (TopologySpec::
  // channels_per_peer, wired through by Compile). Every stream needs at
  // least one channel, so allocation refuses plans that open more streams
  // on one (rank, peer, direction) than the pool holds — the structural
  // half of the channel resource model; the protocol-width half is
  // enforced at lowering time, where the protocol is known.
  int channels_per_peer = 16;
};

struct TbPlan {
  struct Tb {
    Rank rank = kInvalidRank;
    std::vector<TbTaskRef> refs;  // sorted by global order
  };
  std::vector<Tb> tbs;
  // Per-task TB assignment, indexed by TaskId.value.
  std::vector<int> send_tb;
  std::vector<int> recv_tb;

  [[nodiscard]] int total_tbs() const { return static_cast<int>(tbs.size()); }
  [[nodiscard]] int TbCountForRank(Rank r) const;
  // Largest TB count on any rank — the per-GPU SM footprint the paper's
  // Table 3 "# TB" column tracks.
  [[nodiscard]] int MaxTbsPerRank(int nranks) const;
};

// `stage_of_task` assigns each task an execution stage (all zero outside
// stage-level execution); connection-based allocation opens separate TBs per
// stage, mirroring MSCCL's per-stage channels.
[[nodiscard]] TbPlan AllocateTbs(const DependencyGraph& dag,
                                 const Schedule& schedule,
                                 const ConnectionTable& connections,
                                 const TbAllocParams& params,
                                 const std::vector<int>& stage_of_task);

}  // namespace resccl
