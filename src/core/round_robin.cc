#include "core/round_robin.h"

#include <vector>

#include "common/check.h"
#include "core/wave_occupancy.h"

namespace resccl {

// The classic baseline of §5.3: chunks are visited in a fixed circular
// order — ascending chunk id, one dependency-free task per visit — and
// scheduled "in that same immutable sequence". When the next task in the
// sequence conflicts with the current sub-pipeline (shared link or NIC),
// the sub-pipeline closes and a new one starts; there is no reordering, no
// priority, and no lookahead, so a single contended link fragments the
// pipeline and under-scheduled chunks get no preference.
Schedule RoundRobinScheduler::Build(const DependencyGraph& dag,
                                    const ConnectionTable& connections) {
  const int ntasks = dag.ntasks();
  const int nchunks = dag.nchunks();

  std::vector<int> preds_left(static_cast<std::size_t>(ntasks));
  for (int t = 0; t < ntasks; ++t) {
    preds_left[static_cast<std::size_t>(t)] =
        static_cast<int>(dag.node(TaskId(t)).preds.size());
  }
  // Per-chunk FIFO of dependency-free tasks, fed as predecessors resolve.
  std::vector<std::vector<TaskId>> free_tasks(
      static_cast<std::size_t>(nchunks));
  for (int t = 0; t < ntasks; ++t) {
    if (preds_left[static_cast<std::size_t>(t)] == 0) {
      const ChunkId c = dag.node(TaskId(t)).transfer.chunk;
      free_tasks[static_cast<std::size_t>(c)].push_back(TaskId(t));
    }
  }

  WaveOccupancy occupancy(connections);
  Schedule schedule;
  std::vector<TaskId> wave;
  int scheduled_total = 0;
  int chunk_cursor = 0;

  const auto close_wave = [&] {
    RESCCL_CHECK_MSG(!wave.empty(),
                     "RR made no progress — dependency cycle in DAG?");
    schedule.sub_pipelines.push_back(std::move(wave));
    wave.clear();
    occupancy.Clear();
  };

  while (scheduled_total < ntasks) {
    // One circular pass over the chunks; remember whether anything was
    // placeable at all to detect the need for a wave boundary.
    bool placed_any = false;
    for (int visit = 0; visit < nchunks; ++visit) {
      const int c = (chunk_cursor + visit) % nchunks;
      auto& frees = free_tasks[static_cast<std::size_t>(c)];
      if (frees.empty()) continue;
      const TaskId t = frees.front();  // the immutable sequence: FIFO
      const LinkId link = dag.node(t).connection;
      if (occupancy.ConflictsWith(link)) {
        // The sequence is immutable: the baseline does not skip ahead, it
        // ends the sub-pipeline here and retries in the next one.
        close_wave();
        placed_any = true;  // progress happened before the boundary
      }
      occupancy.Occupy(link);
      wave.push_back(t);
      ++scheduled_total;
      placed_any = true;
      frees.erase(frees.begin());
      for (TaskId succ : dag.node(t).succs) {
        if (--preds_left[static_cast<std::size_t>(succ.value)] == 0) {
          const ChunkId sc = dag.node(succ).transfer.chunk;
          free_tasks[static_cast<std::size_t>(sc)].push_back(succ);
        }
      }
    }
    chunk_cursor = 0;
    if (!placed_any) {
      // Every remaining chunk is dependency-blocked behind tasks scheduled
      // in the current (still open) sub-pipeline; close it to unblock.
      close_wave();
    }
  }
  if (!wave.empty()) schedule.sub_pipelines.push_back(std::move(wave));
  return schedule;
}

}  // namespace resccl
