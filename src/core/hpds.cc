#include "core/hpds.h"

#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/wave_occupancy.h"

namespace resccl {

Schedule HpdsScheduler::Build(const DependencyGraph& dag,
                              const ConnectionTable& connections) {
  const int ntasks = dag.ntasks();
  const int nchunks = dag.nchunks();

  // Flat per-task copies of what the loops below read: the task's link,
  // that link's latency class, and its chunk.
  std::vector<LinkId> link_of(static_cast<std::size_t>(ntasks));
  std::vector<PathKind> kind_of(static_cast<std::size_t>(ntasks));
  std::vector<ChunkId> chunk_of(static_cast<std::size_t>(ntasks));
  // Remaining unscheduled data-dependency predecessors per task.
  std::vector<int> preds_left(static_cast<std::size_t>(ntasks));
  for (int t = 0; t < ntasks; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const TaskNode& node = dag.nodes()[ti];
    link_of[ti] = node.connection;
    kind_of[ti] = connections.path(node.connection).kind;
    chunk_of[ti] = node.transfer.chunk;
    preds_left[ti] = static_cast<int>(node.preds.size());
  }

  // Per-chunk list of currently dependency-free, unscheduled tasks.
  std::vector<std::vector<TaskId>> free_tasks(
      static_cast<std::size_t>(nchunks));
  std::vector<int> unscheduled_in_chunk(static_cast<std::size_t>(nchunks), 0);
  for (int c = 0; c < nchunks; ++c) {
    unscheduled_in_chunk[static_cast<std::size_t>(c)] =
        static_cast<int>(dag.chunk_tasks()[static_cast<std::size_t>(c)].size());
  }
  for (int t = 0; t < ntasks; ++t) {
    if (preds_left[static_cast<std::size_t>(t)] == 0) {
      const ChunkId c = chunk_of[static_cast<std::size_t>(t)];
      free_tasks[static_cast<std::size_t>(c)].push_back(TaskId(t));
    }
  }

  std::vector<int> priority(static_cast<std::size_t>(nchunks), 0);
  // wave_of[t] == the current sub-pipeline's index iff t is in it.
  std::vector<int> wave_of(static_cast<std::size_t>(ntasks), -1);
  Schedule schedule;
  WaveOccupancy occupancy(connections);
  int scheduled_total = 0;

  while (scheduled_total < ntasks) {
    // --- one sub-pipeline (Algorithm 1 lines 6–24) ---
    const int wave_index = schedule.nwaves();
    std::vector<TaskId> wave;
    occupancy.Clear();
    std::vector<bool> flag(static_cast<std::size_t>(nchunks), true);

    // Max-priority queue over chunks, ties broken by chunk id for
    // determinism. Entries go stale when a chunk's priority changes; stale
    // entries are skipped on pop.
    using QEntry = std::pair<int, int>;  // (priority, -chunk)
    std::priority_queue<QEntry> queue;
    for (int c = 0; c < nchunks; ++c) {
      if (unscheduled_in_chunk[static_cast<std::size_t>(c)] > 0) {
        queue.emplace(priority[static_cast<std::size_t>(c)], -c);
      }
    }

    while (!queue.empty()) {
      const auto [prio, neg_chunk] = queue.top();
      queue.pop();
      const int chunk = -neg_chunk;
      const auto ci = static_cast<std::size_t>(chunk);
      if (prio != priority[ci] || !flag[ci]) continue;  // stale or flagged out
      if (unscheduled_in_chunk[ci] == 0) continue;

      // Candidate extraction: dependency-free tasks whose links are still
      // unoccupied in this sub-pipeline.
      std::vector<TaskId> node_list;
      auto& frees = free_tasks[ci];
      for (std::size_t i = 0; i < frees.size();) {
        const TaskId t = frees[i];
        const auto ti = static_cast<std::size_t>(t.value);
        const LinkId link = link_of[ti];
        // Bubble avoidance (§4.3): a task whose same-wave predecessor sits
        // on a different latency class (inter-node feeding intra-node or
        // vice versa) is deferred to a later sub-pipeline — the λ mismatch
        // would stall the faster link behind the slower one.
        bool latency_mismatch = false;
        const PathKind kind = kind_of[ti];
        for (TaskId pred : dag.nodes()[ti].preds) {
          const auto pi = static_cast<std::size_t>(pred.value);
          if (wave_of[pi] == wave_index && kind_of[pi] != kind) {
            latency_mismatch = true;
            break;
          }
        }
        if (latency_mismatch) {
          ++i;
          continue;
        }
        if (!occupancy.ConflictsWith(link)) {
          node_list.push_back(t);
          occupancy.Occupy(link);
          frees[i] = frees.back();
          frees.pop_back();
        } else {
          ++i;
        }
      }

      if (node_list.empty()) {
        flag[ci] = false;  // nothing eligible: out for this sub-pipeline
        continue;
      }

      // Scheduling decision: commit the tasks, unlock successors, and lower
      // this chunk's priority so under-scheduled chunks go first.
      for (TaskId t : node_list) {
        const auto ti = static_cast<std::size_t>(t.value);
        wave.push_back(t);
        wave_of[ti] = wave_index;
        ++scheduled_total;
        --unscheduled_in_chunk[ci];
        for (TaskId succ : dag.nodes()[ti].succs) {
          int& left = preds_left[static_cast<std::size_t>(succ.value)];
          if (--left == 0) {
            const ChunkId sc = chunk_of[static_cast<std::size_t>(succ.value)];
            free_tasks[static_cast<std::size_t>(sc)].push_back(succ);
            // The successor's chunk may have been visited already; requeue
            // it so it gets another chance within this sub-pipeline.
            if (flag[static_cast<std::size_t>(sc)]) {
              queue.emplace(priority[static_cast<std::size_t>(sc)], -sc);
            }
          }
        }
      }
      priority[ci] -= 1;
      if (unscheduled_in_chunk[ci] > 0) {
        queue.emplace(priority[ci], -chunk);
      }
    }

    RESCCL_CHECK_MSG(!wave.empty(),
                     "HPDS made no progress — dependency cycle in DAG?");
    schedule.sub_pipelines.push_back(std::move(wave));
  }
  return schedule;
}

}  // namespace resccl
