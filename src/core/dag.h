// Global dependency analysis (§3, Fig. 5(b)).
//
// Builds the dependency DAG over an algorithm's transmission tasks. Chunks
// live at isolated addresses, so data dependencies only arise between tasks
// of the same chunk; within a chunk, classic hazards on the per-rank buffer
// slot order the tasks:
//   RAW — a task reads a slot the previous writer produced,
//   WAW — a task overwrites a slot another task wrote,
//   WAR — a task overwrites a slot an earlier task still reads.
// Tasks at equal steps are concurrent by ResCCLang's semantics and never
// depend on each other.
//
// Communication dependencies (shared links) are *not* edges here — each
// scheduler resolves them per sub-pipeline through a WaveOccupancy
// (core/wave_occupancy.h).
#pragma once

#include <vector>

#include "core/algorithm.h"
#include "core/connection.h"

namespace resccl {

struct TaskNode {
  Transfer transfer;
  LinkId connection;
  std::vector<TaskId> preds;  // data-dependency predecessors
  std::vector<TaskId> succs;
};

class DependencyGraph {
 public:
  // `connections` outlives the graph; it is populated with every connection
  // the algorithm touches.
  DependencyGraph(const Algorithm& algo, ConnectionTable& connections);

  [[nodiscard]] int ntasks() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const TaskNode& node(TaskId id) const;
  [[nodiscard]] const std::vector<TaskNode>& nodes() const { return nodes_; }

  // Task ids grouped by chunk — the per-chunk DAGs 𝐺[𝐶] of Algorithm 1.
  [[nodiscard]] const std::vector<std::vector<TaskId>>& chunk_tasks() const {
    return chunk_tasks_;
  }
  [[nodiscard]] int nchunks() const {
    return static_cast<int>(chunk_tasks_.size());
  }

  [[nodiscard]] int total_edges() const { return total_edges_; }

 private:
  std::vector<TaskNode> nodes_;
  std::vector<std::vector<TaskId>> chunk_tasks_;
  int total_edges_ = 0;
};

}  // namespace resccl
