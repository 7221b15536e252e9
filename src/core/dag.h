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

#include <span>
#include <vector>

#include "core/algorithm.h"
#include "core/connection.h"

namespace resccl {

// `preds` and `succs` view the owning graph's edge pools (CSR): each list
// is in edge-discovery order, and stays valid while the graph lives.
struct TaskNode {
  Transfer transfer;
  LinkId connection;
  std::span<const TaskId> preds;  // data-dependency predecessors
  std::span<const TaskId> succs;
};

class DependencyGraph {
 public:
  // `connections` outlives the graph; it is populated with every connection
  // the algorithm touches.
  DependencyGraph(const Algorithm& algo, ConnectionTable& connections);

  // Move-only: the nodes' spans point into this graph's own pools, which a
  // move carries along and a copy would not.
  DependencyGraph(const DependencyGraph&) = delete;
  DependencyGraph& operator=(const DependencyGraph&) = delete;
  DependencyGraph(DependencyGraph&&) = default;
  DependencyGraph& operator=(DependencyGraph&&) = default;

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

  [[nodiscard]] int total_edges() const {
    return static_cast<int>(pred_pool_.size());
  }

 private:
  std::vector<TaskNode> nodes_;
  std::vector<std::vector<TaskId>> chunk_tasks_;
  std::vector<TaskId> pred_pool_;  // every node's preds, node by node
  std::vector<TaskId> succ_pool_;  // every node's succs, node by node
};

}  // namespace resccl
