#include "core/dag.h"

#include <algorithm>

#include "common/check.h"

namespace resccl {

namespace {

// Per (chunk, rank) hazard state while sweeping a chunk's tasks in step
// order: the tasks that last wrote the slot (several when concurrent
// same-step reductions commute into it) and the tasks that have read it
// since that write group.
struct SlotState {
  std::vector<TaskId> writers;   // the most recent write group
  std::vector<TaskId> readers;   // readers since that group
  bool group_stamped = false;    // scratch: slot already reset this group
};

struct Edge {
  TaskId from, to;
};

}  // namespace

DependencyGraph::DependencyGraph(const Algorithm& algo,
                                 ConnectionTable& connections) {
  const Status valid = algo.Validate();
  RESCCL_CHECK_MSG(valid.ok(), "invalid algorithm: " << valid.ToString());

  nodes_.resize(algo.transfers.size());
  chunk_tasks_.assign(static_cast<std::size_t>(algo.nchunks), {});
  for (std::size_t i = 0; i < algo.transfers.size(); ++i) {
    const Transfer& t = algo.transfers[i];
    nodes_[i].transfer = t;
    nodes_[i].connection = connections.Resolve(t.src, t.dst);
    chunk_tasks_[static_cast<std::size_t>(t.chunk)].push_back(
        TaskId(static_cast<std::int32_t>(i)));
  }

  // Sweep each chunk's tasks in step order, applying hazard edges against
  // the per-rank slot state. Tasks in the same step group are concurrent:
  // edges are drawn only from strictly earlier steps, and the group's own
  // reads/writes are folded into the state afterwards.
  //
  // Edges are recorded in discovery order. Every edge into a task is found
  // while that task is the sweep's current target, so a per-source stamp of
  // the last target it fed is enough to drop duplicates.
  std::vector<Edge> edges;
  std::vector<std::int32_t> last_to(nodes_.size(), -1);
  const auto add_edge = [&](TaskId from, TaskId to) {
    RESCCL_CHECK(from != to);
    std::int32_t& last = last_to[static_cast<std::size_t>(from.value)];
    if (last == to.value) return;
    last = to.value;
    edges.push_back({from, to});
  };
  std::vector<SlotState> slots(static_cast<std::size_t>(algo.nranks));
  for (auto& chunk : chunk_tasks_) {
    std::stable_sort(chunk.begin(), chunk.end(),
                     [&](TaskId a, TaskId b) {
                       return nodes_[static_cast<std::size_t>(a.value)]
                                  .transfer.step <
                              nodes_[static_cast<std::size_t>(b.value)]
                                  .transfer.step;
                     });
    for (auto& s : slots) {
      s.writers.clear();
      s.readers.clear();
    }
    std::size_t group_begin = 0;
    while (group_begin < chunk.size()) {
      std::size_t group_end = group_begin;
      const Step step =
          nodes_[static_cast<std::size_t>(chunk[group_begin].value)]
              .transfer.step;
      while (group_end < chunk.size() &&
             nodes_[static_cast<std::size_t>(chunk[group_end].value)]
                     .transfer.step == step) {
        ++group_end;
      }
      // Phase 1: edges from prior state into this group.
      for (std::size_t i = group_begin; i < group_end; ++i) {
        const TaskId id = chunk[i];
        const Transfer& t =
            nodes_[static_cast<std::size_t>(id.value)].transfer;
        SlotState& src_slot = slots[static_cast<std::size_t>(t.src)];
        SlotState& dst_slot = slots[static_cast<std::size_t>(t.dst)];
        // RAW: reading t.src's slot requires every write that produced it —
        // concurrent same-step reductions form a write *group*.
        for (TaskId writer : src_slot.writers) {
          add_edge(writer, id);
        }
        // WAW: overwriting t.dst's slot after its previous write group.
        for (TaskId writer : dst_slot.writers) {
          add_edge(writer, id);
        }
        // WAR: overwriting t.dst's slot after pending reads of it.
        for (TaskId reader : dst_slot.readers) {
          if (reader != id) add_edge(reader, id);
        }
      }
      // Phase 2: fold the group's accesses into the state. The group's
      // writers *replace* the previous write group per written slot.
      for (std::size_t i = group_begin; i < group_end; ++i) {
        const Transfer& t =
            nodes_[static_cast<std::size_t>(chunk[i].value)].transfer;
        SlotState& dst_slot = slots[static_cast<std::size_t>(t.dst)];
        if (!dst_slot.group_stamped) {
          dst_slot.writers.clear();
          dst_slot.readers.clear();
          dst_slot.group_stamped = true;
        }
        dst_slot.writers.push_back(chunk[i]);
      }
      for (std::size_t i = group_begin; i < group_end; ++i) {
        const Transfer& t =
            nodes_[static_cast<std::size_t>(chunk[i].value)].transfer;
        slots[static_cast<std::size_t>(t.dst)].group_stamped = false;
      }
      for (std::size_t i = group_begin; i < group_end; ++i) {
        const TaskId id = chunk[i];
        const Transfer& t =
            nodes_[static_cast<std::size_t>(id.value)].transfer;
        slots[static_cast<std::size_t>(t.src)].readers.push_back(id);
      }
      group_begin = group_end;
    }
  }

  // CSR layout: count each node's edges, prefix-sum the counts into run
  // offsets, then fill both pools in discovery order so every node's lists
  // keep the order its edges were found in.
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> pred_begin(n + 1, 0);
  std::vector<std::size_t> succ_begin(n + 1, 0);
  for (const Edge& e : edges) {
    ++pred_begin[static_cast<std::size_t>(e.to.value) + 1];
    ++succ_begin[static_cast<std::size_t>(e.from.value) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    pred_begin[i + 1] += pred_begin[i];
    succ_begin[i + 1] += succ_begin[i];
  }
  pred_pool_.resize(edges.size());
  succ_pool_.resize(edges.size());
  std::vector<std::size_t> pred_fill(pred_begin.begin(), pred_begin.end() - 1);
  std::vector<std::size_t> succ_fill(succ_begin.begin(), succ_begin.end() - 1);
  for (const Edge& e : edges) {
    pred_pool_[pred_fill[static_cast<std::size_t>(e.to.value)]++] = e.from;
    succ_pool_[succ_fill[static_cast<std::size_t>(e.from.value)]++] = e.to;
  }
  const std::span<const TaskId> preds(pred_pool_);
  const std::span<const TaskId> succs(succ_pool_);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_[i].preds =
        preds.subspan(pred_begin[i], pred_begin[i + 1] - pred_begin[i]);
    nodes_[i].succs =
        succs.subspan(succ_begin[i], succ_begin[i + 1] - succ_begin[i]);
  }
}

const TaskNode& DependencyGraph::node(TaskId id) const {
  RESCCL_CHECK(id.valid() &&
               static_cast<std::size_t>(id.value) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id.value)];
}

}  // namespace resccl
