#include "core/schedule.h"

#include <sstream>

#include "common/check.h"

namespace resccl {

int Schedule::ntasks() const {
  int n = 0;
  for (const auto& wave : sub_pipelines) n += static_cast<int>(wave.size());
  return n;
}

std::vector<int> Schedule::WaveOf(int ntasks_total) const {
  std::vector<int> wave(static_cast<std::size_t>(ntasks_total), -1);
  for (std::size_t w = 0; w < sub_pipelines.size(); ++w) {
    for (TaskId t : sub_pipelines[w]) {
      RESCCL_CHECK(t.valid() &&
                   static_cast<std::size_t>(t.value) < wave.size());
      wave[static_cast<std::size_t>(t.value)] = static_cast<int>(w);
    }
  }
  return wave;
}

namespace {

Status CommunicationConflict(TaskId a, TaskId b) {
  std::ostringstream os;
  os << "communication dependency violated: tasks " << a.value << " and "
     << b.value << " share a link within one sub-pipeline";
  return Status::Internal(os.str());
}

}  // namespace

Status ValidateSchedule(const Schedule& schedule, const DependencyGraph& dag,
                        const ConnectionTable& connections) {
  const int ntasks = dag.ntasks();
  if (schedule.ntasks() != ntasks) {
    std::ostringstream os;
    os << "schedule covers " << schedule.ntasks() << " tasks, DAG has "
       << ntasks;
    return Status::Internal(os.str());
  }
  // Global wave-major position of each task.
  std::vector<int> pos(static_cast<std::size_t>(ntasks), -1);
  int next = 0;
  for (const auto& sub : schedule.sub_pipelines) {
    for (TaskId t : sub) {
      if (!t.valid() || t.value >= ntasks) {
        return Status::Internal("task " + std::to_string(t.value) +
                                " out of range");
      }
      if (pos[static_cast<std::size_t>(t.value)] != -1) {
        return Status::Internal("task " + std::to_string(t.value) +
                                " scheduled twice");
      }
      pos[static_cast<std::size_t>(t.value)] = next++;
    }
  }
  for (int t = 0; t < ntasks; ++t) {
    if (pos[static_cast<std::size_t>(t)] < 0) {
      return Status::Internal("task " + std::to_string(t) +
                              " missing from schedule");
    }
  }

  for (int t = 0; t < ntasks; ++t) {
    const TaskNode& node = dag.node(TaskId(t));
    for (TaskId pred : node.preds) {
      if (pos[static_cast<std::size_t>(pred.value)] >=
          pos[static_cast<std::size_t>(t)]) {
        std::ostringstream os;
        os << "data dependency violated: task " << pred.value
           << " must precede task " << t << " in the global pipeline order";
        return Status::Internal(os.str());
      }
    }
  }

  // Communication dependencies: one stamp pass per sub-pipeline. Each
  // connection and each serializing resource remembers the last wave that
  // used it and the task that did; a second use within one wave is exactly
  // a ConnectionTable::Conflicts pair.
  struct Stamp {
    int wave = -1;
    TaskId owner;
  };
  std::vector<Stamp> link_stamp(static_cast<std::size_t>(connections.count()));
  std::vector<Stamp> resource_stamp(connections.topology().resources().size());
  for (int w = 0; w < schedule.nwaves(); ++w) {
    for (TaskId t : schedule.sub_pipelines[static_cast<std::size_t>(w)]) {
      const LinkId link = dag.node(t).connection;
      const std::vector<ResourceId>& serial = connections.serializing(link);
      Stamp& ls = link_stamp[static_cast<std::size_t>(link.value)];
      if (ls.wave == w) return CommunicationConflict(ls.owner, t);
      ls = {w, t};
      for (ResourceId r : serial) {
        Stamp& rs = resource_stamp[static_cast<std::size_t>(r.value)];
        if (rs.wave == w) return CommunicationConflict(rs.owner, t);
        rs = {w, t};
      }
    }
  }
  return Status::Ok();
}

}  // namespace resccl
