#include "core/tb_alloc.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"

namespace resccl {

namespace {

// One connection-endpoint stream: the tasks a traditional backend would bind
// to a dedicated TB.
struct Stream {
  Rank rank = kInvalidRank;
  Rank peer = kInvalidRank;
  Direction dir = Direction::kSend;
  int stage = 0;
  std::vector<TbTaskRef> refs;  // global order
  // Estimated activity window from the timeline analysis.
  double active_begin = 0;
  double active_end = 0;
};

// Streams in (rank, peer, direction, stage) order. A task's send stream is
// its connection's send endpoint and its recv stream the connection's recv
// endpoint, so streams are filled in a dense (connection, direction, stage)
// table and sorted once at the end.
std::vector<Stream> BuildStreams(const DependencyGraph& dag,
                                 const Schedule& schedule,
                                 const ConnectionTable& connections,
                                 const std::vector<int>& stage_of_task) {
  int nstages = 1;
  for (int stage : stage_of_task) {
    RESCCL_CHECK(stage >= 0);
    nstages = std::max(nstages, stage + 1);
  }
  const auto slot = [nstages](LinkId c, Direction dir, int stage) {
    return (static_cast<std::size_t>(c.value) * 2 +
            static_cast<std::size_t>(dir)) *
               static_cast<std::size_t>(nstages) +
           static_cast<std::size_t>(stage);
  };
  std::vector<Stream> table(static_cast<std::size_t>(connections.count()) * 2 *
                            static_cast<std::size_t>(nstages));

  int order = 0;
  for (std::size_t w = 0; w < schedule.sub_pipelines.size(); ++w) {
    for (TaskId t : schedule.sub_pipelines[w]) {
      const TaskNode& node = dag.node(t);
      RESCCL_CHECK(node.connection.value < connections.count());
      const int stage = stage_of_task.empty()
                            ? 0
                            : stage_of_task[static_cast<std::size_t>(t.value)];
      const TbTaskRef base{t, Direction::kSend, static_cast<int>(w), order};
      {
        Stream& s = table[slot(node.connection, Direction::kSend, stage)];
        s.rank = node.transfer.src;
        s.peer = node.transfer.dst;
        s.stage = stage;
        s.refs.push_back(base);
      }
      {
        Stream& s = table[slot(node.connection, Direction::kRecv, stage)];
        s.rank = node.transfer.dst;
        s.peer = node.transfer.src;
        s.dir = Direction::kRecv;
        s.stage = stage;
        TbTaskRef ref = base;
        ref.dir = Direction::kRecv;
        s.refs.push_back(ref);
      }
      ++order;
    }
  }

  std::vector<Stream> out;
  for (Stream& s : table) {
    if (!s.refs.empty()) out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const Stream& a, const Stream& b) {
    return std::tie(a.rank, a.peer, a.dir, a.stage) <
           std::tie(b.rank, b.peer, b.dir, b.stage);
  });
  return out;
}

// Timeline analysis (§4.4): a static model of task-level execution. Every
// stream is a FIFO executing its tasks in pipeline order, each task running
// `window` micro-batch invocations back to back; an invocation starts when
// its data dependencies (same micro-batch), its task's previous invocation,
// and both endpoint FIFOs allow. Durations use the path's zero-contention
// bottleneck — this is an *activity window* estimate, not a performance
// prediction, so contention is deliberately ignored.
struct Timeline {
  std::vector<double> task_begin;  // first invocation start, per task
  std::vector<double> task_end;    // last invocation end, per task
};

Timeline AnalyzeTimeline(const DependencyGraph& dag, const Schedule& schedule,
                         const ConnectionTable& connections) {
  const int ntasks = dag.ntasks();
  const int window = kTimelineWindow;

  Timeline tl;
  tl.task_begin.assign(static_cast<std::size_t>(ntasks), 0.0);
  tl.task_end.assign(static_cast<std::size_t>(ntasks), 0.0);

  // Endpoint FIFO availability per (connection, direction): a task's
  // send endpoint is its connection's, and so is its recv endpoint.
  std::vector<double> endpoint_free(
      static_cast<std::size_t>(connections.count()) * 2, 0.0);
  // Per-invocation completion, filled in global pipeline order.
  std::vector<double> inv_end(static_cast<std::size_t>(ntasks) *
                              static_cast<std::size_t>(window));

  for (const auto& wave : schedule.sub_pipelines) {
    for (TaskId t : wave) {
      const TaskNode& node = dag.node(t);
      const Path& path = connections.path(node.connection);
      const double dur =
          path.latency.us() +
          static_cast<double>(kTimelineChunk.bytes()) /
              path.bottleneck.bytes_per_us();
      const auto c = static_cast<std::size_t>(node.connection.value);
      double& send_free = endpoint_free[c * 2];
      double& recv_free = endpoint_free[c * 2 + 1];
      double prev_inv_end = 0.0;
      for (int m = 0; m < window; ++m) {
        double start = std::max({send_free, recv_free, prev_inv_end});
        for (TaskId pred : node.preds) {
          start = std::max(
              start, inv_end[static_cast<std::size_t>(pred.value) *
                                 static_cast<std::size_t>(window) +
                             static_cast<std::size_t>(m)]);
        }
        const double end = start + dur;
        inv_end[static_cast<std::size_t>(t.value) *
                    static_cast<std::size_t>(window) +
                static_cast<std::size_t>(m)] = end;
        if (m == 0) tl.task_begin[static_cast<std::size_t>(t.value)] = start;
        tl.task_end[static_cast<std::size_t>(t.value)] = end;
        prev_inv_end = end;
        send_free = end;
        recv_free = end;
      }
    }
  }
  return tl;
}

}  // namespace

TbPlan AllocateTbs(const DependencyGraph& dag, const Schedule& schedule,
                   const ConnectionTable& connections,
                   const TbAllocParams& params,
                   const std::vector<int>& stage_of_task) {
  RESCCL_CHECK(stage_of_task.empty() ||
               stage_of_task.size() == static_cast<std::size_t>(dag.ntasks()));
  std::vector<Stream> streams =
      BuildStreams(dag, schedule, connections, stage_of_task);

  // Channel-pool enforcement: streams per (rank, peer, direction) differ
  // only by stage and each needs at least one channel of the per-peer pool.
  // BuildStreams emits streams in key order, so same-pair streams are
  // consecutive and a linear scan counts them. Compile() validates the
  // user-facing configuration before allocating; this is the backstop for
  // plans assembled outside it.
  {
    std::size_t run_start = 0;
    for (std::size_t i = 0; i <= streams.size(); ++i) {
      const bool boundary =
          i == streams.size() ||
          (i > run_start && (streams[i].rank != streams[run_start].rank ||
                             streams[i].peer != streams[run_start].peer ||
                             streams[i].dir != streams[run_start].dir));
      if (!boundary) continue;
      RESCCL_CHECK_MSG(
          i - run_start <= static_cast<std::size_t>(params.channels_per_peer),
          "connection opens " << i - run_start
                              << " streams on one (rank, peer, direction) but "
                                 "the channel pool holds only "
                              << params.channels_per_peer);
      run_start = i;
    }
  }

  TbPlan plan;
  plan.send_tb.assign(static_cast<std::size_t>(dag.ntasks()), -1);
  plan.recv_tb.assign(static_cast<std::size_t>(dag.ntasks()), -1);

  if (params.policy == TbAllocPolicy::kConnectionBased) {
    for (Stream& s : streams) {
      plan.tbs.push_back({s.rank, std::move(s.refs)});
    }
  } else {
    // State-based merging: estimate every connection's active window, then
    // per rank greedily pack streams whose windows never overlap (Eq. 7's
    // "never active simultaneously") onto shared TBs.
    const Timeline tl = AnalyzeTimeline(dag, schedule, connections);
    for (Stream& s : streams) {
      s.active_begin = tl.task_begin[static_cast<std::size_t>(
          s.refs.front().task.value)];
      s.active_end = 0;
      for (const TbTaskRef& ref : s.refs) {
        s.active_begin = std::min(
            s.active_begin,
            tl.task_begin[static_cast<std::size_t>(ref.task.value)]);
        s.active_end =
            std::max(s.active_end,
                     tl.task_end[static_cast<std::size_t>(ref.task.value)]);
      }
    }

    struct OpenTb {
      TbPlan::Tb tb;
      // Disjoint activity intervals of the merged streams, kept sorted.
      std::vector<std::pair<double, double>> windows;
    };
    std::vector<std::vector<OpenTb>> per_rank(
        static_cast<std::size_t>(connections.topology().nranks()));
    for (Stream& s : streams) {
      auto& open = per_rank[static_cast<std::size_t>(s.rank)];
      OpenTb* target = nullptr;
      for (OpenTb& cand : open) {
        const bool overlaps = std::any_of(
            cand.windows.begin(), cand.windows.end(), [&](const auto& w) {
              return std::max(w.first, s.active_begin) <
                     std::min(w.second, s.active_end);
            });
        if (!overlaps) {
          target = &cand;
          break;
        }
      }
      if (target == nullptr) {
        open.push_back(OpenTb{{s.rank, {}}, {}});
        target = &open.back();
      }
      target->tb.refs.insert(target->tb.refs.end(), s.refs.begin(),
                             s.refs.end());
      target->windows.emplace_back(s.active_begin, s.active_end);
    }
    for (auto& open : per_rank) {
      for (OpenTb& o : open) {
        std::sort(o.tb.refs.begin(), o.tb.refs.end(),
                  [](const TbTaskRef& a, const TbTaskRef& b) {
                    return a.order < b.order;
                  });
        plan.tbs.push_back(std::move(o.tb));
      }
    }
  }

  for (std::size_t i = 0; i < plan.tbs.size(); ++i) {
    for (const TbTaskRef& ref : plan.tbs[i].refs) {
      auto& slot = ref.dir == Direction::kSend
                       ? plan.send_tb[static_cast<std::size_t>(ref.task.value)]
                       : plan.recv_tb[static_cast<std::size_t>(ref.task.value)];
      RESCCL_CHECK_MSG(slot == -1, "task assigned to two TBs");
      slot = static_cast<int>(i);
    }
  }
  for (int t = 0; t < dag.ntasks(); ++t) {
    RESCCL_CHECK(plan.send_tb[static_cast<std::size_t>(t)] >= 0);
    RESCCL_CHECK(plan.recv_tb[static_cast<std::size_t>(t)] >= 0);
  }
  return plan;
}

int TbPlan::TbCountForRank(Rank r) const {
  int n = 0;
  for (const Tb& tb : tbs) {
    if (tb.rank == r) ++n;
  }
  return n;
}

int TbPlan::MaxTbsPerRank(int nranks) const {
  int best = 0;
  for (Rank r = 0; r < nranks; ++r) {
    best = std::max(best, TbCountForRank(r));
  }
  return best;
}

}  // namespace resccl
