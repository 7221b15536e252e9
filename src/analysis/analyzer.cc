#include "analysis/analyzer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "obs/json.h"
#include "sim/witness.h"

namespace resccl {

namespace {

// Witness strings are built only when a rule fires, so the clean path (the
// strict-mode Prepare() hot path) stays allocation-light.
constexpr int kMaxDiagsPerRule = 16;

// rule_us key of the lowered-program structure pass.
constexpr const char* kLoweredStructureTiming = "lowered-structure";

// Runs one check and charges its wall-clock to `rule` in report.rule_us.
template <typename Check>
decltype(auto) TimeRule(AnalysisReport& report, const char* rule,
                        Check&& check) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto charge = [&] {
    const double us = ElapsedUs(t0);
    for (RuleTime& entry : report.rule_us) {
      if (std::string_view(entry.rule) == rule) {
        entry.us += us;
        return;
      }
    }
    report.rule_us.push_back({rule, us});
  };
  if constexpr (std::is_void_v<std::invoke_result_t<Check>>) {
    check();
    charge();
  } else {
    auto result = check();
    charge();
    return result;
  }
}

void Emit(AnalysisReport& report, const char* rule, std::string location,
          std::string witness) {
  report.diagnostics.push_back({DiagSeverity::kError, rule,
                                std::move(location), std::move(witness)});
}

std::string TaskName(const Algorithm& algo, int task) {
  const Transfer& t = algo.transfers[static_cast<std::size_t>(task)];
  std::ostringstream os;
  os << "task#" << task << "(r" << t.src << "->r" << t.dst << " step "
     << t.step << " " << TransferOpName(t.op) << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// structure: every index the lowering and the machine would otherwise defend
// with internal-invariant throws, verified up front so a corrupted plan is a
// diagnostic, never an exception.
// ---------------------------------------------------------------------------

struct StructureVerdict {
  bool algo_ok = false;      // algorithm validates, topology (if any) matches
  bool preds_ok = false;     // dependency lists shaped and in range
  bool schedule_ok = false;  // waves cover every task exactly once
  bool tbs_ok = false;       // TB plan consistent (ranks, stages, assignment)
  [[nodiscard]] bool lowerable() const {
    return algo_ok && preds_ok && schedule_ok && tbs_ok;
  }
};

StructureVerdict CheckStructure(const CompiledCollective& plan,
                                const Topology* topo, AnalysisReport& report) {
  StructureVerdict v;
  int emitted = 0;
  const auto err = [&](std::string location, std::string witness) {
    if (emitted++ < kMaxDiagsPerRule) {
      Emit(report, rules::kStructure, std::move(location), std::move(witness));
    }
  };

  const int ntasks = plan.algo.ntasks();
  const auto n = static_cast<std::size_t>(ntasks);

  v.algo_ok = true;
  if (Status s = plan.algo.Validate(); !s.ok()) {
    err("algorithm", "algorithm invalid: " + s.message());
    v.algo_ok = false;
  }
  if (topo != nullptr && topo->nranks() != plan.algo.nranks) {
    err("algorithm",
        "algorithm is for " + std::to_string(plan.algo.nranks) +
            " ranks but the topology has " + std::to_string(topo->nranks()));
    v.algo_ok = false;
  }
  // StageOf divides by the stage count; every later stage read is gated on
  // algo_ok.
  if (PlanStages(plan) < 1) {
    err("nstages", "plan declares " + std::to_string(PlanStages(plan)) +
                       " stages; at least one is required");
    v.algo_ok = false;
  }

  // Dependency lists.
  v.preds_ok = plan.preds.size() == n;
  if (!v.preds_ok) {
    err("preds", "dependency table has " + std::to_string(plan.preds.size()) +
                     " entries for " + std::to_string(ntasks) + " tasks");
  } else {
    for (int t = 0; t < ntasks && v.preds_ok; ++t) {
      for (int p : plan.preds[static_cast<std::size_t>(t)]) {
        if (p < 0 || p >= ntasks || p == t) {
          err("task#" + std::to_string(t),
              "dependency predecessor " + std::to_string(p) +
                  " is out of range or self-referential");
          v.preds_ok = false;
          break;
        }
      }
    }
  }

  // Schedule coverage: each task in exactly one sub-pipeline.
  v.schedule_ok = true;
  std::vector<int> occurrences(n, 0);
  for (std::size_t w = 0; w < plan.schedule.sub_pipelines.size(); ++w) {
    for (TaskId t : plan.schedule.sub_pipelines[w]) {
      if (!t.valid() || t.value >= ntasks) {
        err("schedule", "wave " + std::to_string(w) +
                            " references a task outside the algorithm");
        v.schedule_ok = false;
      } else {
        ++occurrences[static_cast<std::size_t>(t.value)];
      }
    }
  }
  if (v.schedule_ok) {
    for (int t = 0; t < ntasks; ++t) {
      if (occurrences[static_cast<std::size_t>(t)] != 1) {
        err("task#" + std::to_string(t),
            "appears " +
                std::to_string(occurrences[static_cast<std::size_t>(t)]) +
                " times in the schedule (exactly once required)");
        v.schedule_ok = false;
      }
    }
  }

  // TB plan: refs in range, endpoint ranks consistent with the algorithm,
  // stage-pure TBs under stage-level execution, assignment tables coherent.
  v.tbs_ok = v.algo_ok && v.schedule_ok;
  const std::size_t ntbs = plan.tbs.tbs.size();
  if (ntbs == 0) {
    err("tbs", "plan has no thread blocks");
    v.tbs_ok = false;
  }
  const bool tables_sized =
      plan.tbs.send_tb.size() == n && plan.tbs.recv_tb.size() == n;
  if (!tables_sized) {
    err("tbs", "per-task TB assignment tables are missized");
    v.tbs_ok = false;
  }
  for (std::size_t i = 0; i < ntbs; ++i) {
    const TbPlan::Tb& tb = plan.tbs.tbs[i];
    // Built lazily: this loop visits every TB on every strict Prepare.
    const auto loc = [i] { return "tb#" + std::to_string(i); };
    if (tb.refs.empty()) {
      err(loc(), "thread block has no task refs");
      v.tbs_ok = false;
      continue;
    }
    if (tb.rank < 0 || tb.rank >= plan.algo.nranks) {
      err(loc(), "rank " + std::to_string(tb.rank) + " out of range");
      v.tbs_ok = false;
      continue;
    }
    int tb_stage = -1;
    for (const TbTaskRef& ref : tb.refs) {
      if (!ref.task.valid() || ref.task.value >= ntasks) {
        err(loc(), "ref names task " + std::to_string(ref.task.value) +
                     " outside the algorithm");
        v.tbs_ok = false;
        continue;
      }
      const auto task = static_cast<std::size_t>(ref.task.value);
      if (v.algo_ok) {
        const Transfer& tr = plan.algo.transfers[task];
        const Rank expect = ref.dir == Direction::kSend ? tr.src : tr.dst;
        if (tb.rank != expect) {
          err(loc(), std::string("holds the ") +
                       (ref.dir == Direction::kSend ? "send" : "recv") +
                       " side of task#" + std::to_string(ref.task.value) +
                       ", which lives on r" + std::to_string(expect) +
                       ", but the TB runs on r" + std::to_string(tb.rank));
          v.tbs_ok = false;
        }
      }
      if (v.algo_ok && plan.options.mode == ExecutionMode::kStageLevel) {
        const int s = StageOf(plan, ref.task.value);
        if (tb_stage == -1) {
          tb_stage = s;
        } else if (s != tb_stage) {
          err(loc(), "spans stages " + std::to_string(tb_stage) + " and " +
                       std::to_string(s) +
                       " — stage-level lowering requires stage-pure TBs");
          v.tbs_ok = false;
        }
      }
      if (tables_sized) {
        const auto& table = ref.dir == Direction::kSend ? plan.tbs.send_tb
                                                        : plan.tbs.recv_tb;
        if (table[task] != static_cast<int>(i)) {
          err(loc(), "ref/assignment mismatch for task#" +
                       std::to_string(ref.task.value));
          v.tbs_ok = false;
        }
      }
    }
  }
  if (tables_sized) {
    for (int t = 0; t < ntasks; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const int s = plan.tbs.send_tb[ti];
      const int r = plan.tbs.recv_tb[ti];
      if (s < 0 || static_cast<std::size_t>(s) >= ntbs || r < 0 ||
          static_cast<std::size_t>(r) >= ntbs) {
        err("task#" + std::to_string(t), "has no (or an out-of-range) TB "
                                         "assignment for one of its sides");
        v.tbs_ok = false;
      }
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// hazard: recompute the RAW/WAW/WAR pairs with the sweep of core/dag.cc as
// the spec, then require each pair to be ordered by the plan's dependency
// edges (transitively). A cyclic dependency table is itself reported — as a
// deadlock, with a task-level witness.
// ---------------------------------------------------------------------------

// Every task in (chunk, step, index) order — the order both the hazard sweep
// and the postcondition replay walk. Chunk c's tasks are
// tasks[chunk_begin[c] .. chunk_begin[c+1]); within a chunk, equal steps are
// contiguous and keep task-index order. Built once per analysis and shared.
struct StepOrder {
  std::vector<int> tasks;
  std::vector<int> chunk_begin;
  [[nodiscard]] bool built() const { return !chunk_begin.empty(); }
};

StepOrder BuildStepOrder(const Algorithm& algo) {
  const std::size_t n = algo.transfers.size();
  const auto nchunks = static_cast<std::size_t>(algo.nchunks);
  Step max_step = 0;
  for (const Transfer& t : algo.transfers) {
    max_step = std::max(max_step, t.step);
  }
  const auto nsteps = static_cast<std::size_t>(max_step) + 1;

  // One stable counting sort over (chunk, step) buckets. Every library
  // algorithm has about as many buckets as tasks; a sparser step range (a
  // hand-edited plan) counts by chunk alone and sorts each chunk by step.
  const bool dense = nchunks * nsteps <= 4 * n;
  const std::size_t per_chunk = dense ? nsteps : 1;
  const auto bucket = [&](const Transfer& t) {
    return static_cast<std::size_t>(t.chunk) * per_chunk +
           (dense ? static_cast<std::size_t>(t.step) : 0);
  };
  std::vector<int> fill(nchunks * per_chunk + 1, 0);
  for (const Transfer& t : algo.transfers) ++fill[bucket(t) + 1];
  for (std::size_t b = 0; b + 1 < fill.size(); ++b) fill[b + 1] += fill[b];
  StepOrder order;
  order.chunk_begin.resize(nchunks + 1);
  for (std::size_t c = 0; c <= nchunks; ++c) {
    order.chunk_begin[c] = fill[c * per_chunk];
  }
  order.tasks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order.tasks[static_cast<std::size_t>(fill[bucket(algo.transfers[i])]++)] =
        static_cast<int>(i);
  }
  if (!dense) {
    const auto by_step = [&](int a, int b) {
      return algo.transfers[static_cast<std::size_t>(a)].step <
             algo.transfers[static_cast<std::size_t>(b)].step;
    };
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::stable_sort(order.tasks.begin() + order.chunk_begin[c],
                       order.tasks.begin() + order.chunk_begin[c + 1],
                       by_step);
    }
  }
  return order;
}

// Calls visit(from, to, kind, chunk, slot) for each (from, to) pair
// DependencyGraph's construction sweep (core/dag.cc) would draw as an edge:
// per chunk, in step order, same-step groups concurrent, deduplicated per
// ordered pair exactly like AddEdge. Pairs arrive grouped by `to`; the sweep
// stops as soon as visit returns false.
template <typename Visit>
void ForEachRequiredEdge(const Algorithm& algo, const StepOrder& order,
                         Visit&& visit) {
  struct SlotState {
    std::vector<int> writers;
    std::vector<int> readers;
    bool group_stamped = false;
  };
  // All (from, to) pairs for a given `to` are generated while that task's
  // group entry is processed, and each task is processed exactly once — so a
  // per-`from` stamp of the current `to` dedups ordered pairs exactly like
  // dag.cc's AddEdge hash, without the hash.
  std::vector<int> stamp(algo.transfers.size(), -1);
  std::vector<SlotState> slots(static_cast<std::size_t>(algo.nranks));
  const auto& tasks = order.tasks;
  const auto slot = [&](Rank r) -> SlotState& {
    return slots[static_cast<std::size_t>(r)];
  };
  for (std::size_t c = 0; c + 1 < order.chunk_begin.size(); ++c) {
    const auto cid = static_cast<ChunkId>(c);
    for (SlotState& s : slots) {
      s.writers.clear();
      s.readers.clear();
    }
    const auto chunk_end = static_cast<std::size_t>(order.chunk_begin[c + 1]);
    auto group_begin = static_cast<std::size_t>(order.chunk_begin[c]);
    while (group_begin < chunk_end) {
      std::size_t group_end = group_begin;
      const Step step =
          algo.transfers[static_cast<std::size_t>(tasks[group_begin])].step;
      while (group_end < chunk_end &&
             algo.transfers[static_cast<std::size_t>(tasks[group_end])].step ==
                 step) {
        ++group_end;
      }
      for (std::size_t i = group_begin; i < group_end; ++i) {
        const int id = tasks[i];
        const Transfer& t = algo.transfers[static_cast<std::size_t>(id)];
        const auto add = [&](int from, const char* kind, Rank at) {
          if (from == id || stamp[static_cast<std::size_t>(from)] == id) {
            return true;
          }
          stamp[static_cast<std::size_t>(from)] = id;
          return visit(from, id, kind, cid, at);
        };
        for (int writer : slot(t.src).writers) {
          if (!add(writer, "RAW", t.src)) return;
        }
        SlotState& dst_slot = slot(t.dst);
        for (int writer : dst_slot.writers) {
          if (!add(writer, "WAW", t.dst)) return;
        }
        for (int reader : dst_slot.readers) {
          if (!add(reader, "WAR", t.dst)) return;
        }
      }
      for (std::size_t i = group_begin; i < group_end; ++i) {
        SlotState& dst_slot =
            slot(algo.transfers[static_cast<std::size_t>(tasks[i])].dst);
        if (!dst_slot.group_stamped) {
          dst_slot.writers.clear();
          dst_slot.readers.clear();
          dst_slot.group_stamped = true;
        }
        dst_slot.writers.push_back(tasks[i]);
      }
      for (std::size_t i = group_begin; i < group_end; ++i) {
        slot(algo.transfers[static_cast<std::size_t>(tasks[i])].dst)
            .group_stamped = false;
      }
      for (std::size_t i = group_begin; i < group_end; ++i) {
        slot(algo.transfers[static_cast<std::size_t>(tasks[i])].src)
            .readers.push_back(tasks[i]);
      }
      group_begin = group_end;
    }
  }
}

void CheckHazards(const CompiledCollective& plan, const StepOrder& step_order,
                  AnalysisReport& report) {
  const int ntasks = plan.algo.ntasks();
  const auto n = static_cast<std::size_t>(ntasks);

  // Kahn over the plan's dependency edges. A cycle makes the plan
  // unexecutable regardless of lowering — report it as a deadlock with a
  // task-level witness and skip the reachability queries.
  // Flat CSR successor lists — no per-task vector allocations.
  std::vector<int> indegree(n, 0);
  std::vector<int> succ_off(n + 1, 0);
  for (int t = 0; t < ntasks; ++t) {
    const auto& preds = plan.preds[static_cast<std::size_t>(t)];
    indegree[static_cast<std::size_t>(t)] = static_cast<int>(preds.size());
    for (int p : preds) ++succ_off[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) succ_off[v + 1] += succ_off[v];
  std::vector<int> succ_nodes(static_cast<std::size_t>(succ_off[n]));
  {
    std::vector<int> fill(succ_off.begin(), succ_off.end() - 1);
    for (int t = 0; t < ntasks; ++t) {
      for (int p : plan.preds[static_cast<std::size_t>(t)]) {
        succ_nodes[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(p)]++)] = t;
      }
    }
  }
  std::vector<int> order;
  order.reserve(n);
  std::vector<int> ready;
  for (int t = 0; t < ntasks; ++t) {
    if (indegree[static_cast<std::size_t>(t)] == 0) ready.push_back(t);
  }
  while (!ready.empty()) {
    const int u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (int k = succ_off[static_cast<std::size_t>(u)];
         k < succ_off[static_cast<std::size_t>(u) + 1]; ++k) {
      const int s = succ_nodes[static_cast<std::size_t>(k)];
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (order.size() != n) {
    // Walk backwards through unprocessed predecessors (those left with a
    // positive in-degree) until a node repeats.
    const auto done = [&](int t) {
      return indegree[static_cast<std::size_t>(t)] == 0;
    };
    int start = -1;
    for (int t = 0; t < ntasks; ++t) {
      if (!done(t)) {
        start = t;
        break;
      }
    }
    RESCCL_CHECK(start >= 0);
    std::unordered_map<int, std::size_t> position;
    std::vector<int> path;
    int cur = start;
    while (position.find(cur) == position.end()) {
      position[cur] = path.size();
      path.push_back(cur);
      int next = -1;
      for (int p : plan.preds[static_cast<std::size_t>(cur)]) {
        if (!done(p)) {
          next = p;
          break;
        }
      }
      RESCCL_CHECK(next >= 0);
      cur = next;
    }
    std::ostringstream os;
    for (std::size_t i = position[cur]; i < path.size(); ++i) {
      os << "task#" << path[i] << " waits " << WitnessDataDep() << " on ";
    }
    os << "task#" << cur << " — the dependency edges form a cycle";
    Emit(report, rules::kDeadlock, "preds", os.str());
    return;
  }

  // Each required pair must be ordered by the dependency edges,
  // transitively. The compiler emits every hazard pair as a *direct* edge
  // (dag.cc AddEdge), so the common case is a constant-time membership test
  // against plan.preds — the transitive closure is never materialized. Only
  // a pair with no direct edge (a foreign or pruned plan) pays for a
  // backward reachability walk, and only that pair.
  std::vector<int> direct_stamp(n, -1);
  std::vector<char> visited(n, 0);
  std::vector<int> stack;
  std::vector<int> touched;
  const auto reaches = [&](int from, int to) {
    // Backward DFS from `to` through preds, looking for `from`. Exact; the
    // graph is acyclic here (Kahn succeeded above).
    bool found = false;
    stack.clear();
    touched.clear();
    stack.push_back(to);
    visited[static_cast<std::size_t>(to)] = 1;
    touched.push_back(to);
    while (!stack.empty() && !found) {
      const int u = stack.back();
      stack.pop_back();
      for (int p : plan.preds[static_cast<std::size_t>(u)]) {
        if (p == from) {
          found = true;
          break;
        }
        if (!visited[static_cast<std::size_t>(p)]) {
          visited[static_cast<std::size_t>(p)] = 1;
          touched.push_back(p);
          stack.push_back(p);
        }
      }
    }
    for (int u : touched) visited[static_cast<std::size_t>(u)] = 0;
    return found;
  };

  int emitted = 0;
  int marked_to = -1;
  ForEachRequiredEdge(plan.algo, step_order, [&](int from, int to,
                                                 const char* kind,
                                                 ChunkId chunk, Rank slot) {
    // Required edges arrive grouped by `to`; refresh the direct-pred marks
    // once per group.
    if (to != marked_to) {
      marked_to = to;
      for (int p : plan.preds[static_cast<std::size_t>(to)]) {
        direct_stamp[static_cast<std::size_t>(p)] = to;
      }
    }
    if (direct_stamp[static_cast<std::size_t>(from)] == to) return true;
    if (reaches(from, to)) return true;
    if (emitted++ >= kMaxDiagsPerRule) return false;
    std::ostringstream os;
    os << kind << " hazard on chunk " << chunk << " at r" << slot
       << "'s slot: " << TaskName(plan.algo, from) << " must precede "
       << TaskName(plan.algo, to) << " but no dependency path orders them";
    Emit(report, rules::kHazard, "task#" + std::to_string(to), os.str());
    return true;
  });
}

// ---------------------------------------------------------------------------
// postcondition: abstract replay over multisets of contributing ranks. The
// content of (rank, chunk) slots is abstracted to "which ranks' original
// chunk-c contributions, with what multiplicity" — recv replaces, rrc
// accumulates — and the final state is compared against the collective's
// contract (the value-level twin of memory/reference.cc's VerifyCollective).
// ---------------------------------------------------------------------------

// Index = origin rank, value = multiplicity.
using SlotContent = std::span<const int>;

std::string FormatContent(SlotContent content) {
  std::ostringstream os;
  os << "{";
  int shown = 0;
  for (std::size_t r = 0; r < content.size(); ++r) {
    if (content[r] == 0) continue;
    if (shown > 0) os << ",";
    if (++shown > 8) {
      os << "...";
      break;
    }
    os << "r" << r;
    if (content[r] != 1) os << "x" << content[r];
  }
  os << "}";
  return os.str();
}

void CheckPostcondition(const CompiledCollective& plan,
                        const StepOrder& step_order, AnalysisReport& report) {
  const Algorithm& algo = plan.algo;
  const auto nranks = static_cast<std::size_t>(algo.nranks);
  int emitted = 0;
  const auto err = [&](std::string location, std::string witness) {
    if (emitted++ < kMaxDiagsPerRule) {
      Emit(report, rules::kPostcondition, std::move(location),
           std::move(witness));
    }
  };

  // One nranks-wide row per rank: its chunk-c slot. Rows a chunk writes are
  // reset to "own contribution only" before the next chunk.
  std::vector<int> slots(nranks * nranks, 0);
  const auto row = [&](Rank r) {
    return slots.data() + static_cast<std::size_t>(r) * nranks;
  };
  for (Rank r = 0; r < algo.nranks; ++r) row(r)[r] = 1;
  std::vector<Rank> written;

  // Per-rank bookkeeping of the current step group, stamped with the group's
  // number so nothing is cleared between groups.
  struct RankMark {
    int read_group = -1;   // last group reading this rank's slot
    int write_group = -1;  // last group writing it; the fields below belong
    int writes = 0;        //   to that group
    int first_recv = -1;   // group position of its first plain recv, or -1
    int chunk = -1;        // last chunk writing it
  };
  std::vector<RankMark> marks(nranks);
  int group = 0;
  std::vector<int> snapshots;
  std::vector<Rank> ambiguous;

  const std::vector<int> everyone(nranks, 1);
  std::vector<int> just_one(nranks, 0);
  const auto& tasks = step_order.tasks;
  for (std::size_t c = 0; c + 1 < step_order.chunk_begin.size(); ++c) {
    const auto chunk_end =
        static_cast<std::size_t>(step_order.chunk_begin[c + 1]);
    auto group_begin = static_cast<std::size_t>(step_order.chunk_begin[c]);
    while (group_begin < chunk_end) {
      std::size_t group_end = group_begin;
      const Step step =
          algo.transfers[static_cast<std::size_t>(tasks[group_begin])].step;
      while (group_end < chunk_end &&
             algo.transfers[static_cast<std::size_t>(tasks[group_end])].step ==
                 step) {
        ++group_end;
      }
      const auto transfer = [&](std::size_t i) -> const Transfer& {
        return algo.transfers[static_cast<std::size_t>(tasks[i])];
      };
      const auto mark = [&](Rank r) -> RankMark& {
        return marks[static_cast<std::size_t>(r)];
      };

      // Same-step tasks are concurrent: reads see the pre-group state. Only
      // a group that writes a slot it also reads needs source snapshots;
      // otherwise every source row stays live until the group ends.
      ++group;
      for (std::size_t i = group_begin; i < group_end; ++i) {
        mark(transfer(i).src).read_group = group;
      }
      bool reads_own_writes = false;
      for (std::size_t i = group_begin; i < group_end; ++i) {
        const Transfer& t = transfer(i);
        RankMark& m = mark(t.dst);
        reads_own_writes = reads_own_writes || m.read_group == group;
        if (m.write_group != group) {
          m.write_group = group;
          m.writes = 0;
          m.first_recv = -1;
        }
        ++m.writes;
        if (t.op == TransferOp::kRecv && m.first_recv < 0) {
          m.first_recv = static_cast<int>(i - group_begin);
        }
        if (m.chunk != static_cast<int>(c)) {
          m.chunk = static_cast<int>(c);
          written.push_back(t.dst);
        }
      }
      if (reads_own_writes) {
        snapshots.resize((group_end - group_begin) * nranks);
        for (std::size_t i = group_begin; i < group_end; ++i) {
          const int* src = row(transfer(i).src);
          std::copy(src, src + nranks,
                    snapshots.data() + (i - group_begin) * nranks);
        }
      }
      const auto source = [&](std::size_t i) -> const int* {
        return reads_own_writes
                   ? snapshots.data() + (i - group_begin) * nranks
                   : row(transfer(i).src);
      };

      // A plain recv among several writes to one slot is order-dependent;
      // report those slots in rank order.
      ambiguous.clear();
      for (std::size_t i = group_begin; i < group_end; ++i) {
        const Rank dst = transfer(i).dst;
        const RankMark& m = mark(dst);
        if (m.first_recv >= 0 && m.writes > 1 &&
            std::find(ambiguous.begin(), ambiguous.end(), dst) ==
                ambiguous.end()) {
          ambiguous.push_back(dst);
        }
      }
      std::sort(ambiguous.begin(), ambiguous.end());
      for (const Rank dst : ambiguous) {
        std::ostringstream os;
        os << "concurrent step-" << step << " writes to r" << dst
           << "'s chunk " << c << " slot (";
        bool first = true;
        for (std::size_t i = group_begin; i < group_end; ++i) {
          if (transfer(i).dst != dst) continue;
          if (!first) os << ", ";
          first = false;
          os << "task#" << tasks[i];
        }
        os << ") include a plain recv — the result is order-dependent";
        err("rank " + std::to_string(dst) + " chunk " + std::to_string(c),
            os.str());
      }

      for (std::size_t i = group_begin; i < group_end; ++i) {
        const Transfer& t = transfer(i);
        const RankMark& m = mark(t.dst);
        int* target = row(t.dst);
        const int* src = source(i);
        if (m.first_recv >= 0) {
          // A copy overwrites; the first one wins for determinism (the
          // ambiguity, if any, was reported above).
          if (m.first_recv == static_cast<int>(i - group_begin)) {
            std::copy(src, src + nranks, target);
          }
        } else {
          // Concurrent reductions commute into the slot.
          for (std::size_t r = 0; r < nranks; ++r) target[r] += src[r];
        }
      }
      group_begin = group_end;
    }

    // Compare against the collective contract, slot by slot.
    const auto expect = [&](Rank r, const std::vector<int>& want) {
      const SlotContent got(row(r), nranks);
      if (std::equal(got.begin(), got.end(), want.begin())) return;
      err("rank " + std::to_string(r) + " chunk " + std::to_string(c),
          "ends holding " + FormatContent(got) + " but " +
              CollectiveOpName(algo.collective) + " requires " +
              FormatContent(want));
    };
    const auto cid = static_cast<Rank>(c);
    std::fill(just_one.begin(), just_one.end(), 0);
    switch (algo.collective) {
      case CollectiveOp::kAllGather:
        // cid >= nranks is unsatisfiable either way; the guard only keeps
        // the index in range.
        if (c < nranks) just_one[c] = 1;
        for (Rank r = 0; r < algo.nranks; ++r) expect(r, just_one);
        break;
      case CollectiveOp::kAllReduce:
        for (Rank r = 0; r < algo.nranks; ++r) expect(r, everyone);
        break;
      case CollectiveOp::kReduceScatter:
        // Only the owning rank's slot is specified.
        if (cid >= 0 && cid < algo.nranks) expect(cid, everyone);
        break;
      case CollectiveOp::kBroadcast:
        just_one[static_cast<std::size_t>(algo.root)] = 1;
        for (Rank r = 0; r < algo.nranks; ++r) expect(r, just_one);
        break;
      case CollectiveOp::kReduce:
        expect(algo.root, everyone);
        break;
    }

    // Back to "every rank holds its own contribution" for the next chunk.
    for (const Rank r : written) {
      int* slot = row(r);
      std::fill(slot, slot + nranks, 0);
      slot[r] = 1;
    }
    written.clear();
  }
}

// ---------------------------------------------------------------------------
// lowered-program structure, rendezvous, and the wait-for deadlock check.
// ---------------------------------------------------------------------------

bool CheckLoweredStructure(const CompiledCollective& plan,
                           const SimProgram& program, AnalysisReport& report) {
  bool ok = true;
  int emitted = 0;
  const auto err = [&](std::string location, std::string witness) {
    ok = false;
    if (emitted++ < kMaxDiagsPerRule) {
      Emit(report, rules::kStructure, std::move(location), std::move(witness));
    }
  };
  const int nranks = plan.algo.nranks;
  const auto ntransfers = program.transfers.size();

  // The dependency CSR's shape comes first: no rule reads DepsOf until it
  // holds.
  const std::vector<int>& dep_begin = program.dep_begin;
  bool csr_ok = dep_begin.size() == ntransfers + 1;
  if (!csr_ok) {
    err("deps", "dependency offsets hold " + std::to_string(dep_begin.size()) +
                    " entries for " + std::to_string(ntransfers) +
                    " transfers (transfers + 1 required)");
  } else if (dep_begin.front() != 0 ||
             static_cast<std::size_t>(dep_begin.back()) !=
                 program.deps.size() ||
             !std::is_sorted(dep_begin.begin(), dep_begin.end())) {
    err("deps", "dependency offsets are not monotone from 0 to the " +
                    std::to_string(program.deps.size()) +
                    " dependencies they index");
    csr_ok = false;
  }

  for (std::size_t t = 0; t < ntransfers; ++t) {
    const SimTransferDecl& decl = program.transfers[t];
    // Location strings only materialize on a failure.
    const auto loc = [t] { return "transfer#" + std::to_string(t); };
    if (decl.src < 0 || decl.src >= nranks || decl.dst < 0 ||
        decl.dst >= nranks) {
      err(loc(), "endpoint rank out of range");
      continue;
    }
    if (decl.src == decl.dst) err(loc(), "self-loop transfer");
    if (decl.bytes <= 0) err(loc(), "non-positive byte count");
    if (!csr_ok) continue;
    for (int d : program.DepsOf(t)) {
      if (d < 0 || static_cast<std::size_t>(d) >= ntransfers) {
        err(loc(), "dependency " + std::to_string(d) + " out of range");
      } else if (static_cast<std::size_t>(d) == t) {
        err(loc(), "depends on itself");
      }
    }
  }
  for (std::size_t i = 0; i < program.tbs.size(); ++i) {
    const SimTb& tb = program.tbs[i];
    if (tb.rank < 0 || tb.rank >= nranks) {
      err("tb#" + std::to_string(i), "rank out of range");
      continue;
    }
    for (std::size_t j = 0; j < tb.program.size(); ++j) {
      const SimInstr& instr = tb.program[j];
      const auto loc = [i, j] {
        return "tb#" + std::to_string(i) + " instr#" + std::to_string(j);
      };
      if (instr.kind == SimInstr::Kind::kBarrier) {
        if (instr.barrier < 0 ||
            static_cast<std::size_t>(instr.barrier) >=
                program.barrier_parties.size()) {
          err(loc(), "barrier id out of range");
        }
      } else if (instr.transfer < 0 ||
                 static_cast<std::size_t>(instr.transfer) >= ntransfers) {
        err(loc(), "transfer id out of range");
      }
    }
  }
  return ok;
}

void CheckRendezvous(const SimProgram& program, AnalysisReport& report) {
  int emitted = 0;
  const auto err = [&](std::string location, std::string witness) {
    if (emitted++ < kMaxDiagsPerRule) {
      Emit(report, rules::kRendezvous, std::move(location),
           std::move(witness));
    }
  };

  // 8 bytes a side: the two tables are indexed at random by every
  // instruction.
  struct Side {
    int count = 0;
    int tb = -1;  // first TB that issues this side
  };
  const auto ntransfers = program.transfers.size();
  std::vector<Side> send(ntransfers);
  std::vector<Side> recv(ntransfers);
  std::vector<int> arrivals(program.barrier_parties.size(), 0);
  for (std::size_t i = 0; i < program.tbs.size(); ++i) {
    for (const SimInstr& instr : program.tbs[i].program) {
      if (instr.kind == SimInstr::Kind::kBarrier) {
        ++arrivals[static_cast<std::size_t>(instr.barrier)];
        continue;
      }
      Side& side = instr.kind == SimInstr::Kind::kSendSide
                       ? send[static_cast<std::size_t>(instr.transfer)]
                       : recv[static_cast<std::size_t>(instr.transfer)];
      if (side.count++ == 0) side.tb = static_cast<int>(i);
    }
  }

  for (std::size_t t = 0; t < ntransfers; ++t) {
    const SimTransferDecl& decl = program.transfers[t];
    const auto check_side = [&](const Side& side, bool is_send, Rank expect) {
      // Fast path: exactly one side on the right rank — no strings built.
      const auto rank_of = [&](int tb) {
        return program.tbs[static_cast<std::size_t>(tb)].rank;
      };
      if (side.count == 1 && rank_of(side.tb) == expect) return;
      const std::string name = WitnessTransfer(program, static_cast<int>(t));
      const char* label = is_send ? "sender" : "receiver";
      if (side.count == 0) {
        err(name, std::string("no ") + label + " joined: no TB issues the " +
                      (is_send ? "send" : "recv") + std::string(" side"));
        return;
      }
      if (side.count > 1) {
        err(name, std::to_string(side.count) + " " +
                      (is_send ? "send" : "recv") +
                      " sides issued — exactly one TB may drive a side");
        return;
      }
      const Rank got = rank_of(side.tb);
      if (got != expect) {
        err(name, std::string(label) + " side issued on tb#" +
                      std::to_string(side.tb) + " (r" + std::to_string(got) +
                      ") but the transfer's " +
                      (is_send ? "source" : "destination") + " is r" +
                      std::to_string(expect));
      }
    };
    check_side(send[t], /*is_send=*/true, decl.src);
    check_side(recv[t], /*is_send=*/false, decl.dst);
  }
  for (std::size_t b = 0; b < program.barrier_parties.size(); ++b) {
    if (arrivals[b] != program.barrier_parties[b]) {
      err(WitnessBarrier(static_cast<int>(b)),
          std::to_string(arrivals[b]) + " TB arrival(s) for " +
              std::to_string(program.barrier_parties[b]) +
              " parties — the barrier can never release cleanly");
    }
  }
}

void CheckDeadlock(const SimProgram& program, AnalysisReport& report) {
  // Wait-for graph: one node per transfer declaration and per barrier; an
  // edge u -> v means v cannot complete until u does. Sources of edges:
  //   program order  a TB arrives at instruction k only after instruction
  //                  k-1 releases it (rendezvous completion / barrier
  //                  release);
  //   data deps      a transfer starts only after its same-micro-batch
  //                  predecessors complete;
  //   barriers       a barrier releases only after every party arrives
  //                  (covered by the program-order edges from each party's
  //                  previous instruction).
  const std::size_t ntransfers = program.transfers.size();
  const std::size_t nbarriers = program.barrier_parties.size();
  const std::size_t nnodes = ntransfers + nbarriers;
  const auto node_of = [ntransfers](const SimInstr& instr) {
    return instr.kind == SimInstr::Kind::kBarrier
               ? static_cast<int>(ntransfers) + instr.barrier
               : instr.transfer;
  };
  // Visits every edge (node, pred, tb) in a fixed order: program order TB
  // by TB, then data deps. tb < 0 marks a data dep.
  const auto for_each_edge = [&](auto&& visit) {
    for (std::size_t i = 0; i < program.tbs.size(); ++i) {
      int prev = -1;
      for (const SimInstr& instr : program.tbs[i].program) {
        const int node = node_of(instr);
        if (prev >= 0) {
          visit(static_cast<std::size_t>(node), prev, static_cast<int>(i));
        }
        prev = node;
      }
    }
    for (std::size_t t = 0; t < ntransfers; ++t) {
      for (int d : program.DepsOf(t)) visit(t, d, -1);
    }
  };

  // Kahn's algorithm needs only in-degrees and flat CSR successor lists —
  // this runs on every strict-mode Prepare.
  std::vector<int> pending(nnodes, 0);  // in-edges whose source is unfinished
  std::vector<int> succ_off(nnodes + 1, 0);
  for_each_edge([&](std::size_t node, int pred, int) {
    ++pending[node];
    ++succ_off[static_cast<std::size_t>(pred) + 1];
  });
  for (std::size_t v = 0; v < nnodes; ++v) succ_off[v + 1] += succ_off[v];
  std::vector<int> succ_nodes(static_cast<std::size_t>(succ_off[nnodes]));
  {
    std::vector<int> fill(succ_off.begin(), succ_off.end() - 1);
    for_each_edge([&](std::size_t node, int pred, int) {
      succ_nodes[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(pred)]++)] = static_cast<int>(node);
    });
  }
  std::vector<int> ready;
  for (std::size_t v = 0; v < nnodes; ++v) {
    if (pending[v] == 0) ready.push_back(static_cast<int>(v));
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const int u = ready.back();
    ready.pop_back();
    ++processed;
    for (int k = succ_off[static_cast<std::size_t>(u)];
         k < succ_off[static_cast<std::size_t>(u) + 1]; ++k) {
      const int v = succ_nodes[static_cast<std::size_t>(k)];
      if (--pending[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
    }
  }
  if (processed == nnodes) return;

  // A cycle. Nodes Kahn never reached keep a pending in-edge, and each
  // has such a predecessor, so walking the wait-for edges backwards from
  // any of them must revisit a node. Only now build the predecessor lists,
  // with each edge's issuing TB, to name the witness.
  const auto done = [&](int node) {
    return pending[static_cast<std::size_t>(node)] == 0;
  };
  struct Edge {
    int pred = -1;
    int tb = -1;  // issuing TB for program-order edges; -1 for data deps
    [[nodiscard]] bool data_dep() const { return tb < 0; }
  };
  std::vector<int> pred_off(nnodes + 1, 0);
  for_each_edge([&](std::size_t node, int, int) { ++pred_off[node + 1]; });
  for (std::size_t v = 0; v < nnodes; ++v) pred_off[v + 1] += pred_off[v];
  std::vector<Edge> pred_edges(static_cast<std::size_t>(pred_off[nnodes]));
  {
    std::vector<int> fill(pred_off.begin(), pred_off.end() - 1);
    for_each_edge([&](std::size_t node, int pred, int tb) {
      pred_edges[static_cast<std::size_t>(fill[node]++)] = {pred, tb};
    });
  }

  int start = -1;
  for (std::size_t v = 0; v < nnodes; ++v) {
    if (!done(static_cast<int>(v))) {
      start = static_cast<int>(v);
      break;
    }
  }
  RESCCL_CHECK(start >= 0);
  const auto node_name = [&](int node) {
    return node < static_cast<int>(ntransfers)
               ? WitnessTransfer(program, node)
               : WitnessBarrier(node - static_cast<int>(ntransfers));
  };
  std::unordered_map<int, std::size_t> position;
  std::vector<int> path;
  std::vector<Edge> via;  // via[i]: edge from path[i] back to path[i+1]
  int cur = start;
  while (position.find(cur) == position.end()) {
    position[cur] = path.size();
    path.push_back(cur);
    const Edge* taken = nullptr;
    for (int k = pred_off[static_cast<std::size_t>(cur)];
         k < pred_off[static_cast<std::size_t>(cur) + 1]; ++k) {
      const Edge& e = pred_edges[static_cast<std::size_t>(k)];
      if (!done(e.pred)) {
        taken = &e;
        break;
      }
    }
    RESCCL_CHECK(taken != nullptr);
    via.push_back(*taken);
    cur = taken->pred;
  }
  std::ostringstream os;
  constexpr std::size_t kMaxHops = 24;
  const std::size_t first = position[cur];
  os << node_name(path[first]);
  for (std::size_t i = first; i < path.size(); ++i) {
    if (i - first >= kMaxHops) {
      os << " -> ...";
      break;
    }
    const Edge& e = via[i];
    os << " -> "
       << (e.data_dep() ? WitnessDataDep()
                        : WitnessProgramOrder(program,
                                              static_cast<std::size_t>(e.tb)))
       << " " << node_name(i + 1 < path.size() ? path[i + 1] : cur);
  }
  Emit(report, rules::kDeadlock, "wait-for graph",
       os.str() + " — each node waits on the next; the chain closes on "
                  "itself");
}

// ---------------------------------------------------------------------------
// tb-merge: recompute every connection's active interval with the
// allocator's own timeline model (core/tb_alloc.cc, Eq. 7) — same schedule,
// same arithmetic, independent code path — and flag any TB whose merged
// streams have overlapping activity windows.
// ---------------------------------------------------------------------------

void CheckTbMerge(const CompiledCollective& plan, const Topology& topo,
                  AnalysisReport& report) {
  // A TB's refs form one stream per (peer, direction, stage) endpoint.
  struct StreamKey {
    Rank peer = kInvalidRank;
    int dir = 0;  // 0 = send, 1 = recv
    int stage = 0;
    bool operator==(const StreamKey&) const = default;
  };
  const auto key_of = [&](const TbTaskRef& ref) {
    const Transfer& tr =
        plan.algo.transfers[static_cast<std::size_t>(ref.task.value)];
    const int stage = StageOf(plan, ref.task.value);
    return ref.dir == Direction::kSend ? StreamKey{tr.dst, 0, stage}
                                       : StreamKey{tr.src, 1, stage};
  };
  // Only a TB that merges two streams can overlap them; when no TB does,
  // there is nothing for the timeline to decide.
  const bool any_merged = std::any_of(
      plan.tbs.tbs.begin(), plan.tbs.tbs.end(), [&](const TbPlan::Tb& tb) {
        const StreamKey first = key_of(tb.refs.front());
        return std::any_of(
            tb.refs.begin(), tb.refs.end(),
            [&](const TbTaskRef& ref) { return key_of(ref) != first; });
      });
  if (!any_merged) return;

  // The plan's dependency table carries the same edges the allocator's DAG
  // used, so the timeline replay reads plan.preds directly — no
  // DependencyGraph reconstruction on this hot path.
  // The allocator's window: Compile() models the same micro-batches.
  constexpr auto kWindow = static_cast<std::size_t>(kTimelineWindow);
  const int ntasks = plan.algo.ntasks();

  // Static FIFO replay of the pipeline, identical to AnalyzeTimeline: every
  // invocation starts when its endpoints free up, its previous invocation
  // drains, and its same-micro-batch dependencies complete.
  std::vector<double> task_begin(static_cast<std::size_t>(ntasks), 0.0);
  std::vector<double> task_end(static_cast<std::size_t>(ntasks), 0.0);
  // Flat (rank, rank, dir) table — the whole rank grid fits in a few KiB,
  // so no hashing on the replay's hot path. Same for per-pair durations.
  const auto nranks = static_cast<std::size_t>(plan.algo.nranks);
  std::vector<double> endpoint_free(nranks * nranks * 2, 0.0);
  const auto endpoint_key = [nranks](Rank a, Rank b, int dir) {
    return (static_cast<std::size_t>(a) * nranks +
            static_cast<std::size_t>(b)) *
               2 +
           static_cast<std::size_t>(dir);
  };
  std::vector<double> dur_of(nranks * nranks, -1.0);
  // inv_end row t holds task t's end time on each micro-batch.
  std::vector<double> inv_end(static_cast<std::size_t>(ntasks) * kWindow);
  std::array<double, kWindow> deps_done{};
  for (const auto& wave : plan.schedule.sub_pipelines) {
    for (TaskId t : wave) {
      const auto task = static_cast<std::size_t>(t.value);
      const Transfer& tr = plan.algo.transfers[task];
      double& dur = dur_of[static_cast<std::size_t>(tr.src) * nranks +
                           static_cast<std::size_t>(tr.dst)];
      if (dur < 0) {
        const Path& path = topo.PathBetween(tr.src, tr.dst);
        dur = path.latency.us() +
              static_cast<double>(kTimelineChunk.bytes()) /
                  path.bottleneck.bytes_per_us();
      }
      // Latest predecessor end per micro-batch, one contiguous row per
      // predecessor.
      deps_done.fill(0.0);
      for (int pred : plan.preds[task]) {
        const double* row =
            inv_end.data() + static_cast<std::size_t>(pred) * kWindow;
        for (std::size_t m = 0; m < kWindow; ++m) {
          deps_done[m] = std::max(deps_done[m], row[m]);
        }
      }
      double& send_free = endpoint_free[endpoint_key(tr.src, tr.dst, 0)];
      double& recv_free = endpoint_free[endpoint_key(tr.dst, tr.src, 1)];
      double* ends = inv_end.data() + task * kWindow;
      double prev_inv_end = 0.0;
      for (std::size_t m = 0; m < kWindow; ++m) {
        const double begin =
            std::max({send_free, recv_free, prev_inv_end, deps_done[m]});
        const double end = begin + dur;
        ends[m] = end;
        if (m == 0) task_begin[task] = begin;
        task_end[task] = end;
        prev_inv_end = end;
        send_free = end;
        recv_free = end;
      }
    }
  }

  // Regroup each TB's refs into the streams the allocator merged. A TB
  // holds a handful of refs, so a linear scan beats a map; descriptions are
  // formatted only on a hit. The buffers are shared by every TB.
  struct Window {
    double begin = 0;
    double end = 0;
    StreamKey key;
    std::size_t index = 0;  // position in `streams`, the sort's tie-break
  };
  std::vector<Window> streams;
  std::vector<Window> sorted;
  int emitted = 0;
  for (std::size_t i = 0; i < plan.tbs.tbs.size(); ++i) {
    const TbPlan::Tb& tb = plan.tbs.tbs[i];
    streams.clear();
    for (const TbTaskRef& ref : tb.refs) {
      const auto task = static_cast<std::size_t>(ref.task.value);
      const StreamKey key = key_of(ref);
      Window* w = nullptr;
      for (Window& s : streams) {
        if (s.key == key) {
          w = &s;
          break;
        }
      }
      if (w == nullptr) {
        streams.push_back(
            {task_begin[task], task_end[task], key, streams.size()});
      } else {
        w->begin = std::min(w->begin, task_begin[task]);
        w->end = std::max(w->end, task_end[task]);
      }
    }
    if (streams.size() < 2) continue;
    sorted.assign(streams.begin(), streams.end());
    // Stable by begin, without stable_sort's scratch buffer.
    std::sort(sorted.begin(), sorted.end(),
              [](const Window& a, const Window& b) {
                return a.begin < b.begin ||
                       (a.begin == b.begin && a.index < b.index);
              });
    const auto stream_desc = [&tb](const Window& w) {
      const StreamKey& k = w.key;
      std::ostringstream os;
      os << (k.dir == 0 ? "send r" : "recv r")
         << (k.dir == 0 ? tb.rank : k.peer) << "->r"
         << (k.dir == 0 ? k.peer : tb.rank) << " (stage " << k.stage << ")";
      return os.str();
    };
    // With windows sorted by begin, the allocator's strict-overlap predicate
    // (Eq. 7: max(b1,b2) < min(e1,e2)) reduces to "the next stream begins
    // before the furthest end seen so far".
    double max_end = sorted.front().end;
    const Window* max_holder = &sorted.front();
    for (std::size_t k = 1; k < sorted.size(); ++k) {
      const Window& w = sorted[k];
      if (w.begin < max_end && w.begin < w.end) {
        if (emitted++ < kMaxDiagsPerRule) {
          std::ostringstream os;
          os.precision(3);
          os << std::fixed << "tb#" << i << " (r" << tb.rank
             << ") merges stream " << stream_desc(*max_holder) << " active ["
             << max_holder->begin << ", " << max_holder->end
             << ")us with stream " << stream_desc(w) << " active [" << w.begin
             << ", " << w.end
             << ")us — state-based allocation requires disjoint activity "
                "windows (Eq. 7)";
          Emit(report, rules::kTbMerge, "tb#" + std::to_string(i), os.str());
        }
        break;  // one diagnostic per TB is enough
      }
      if (w.end > max_end) {
        max_end = w.end;
        max_holder = &sorted[k];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// channel-capacity: the per-(rank, peer) connection-channel pool
// (TopologySpec::channels_per_peer) must hold every stream the plan opens on
// one (rank, peer, direction) — stage-level execution opens one per stage.
// Compile() validates the configuration and AllocateTbs refuses violating
// plans it builds itself; this rule is the independent check for plans that
// arrive via plan_io.
// ---------------------------------------------------------------------------

void CheckChannelCapacity(const CompiledCollective& plan, const Topology& topo,
                          AnalysisReport& report) {
  const int pool = topo.spec().channels_per_peer;
  // A (rank, peer, dir) key opens at most one stream per stage, and every
  // stage lies in [0, nstages).
  if (PlanStages(plan) <= pool) return;
  // Distinct (rank, peer, dir, stage) endpoints as packed keys; sorted, they
  // group per (rank, peer, dir) in the diagnostics' (rank, peer, dir) order.
  const auto nranks = static_cast<std::uint64_t>(plan.algo.nranks);
  const auto nstages = static_cast<std::uint64_t>(PlanStages(plan));
  std::vector<std::uint64_t> keys;
  for (const TbPlan::Tb& tb : plan.tbs.tbs) {
    for (const TbTaskRef& ref : tb.refs) {
      const Transfer& tr =
          plan.algo.transfers[static_cast<std::size_t>(ref.task.value)];
      const Rank peer = ref.dir == Direction::kSend ? tr.dst : tr.src;
      const std::uint64_t dir = ref.dir == Direction::kSend ? 0 : 1;
      const std::uint64_t stream =
          (static_cast<std::uint64_t>(tb.rank) * nranks +
           static_cast<std::uint64_t>(peer)) * 2 + dir;
      const auto stage =
          static_cast<std::uint64_t>(StageOf(plan, ref.task.value));
      keys.push_back(stream * nstages + stage);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  int emitted = 0;
  for (std::size_t lo = 0; lo < keys.size();) {
    const std::uint64_t stream = keys[lo] / nstages;
    std::size_t hi = lo;
    while (hi < keys.size() && keys[hi] / nstages == stream) ++hi;
    const std::size_t opened = hi - lo;
    lo = hi;
    if (static_cast<int>(opened) <= pool) continue;
    if (emitted++ >= kMaxDiagsPerRule) break;
    const auto rank = static_cast<Rank>(stream / 2 / nranks);
    const auto peer = static_cast<Rank>(stream / 2 % nranks);
    const bool send = stream % 2 == 0;
    std::ostringstream os;
    os << (send ? "send r" : "recv r") << (send ? rank : peer) << "->r"
       << (send ? peer : rank) << " opens " << opened
       << " streams (one per stage) but the per-peer channel pool holds "
          "only "
       << pool;
    Emit(report, rules::kChannelCapacity, "r" + std::to_string(rank),
         os.str());
  }
}

// Everything after the structure pass, shared by both AnalyzePlan overloads.
// `lowered` may be null when the plan is not lowerable — the lowered-program
// checks are skipped and the static passes still run.
void RunPlanChecks(const CompiledCollective& plan,
                   const LoweredProgram* lowered, const Topology* topo,
                   const StructureVerdict& v, AnalysisReport& report) {
  // Hazard and postcondition walk the same (chunk, step) task order; the
  // first of them to run builds it.
  StepOrder step_order;
  const auto steps = [&]() -> const StepOrder& {
    if (!step_order.built()) step_order = BuildStepOrder(plan.algo);
    return step_order;
  };
  if (v.algo_ok && v.preds_ok) {
    TimeRule(report, rules::kHazard,
             [&] { CheckHazards(plan, steps(), report); });
  }
  if (v.algo_ok) {
    TimeRule(report, rules::kPostcondition,
             [&] { CheckPostcondition(plan, steps(), report); });
  }
  // The lowered-program structure pass reports under rule `structure` but
  // is timed on its own.
  if (lowered != nullptr && v.algo_ok &&
      TimeRule(report, kLoweredStructureTiming, [&] {
        return CheckLoweredStructure(plan, lowered->program, report);
      })) {
    TimeRule(report, rules::kRendezvous,
             [&] { CheckRendezvous(lowered->program, report); });
    TimeRule(report, rules::kDeadlock,
             [&] { CheckDeadlock(lowered->program, report); });
  }
  // The tb-merge replay walks plan.preds, so it needs the whole static
  // verdict, not just a sound TB plan.
  if (topo != nullptr && v.lowerable()) {
    TimeRule(report, rules::kTbMerge,
             [&] { CheckTbMerge(plan, *topo, report); });
    report.tb_merge_checked = true;
    TimeRule(report, rules::kChannelCapacity,
             [&] { CheckChannelCapacity(plan, *topo, report); });
  }
}

}  // namespace

int AnalysisReport::errors() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kError) ++n;
  }
  return n;
}

int AnalysisReport::warnings() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kWarning) ++n;
  }
  return n;
}

int AnalysisReport::advice() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kAdvice) ++n;
  }
  return n;
}

std::string AnalysisReport::Summary() const {
  if (clean()) {
    std::string s = "clean";
    if (!tb_merge_checked) s += " (tb-merge skipped: no topology)";
    return s;
  }
  const Diagnostic* first = nullptr;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kError) {
      first = &d;
      break;
    }
  }
  std::string s = std::to_string(errors()) + " error(s); first: [" +
                  first->rule_id + "] " + first->location + ": " +
                  first->witness;
  constexpr std::size_t kMaxLen = 240;
  if (s.size() > kMaxLen) {
    s.resize(kMaxLen - 3);
    s += "...";
  }
  return s;
}

AnalysisReport AnalyzePlan(const CompiledCollective& plan,
                           const LoweredProgram& lowered,
                           const Topology* topo) {
  const auto t0 = std::chrono::steady_clock::now();
  AnalysisReport report;
  const StructureVerdict v = TimeRule(report, rules::kStructure, [&] {
    return CheckStructure(plan, topo, report);
  });
  RunPlanChecks(plan, &lowered, topo, v, report);
  report.analysis_us = ElapsedUs(t0);
  return report;
}

AnalysisReport AnalyzePlan(const CompiledCollective& plan,
                           const Topology* topo) {
  const auto t0 = std::chrono::steady_clock::now();
  AnalysisReport report;
  const StructureVerdict v = TimeRule(report, rules::kStructure, [&] {
    return CheckStructure(plan, topo, report);
  });
  if (!v.lowerable()) {
    // A plan whose shape would trip Lower()'s internal invariants gets its
    // diagnostics from the static passes alone.
    RunPlanChecks(plan, nullptr, topo, v, report);
    report.analysis_us = ElapsedUs(t0);
    return report;
  }
  // Canonical launch: two micro-batches are enough to exercise every
  // cross-micro-batch interleaving shape the lowering can produce.
  const CostModel cost;
  LaunchConfig launch;
  launch.chunk = Size::KiB(1);
  launch.buffer = Size::KiB(2 * std::max(1, plan.algo.nchunks));
  const LoweredProgram lowered =
      TimeRule(report, "lower", [&] { return Lower(plan, cost, launch); });
  RunPlanChecks(plan, &lowered, topo, v, report);
  report.analysis_us = ElapsedUs(t0);
  return report;
}

std::string AnalysisReportToJson(const AnalysisReport& report) {
  std::ostringstream os;
  os << "{\"clean\":" << (report.clean() ? "true" : "false")
     << ",\"errors\":" << report.errors()
     << ",\"warnings\":" << report.warnings()
     << ",\"advice\":" << report.advice() << ",\"analysis_us\":"
     << obs::FormatDouble(report.analysis_us) << ",\"tb_merge_checked\":"
     << (report.tb_merge_checked ? "true" : "false") << ",\"rule_us\":{";
  for (std::size_t i = 0; i < report.rule_us.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << report.rule_us[i].rule
       << "\":" << obs::FormatDouble(report.rule_us[i].us);
  }
  os << "},\"diagnostics\":[";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i > 0) os << ",";
    os << "{\"severity\":\"" << DiagSeverityName(d.severity)
       << "\",\"rule\":\"" << obs::EscapeJson(d.rule_id)
       << "\",\"location\":\"" << obs::EscapeJson(d.location)
       << "\",\"witness\":\"" << obs::EscapeJson(d.witness) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace resccl
