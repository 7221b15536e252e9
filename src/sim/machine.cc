#include "sim/machine.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "sim/faults.h"
#include "sim/witness.h"

namespace resccl {

int SimProgram::AddTransfer(const SimTransferDecl& decl,
                            std::span<const int> decl_deps) {
  transfers.push_back(decl);
  deps.insert(deps.end(), decl_deps.begin(), decl_deps.end());
  dep_begin.push_back(static_cast<int>(deps.size()));
  return static_cast<int>(transfers.size()) - 1;
}

DeadlockError::DeadlockError(DeadlockReport report)
    : std::runtime_error("SimMachine deadlock: " + report.witness),
      report_(std::move(report)) {}

struct SimMachine::TransferState {
  const Path* path = nullptr;
  int deps_remaining = 0;
  // Rendezvous bookkeeping: which TB arrived on each side, and when.
  // (Dependent edges live in the machine's shared CSR pool, not here —
  // keeping this struct allocation-free so the per-run assign reuses the
  // vector's buffer without touching the heap.)
  std::size_t send_tb = SIZE_MAX;
  std::size_t recv_tb = SIZE_MAX;
  SimTime send_arrival;
  SimTime recv_arrival;
  Bandwidth injection_cap;           // min of the two TBs' capability
  bool started = false;
  bool completed = false;
  TransferStats stats;
};

struct SimMachine::TbState {
  std::size_t pc = 0;                // next instruction
  bool blocked = false;              // waiting inside a transfer or barrier
  FaultPlan::Stall stall;            // injected pause (duration zero: none)
  bool stall_pending = false;
  SimTime seg_cursor;                // end of the TB's last emitted segment
  TbStats stats;
};

struct SimMachine::BarrierState {
  int waiting = 0;
  std::vector<std::size_t> parked;   // TB indices blocked at the barrier
  std::vector<SimTime> parked_since;
};

SimMachine::SimMachine(const Topology& topo, const CostModel& cost)
    : topo_(topo), cost_(cost) {}

SimMachine::~SimMachine() = default;

const FluidNetwork& SimMachine::network() const {
  RESCCL_CHECK_MSG(net_.has_value(), "network() before Run()");
  return *net_;
}

SimRunReport SimMachine::Run(const SimProgram& program,
                             const FaultPlan* faults) {
  SimRunReport report;
  RunInto(program, faults, report);
  return report;
}

void SimMachine::RunInto(const SimProgram& program, const FaultPlan* faults,
                         SimRunReport& out) {
  program_ = &program;
  faults_ = (faults != nullptr && !faults->empty()) ? faults : nullptr;
  stall_slices_.clear();
  barrier_waits_.clear();
  // Reuse the queue and the network across runs: both Reset to their
  // just-constructed state while keeping every warmed buffer, so a repeated
  // same-shaped run touches no allocator. (A deadlocked previous run left
  // live flows behind; FluidNetwork::Reset handles that too.)
  if (!queue_.has_value()) {
    queue_.emplace();
    net_.emplace(topo_, cost_, *queue_, faults_);
  } else {
    queue_->Reset();
    net_->Reset(faults_);
  }
  if (observe_) net_->EnableRateLog();

  const std::size_t nt = program.transfers.size();
  RESCCL_CHECK_MSG(program.dep_begin.size() == nt + 1 &&
                       program.dep_begin.front() == 0 &&
                       static_cast<std::size_t>(program.dep_begin.back()) ==
                           program.deps.size() &&
                       std::is_sorted(program.dep_begin.begin(),
                                      program.dep_begin.end()),
                   "malformed dependency CSR");
  transfers_.assign(nt, {});
  dep_heads_.assign(nt + 1, 0);
  for (std::size_t t = 0; t < nt; ++t) {
    const SimTransferDecl& decl = program.transfers[t];
    RESCCL_CHECK_MSG(decl.src != decl.dst, "transfer " << t << " is a self-loop");
    RESCCL_CHECK(decl.bytes > 0);
    TransferState& st = transfers_[t];
    st.path = &topo_.PathBetween(decl.src, decl.dst);
    const std::span<const int> deps = program.DepsOf(t);
    st.deps_remaining = static_cast<int>(deps.size());
    for (int d : deps) {
      RESCCL_CHECK(d >= 0 && static_cast<std::size_t>(d) < nt);
      ++dep_heads_[static_cast<std::size_t>(d) + 1];
    }
  }
  // Counting pass -> prefix sum -> fill: the classic CSR build, with the
  // cursor copy in reusable scratch.
  for (std::size_t t = 0; t < nt; ++t) dep_heads_[t + 1] += dep_heads_[t];
  dep_edges_.resize(dep_heads_[nt]);
  dep_fill_.assign(dep_heads_.begin(), dep_heads_.end() - 1);
  for (std::size_t t = 0; t < nt; ++t) {
    for (int d : program.DepsOf(t)) {
      dep_edges_[dep_fill_[static_cast<std::size_t>(d)]++] =
          static_cast<std::int32_t>(t);
    }
  }

  tbs_.assign(program.tbs.size(), {});
  for (std::size_t i = 0; i < program.tbs.size(); ++i) {
    tbs_[i].stats.rank = program.tbs[i].rank;
    if (faults_ != nullptr) {
      tbs_[i].stall = faults_->StallFor(
          static_cast<int>(i), static_cast<int>(program.tbs[i].program.size()));
      tbs_[i].stall_pending = tbs_[i].stall.duration > SimTime::Zero();
    }
  }
  barriers_.resize(program.barrier_parties.size());
  for (BarrierState& bar : barriers_) {
    bar.waiting = 0;
    bar.parked.clear();
    bar.parked_since.clear();
  }
  if (observe_) {
    segments_.resize(program.tbs.size());
    for (std::vector<SimRunReport::TimelineSegment>& s : segments_) s.clear();
  }
  unfinished_tbs_ = static_cast<int>(program.tbs.size());

  // Kick every TB off at t = 0.
  for (std::size_t i = 0; i < tbs_.size(); ++i) {
    queue_->Schedule(SimTime::Zero(),
                     [this, i](SimTime now) { AdvanceTb(i, now); });
  }

  // Drain in timestamp batches: one pop loop per distinct simulated time
  // (plus one advance-hook consultation), instead of re-establishing the
  // heap front per event.
  while (queue_->RunBatch() != 0) {
  }

  if (unfinished_tbs_ != 0) {
    throw DeadlockError(BuildDeadlockReport());
  }

  out.makespan = SimTime::Zero();
  out.tbs.clear();
  out.tbs.reserve(tbs_.size());
  for (const TbState& tb : tbs_) {
    out.makespan = std::max(out.makespan, tb.stats.finish);
    out.tbs.push_back(tb.stats);
  }
  out.transfers.clear();
  out.transfers.reserve(transfers_.size());
  for (const TransferState& t : transfers_) {
    out.transfers.push_back(t.stats);
  }
  out.stalls.assign(stall_slices_.begin(), stall_slices_.end());
  out.barrier_waits.assign(barrier_waits_.begin(), barrier_waits_.end());
  if (observe_) {
    // Hand the streams over wholesale; with a reused report the buffers
    // ping-pong between the machine and the report, both staying warm.
    out.segments.swap(segments_);
  } else {
    out.segments.clear();
  }
  const std::span<const FluidNetwork::ResourceUsage> usage = net_->all_usage();
  out.link_usage.assign(usage.begin(), usage.end());
  out.link_rates.clear();
  if (observe_) out.link_rates = net_->TakeRateLog();
  out.events = queue_->events_fired();
  out.fluid = net_->stats();
  out.queue = queue_->stats();
}

void SimMachine::AdvanceTb(std::size_t tb, SimTime now) {
  TbState& state = tbs_[tb];
  state.blocked = false;
  const SimTb& decl = program_->tbs[tb];
  if (state.pc >= decl.program.size()) {
    state.stats.finish = now;
    --unfinished_tbs_;
    return;
  }
  // Injected straggler pause: the TB stops dead before this instruction.
  // Charged to fault_stall, not sync — the TB is not waiting on a peer.
  if (state.stall_pending &&
      state.pc == static_cast<std::size_t>(state.stall.before_instr)) {
    state.stall_pending = false;
    state.stats.fault_stall += state.stall.duration;
    stall_slices_.push_back(
        {static_cast<int>(tb), now, state.stall.duration});
    if (observe_) {
      EmitSegment(tb, SimRunReport::TimelineSegment::Kind::kStall, now,
                  now + state.stall.duration, -1, -1, false);
      state.seg_cursor = now + state.stall.duration;
    }
    queue_->Schedule(now + state.stall.duration,
                     [this, tb](SimTime t) { AdvanceTb(tb, t); });
    return;
  }
  const SimInstr& instr = decl.program[state.pc];
  ++state.pc;
  if (instr.overhead > SimTime::Zero()) {
    state.stats.overhead += instr.overhead;
    const std::size_t pc = state.pc - 1;
    queue_->Schedule(now + instr.overhead, [this, tb, pc](SimTime t) {
      Arrive(tb, pc, t);
    });
  } else {
    Arrive(tb, state.pc - 1, now);
  }
}

void SimMachine::Arrive(std::size_t tb, std::size_t instr_index, SimTime now) {
  const SimInstr& instr = program_->tbs[tb].program[instr_index];
  TbState& state = tbs_[tb];

  if (instr.kind == SimInstr::Kind::kBarrier) {
    RESCCL_CHECK(instr.barrier >= 0 &&
                 static_cast<std::size_t>(instr.barrier) < barriers_.size());
    BarrierState& bar = barriers_[static_cast<std::size_t>(instr.barrier)];
    bar.parked.push_back(tb);
    bar.parked_since.push_back(now);
    state.blocked = true;
    ++bar.waiting;
    const int parties =
        program_->barrier_parties[static_cast<std::size_t>(instr.barrier)];
    RESCCL_CHECK_MSG(bar.waiting <= parties, "barrier over-subscribed");
    if (bar.waiting == parties) {
      for (std::size_t i = 0; i < bar.parked.size(); ++i) {
        const std::size_t peer = bar.parked[i];
        tbs_[peer].stats.sync += now - bar.parked_since[i];
        barrier_waits_.push_back({static_cast<int>(peer), instr.barrier,
                                  bar.parked_since[i], now});
        if (observe_) {
          using Kind = SimRunReport::TimelineSegment::Kind;
          EmitSegment(peer, Kind::kOverhead, tbs_[peer].seg_cursor,
                      bar.parked_since[i], -1, -1, false);
          EmitSegment(peer, Kind::kSync, bar.parked_since[i], now, -1,
                      instr.barrier, false);
          tbs_[peer].seg_cursor = now;
        }
        queue_->Schedule(now,
                         [this, peer](SimTime t) { AdvanceTb(peer, t); });
      }
      bar.parked.clear();
      bar.parked_since.clear();
      bar.waiting = 0;
    }
    return;
  }

  RESCCL_CHECK(instr.transfer >= 0 &&
               static_cast<std::size_t>(instr.transfer) < transfers_.size());
  const auto tid = static_cast<std::size_t>(instr.transfer);
  TransferState& tr = transfers_[tid];
  RESCCL_CHECK_MSG(!tr.started, "transfer joined after it started");
  const SimTransferDecl& decl = program_->transfers[tid];
  const Bandwidth tb_cap =
      cost_.TbInjectionCap(tr.path->kind, program_->tbs[tb].warps) *
      program_->tbs[tb].injection_scale;
  if (instr.kind == SimInstr::Kind::kSendSide) {
    RESCCL_CHECK_MSG(tr.send_tb == SIZE_MAX,
                     "two send sides for one transfer");
    RESCCL_CHECK_MSG(program_->tbs[tb].rank == decl.src,
                     "send side on wrong rank");
    tr.send_tb = tb;
    tr.send_arrival = now;
    tr.stats.send_tb = static_cast<int>(tb);
    tr.stats.send_arrival = now;
  } else {
    RESCCL_CHECK_MSG(tr.recv_tb == SIZE_MAX,
                     "two recv sides for one transfer");
    RESCCL_CHECK_MSG(program_->tbs[tb].rank == decl.dst,
                     "recv side on wrong rank");
    tr.recv_tb = tb;
    tr.recv_arrival = now;
    tr.stats.recv_tb = static_cast<int>(tb);
    tr.stats.recv_arrival = now;
  }
  if (tr.injection_cap == Bandwidth()) {
    tr.injection_cap = tb_cap;
  } else {
    tr.injection_cap = std::min(tr.injection_cap, tb_cap);
  }
  state.blocked = true;
  TryStart(tid, now);
}

void SimMachine::TryStart(std::size_t transfer, SimTime now) {
  TransferState& tr = transfers_[transfer];
  if (tr.started || tr.send_tb == SIZE_MAX || tr.recv_tb == SIZE_MAX ||
      tr.deps_remaining > 0) {
    return;
  }
  tr.started = true;
  tr.stats.start = now;
  // Charge the rendezvous/dependency wait as sync time on both sides.
  tbs_[tr.send_tb].stats.sync += now - tr.send_arrival;
  tbs_[tr.recv_tb].stats.sync += now - tr.recv_arrival;

  const SimTransferDecl& decl = program_->transfers[transfer];
  // recvReduceCopy runs the reduction inline with the copy; model it as
  // proportionally more bytes through the same pipe.
  const double inflate = decl.is_reduce ? 1.0 + cost_.reduce_overhead : 1.0;
  const auto bytes = static_cast<std::int64_t>(
      static_cast<double>(decl.bytes) * inflate);

  // Startup latency α (stretched by any injected jitter), then the fluid
  // byte phase. The protocol's per-slot flag syncs ride on top of either
  // the overridden or the path-derived handshake.
  SimTime latency = (decl.latency_us >= 0.0
                         ? SimTime::Us(decl.latency_us)
                         : tr.path->latency * decl.latency_scale) +
                    SimTime::Us(decl.latency_extra_us);
  if (faults_ != nullptr) {
    latency = latency * faults_->LatencyScale(static_cast<int>(transfer));
  }
  tr.stats.latency = latency;
  tr.stats.wire_bytes = bytes;
  tr.stats.ideal_rate = std::min(tr.injection_cap.bytes_per_us(),
                                 tr.path->bottleneck.bytes_per_us());
  queue_->Schedule(now + latency, [this, transfer, bytes](SimTime t0) {
    TransferState& state = transfers_[transfer];
    net_->StartFlow(*state.path, bytes, state.injection_cap,
                    [this, transfer](SimTime t1) {
                      OnTransferComplete(transfer, t1);
                    });
    (void)t0;
  });
}

void SimMachine::OnTransferComplete(std::size_t transfer, SimTime now) {
  TransferState& tr = transfers_[transfer];
  tr.completed = true;
  tr.stats.complete = now;
  const SimTime busy = now - tr.stats.start;
  tbs_[tr.send_tb].stats.busy += busy;
  tbs_[tr.recv_tb].stats.busy += busy;
  if (observe_) {
    // The whole overhead/sync/inflight tiling of both sides is resolved
    // now that the completion time is known; emit it in one go (the TB
    // was blocked in this transfer the entire time, so its stream stays
    // chronological).
    using Kind = SimRunReport::TimelineSegment::Kind;
    const int tid = static_cast<int>(transfer);
    EmitSegment(tr.send_tb, Kind::kOverhead, tbs_[tr.send_tb].seg_cursor,
                tr.stats.send_arrival, tid, -1, true);
    EmitSegment(tr.send_tb, Kind::kSync, tr.stats.send_arrival,
                tr.stats.start, tid, -1, true);
    EmitSegment(tr.send_tb, Kind::kInflight, tr.stats.start, now, tid, -1,
                true);
    tbs_[tr.send_tb].seg_cursor = now;
    EmitSegment(tr.recv_tb, Kind::kOverhead, tbs_[tr.recv_tb].seg_cursor,
                tr.stats.recv_arrival, tid, -1, false);
    EmitSegment(tr.recv_tb, Kind::kSync, tr.stats.recv_arrival,
                tr.stats.start, tid, -1, false);
    EmitSegment(tr.recv_tb, Kind::kInflight, tr.stats.start, now, tid, -1,
                false);
    tbs_[tr.recv_tb].seg_cursor = now;
  }

  for (std::uint32_t e = dep_heads_[transfer]; e < dep_heads_[transfer + 1];
       ++e) {
    const auto dep = static_cast<std::size_t>(dep_edges_[e]);
    TransferState& d = transfers_[dep];
    --d.deps_remaining;
    RESCCL_CHECK(d.deps_remaining >= 0);
    TryStart(dep, now);
  }
  const std::size_t send_tb = tr.send_tb;
  const std::size_t recv_tb = tr.recv_tb;
  queue_->Schedule(now, [this, send_tb](SimTime t) { AdvanceTb(send_tb, t); });
  queue_->Schedule(now, [this, recv_tb](SimTime t) { AdvanceTb(recv_tb, t); });
}

void SimMachine::EmitSegment(std::size_t tb,
                             SimRunReport::TimelineSegment::Kind kind,
                             SimTime begin, SimTime end, int transfer,
                             int barrier, bool is_send) {
  RESCCL_CHECK_MSG(end >= begin, "segment runs backwards");
  if (end > begin) {
    segments_[tb].push_back({kind, is_send, transfer, barrier, begin, end});
  }
}

DeadlockReport SimMachine::BuildDeadlockReport() const {
  // One wait-for line per blocked TB: which instruction it is parked on and
  // what edge keeps it from releasing — the dynamic frontier of the same
  // wait-for graph the static analyzer walks (analysis/analyzer.cc).
  std::ostringstream os;
  os << unfinished_tbs_ << " TB(s) never finished";
  int listed = 0;
  constexpr int kMaxLines = 16;
  for (std::size_t i = 0; i < tbs_.size(); ++i) {
    const TbState& state = tbs_[i];
    if (!state.blocked) continue;  // finished (or was never started)
    if (++listed > kMaxLines) {
      os << "; ...";
      break;
    }
    os << "; tb#" << i << "(r" << program_->tbs[i].rank << ") blocked at ";
    RESCCL_CHECK(state.pc > 0);
    const SimInstr& instr = program_->tbs[i].program[state.pc - 1];
    if (instr.kind == SimInstr::Kind::kBarrier) {
      const auto b = static_cast<std::size_t>(instr.barrier);
      os << WitnessBarrier(instr.barrier) << ": " << barriers_[b].waiting
         << "/" << program_->barrier_parties[b] << " arrived "
         << WitnessBarrierEdge();
      continue;
    }
    const auto tid = static_cast<std::size_t>(instr.transfer);
    const TransferState& tr = transfers_[tid];
    os << WitnessTransfer(*program_, instr.transfer) << ":";
    if (tr.send_tb == SIZE_MAX) os << " no sender joined";
    if (tr.recv_tb == SIZE_MAX) os << " no receiver joined";
    if (tr.deps_remaining > 0) {
      os << " waits";
      int shown = 0;
      for (int d : program_->DepsOf(tid)) {
        if (transfers_[static_cast<std::size_t>(d)].completed) continue;
        if (++shown > 4) {
          os << " ...";
          break;
        }
        os << " " << WitnessDataDep() << " " << WitnessTransfer(*program_, d);
      }
    }
    if (tr.started && !tr.completed) os << " in flight";
  }

  DeadlockReport report;
  report.witness = os.str();
  report.status = Status::FailedPrecondition("SimMachine deadlock: " +
                                             report.witness);
  for (std::size_t t = 0; t < transfers_.size(); ++t) {
    if (!transfers_[t].completed) {
      report.stuck_transfers.push_back(static_cast<int>(t));
    }
  }
  return report;
}

double SimRunReport::AvgIdleRatio() const {
  if (tbs.empty()) return 0.0;
  double sum = 0.0;
  for (const TbStats& tb : tbs) {
    if (tb.finish > SimTime::Zero()) sum += tb.sync / tb.finish;
  }
  return sum / static_cast<double>(tbs.size());
}

double SimRunReport::MaxIdleRatio() const {
  double best = 0.0;
  for (const TbStats& tb : tbs) {
    if (tb.finish > SimTime::Zero()) {
      best = std::max(best, tb.sync / tb.finish);
    }
  }
  return best;
}

double SimRunReport::AvgBusyRatio() const {
  if (tbs.empty()) return 0.0;
  double sum = 0.0;
  for (const TbStats& tb : tbs) {
    if (tb.finish > SimTime::Zero()) sum += tb.busy / tb.finish;
  }
  return sum / static_cast<double>(tbs.size());
}

}  // namespace resccl
