// Thread-block execution machine.
//
// Executes a SimProgram: a set of thread blocks, each running a straight-line
// sequence of primitive instructions, plus the transfer declarations those
// instructions realize. A transfer needs its sender-side and receiver-side
// instructions to rendezvous and its data dependencies (predecessor
// transfers of the same micro-batch) to complete before it can occupy the
// network; while blocked the TB accrues *sync* time — the busy-wait the
// paper charges against rigid TB allocation (§2.2, Fig. 2b).
//
// The machine is deliberately independent of the scheduler: backends lower
// their execution strategy (algorithm-, stage-, or task-level) into this one
// IR, so all three run on identical mechanics and differ only in program
// shape — exactly the comparison the paper draws.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/fluid.h"
#include "topology/topology.h"

namespace resccl {

class FaultPlan;

// One chunk movement between two GPUs for one micro-batch.
struct SimTransferDecl {
  Rank src = kInvalidRank;
  Rank dst = kInvalidRank;
  std::int64_t bytes = 0;
  bool is_reduce = false;           // receiver runs recvReduceCopy
  // Startup latency override in us; negative means "use the path's α
  // scaled by latency_scale". ResCCL's generated kernels run all
  // micro-batch invocations of one primitive in a single pass (§4.5), so
  // invocations after the first only pay a FIFO slot-sync, not the full
  // handshake; flag-based protocols (LL/LL128) scale the handshake down.
  // `latency_extra_us` is added on top of either branch: the protocol's
  // per-slot flag-synchronization cost for this invocation's wire bytes
  // (CostModel::SlotSyncCost), charged whether or not the α was overridden.
  double latency_us = -1.0;
  double latency_scale = 1.0;
  double latency_extra_us = 0.0;
  std::vector<int> deps;            // indices of transfers that must finish first
};

// One instruction in a TB's program.
struct SimInstr {
  enum class Kind : std::uint8_t { kSendSide, kRecvSide, kBarrier };
  Kind kind = Kind::kSendSide;
  int transfer = -1;                // for send/recv sides
  int barrier = -1;                 // for barriers
  SimTime overhead;                 // issue/decode cost paid before arrival
};

struct SimTb {
  Rank rank = kInvalidRank;
  int warps = 16;
  // Fraction of the TB's copy throughput available to data movement; an
  // interpreted runtime spends the rest on control flow (Fig. 3).
  double injection_scale = 1.0;
  std::vector<SimInstr> program;
};

struct SimProgram {
  std::vector<SimTransferDecl> transfers;
  std::vector<SimTb> tbs;
  std::vector<int> barrier_parties;  // barrier index -> participant count
};

struct TbStats {
  Rank rank = kInvalidRank;
  SimTime busy;        // transfers in flight (α + byte phase)
  SimTime sync;        // blocked on rendezvous / dependencies / barriers
  SimTime overhead;    // primitive issue + interpreter decode
  SimTime fault_stall; // injected straggler pauses (kept distinct from sync)
  SimTime finish;      // completion (= release) time of the TB's last instr
};

struct TransferStats {
  SimTime start;      // network occupation begins (after sync resolved)
  SimTime complete;
  // Attribution inputs for the observability layer (obs/critical_path.h):
  // who rendezvoused and when, the effective startup latency α (protocol-
  // scaled and fault-jittered), the bytes actually pushed onto the wire
  // (after reduce/protocol inflation), and the best rate the transfer could
  // have sustained alone — min(injection cap, unfaulted path bottleneck) in
  // bytes/us. Anything slower than that in the realized [start, complete]
  // span is contention (γ·L(z) sharing or fault capacity loss).
  int send_tb = -1;
  int recv_tb = -1;
  SimTime send_arrival;
  SimTime recv_arrival;
  SimTime latency;
  std::int64_t wire_bytes = 0;
  double ideal_rate = 0.0;
};

// What the machine observed when a run could make no further progress.
// The witness uses the shared wait-for vocabulary of sim/witness.h — the
// same one the static analyzer (analysis/analyzer.h) emits — so a dynamic
// deadlock can be diffed against a statically predicted one: one
// "; "-separated line per blocked TB naming the instruction it is parked on
// and the edge it waits across.
struct DeadlockReport {
  Status status;                     // kFailedPrecondition, full description
  std::string witness;               // per-TB wait-for lines
  std::vector<int> stuck_transfers;  // declarations that never completed
};

// Thrown by SimMachine::Run on deadlock. It is a std::runtime_error whose
// what() carries the report's witness; report() has the structured form.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(DeadlockReport report);
  [[nodiscard]] const DeadlockReport& report() const { return report_; }

 private:
  DeadlockReport report_;
};

struct SimRunReport {
  // One injected straggler pause, for trace export and fault accounting.
  struct StallSlice {
    int tb = 0;
    SimTime start;
    SimTime duration;
  };

  // One record per TB per barrier passage: when the TB parked and when the
  // barrier released everyone. The last arriver's park equals the release —
  // which is exactly how the critical-path analyzer identifies whom a
  // barrier wait should be blamed on.
  struct BarrierWait {
    int tb = 0;
    int barrier = 0;
    SimTime park;
    SimTime release;
  };

  // One contiguous span of one TB's lifetime. Only recorded with
  // set_observe(true); the machine emits them incrementally as events
  // resolve (transfer completion, barrier release, stall expiry), so the
  // critical-path analyzer (obs/critical_path.h) consumes them directly
  // and requires them. Per TB the spans are chronological, zero-length
  // spans are dropped, and the stored spans tile [0, finish] exactly.
  struct TimelineSegment {
    enum class Kind : std::uint8_t { kOverhead, kSync, kInflight, kStall };
    Kind kind = Kind::kSync;
    bool is_send = false;
    int transfer = -1;  // inflight / transfer-sync / transfer-overhead spans
    int barrier = -1;   // barrier-sync spans
    SimTime begin;
    SimTime end;
  };

  SimTime makespan;
  std::vector<TbStats> tbs;
  std::vector<TransferStats> transfers;
  std::vector<StallSlice> stalls;  // empty on clean runs
  std::vector<BarrierWait> barrier_waits;
  std::vector<std::vector<TimelineSegment>> segments;  // per TB, observe only

  // Per-resource carried-bytes / busy-time totals, indexed by ResourceId.
  // Always recorded (one entry per topology resource).
  std::vector<FluidNetwork::ResourceUsage> link_usage;
  // Exact piecewise-constant aggregate-rate deltas per resource, only
  // recorded when SimMachine::set_observe(true) (obs/timeline.h replays
  // them into utilization timelines).
  std::vector<FluidNetwork::RateDelta> link_rates;

  // Event-loop accounting for the perf harness (`micro sim`): events
  // actually fired by the queue, and the fluid model's re-rate counters.
  // Both are fully deterministic for a given (program, faults) pair.
  std::uint64_t events = 0;
  FluidNetwork::Stats fluid;
  // Queue mechanics (heap pops, stale entries skipped, peak heap size) —
  // deterministic as well; surfaced as sim.events.* in the obs registry.
  EventQueue::Stats queue;

  // Per-TB idle fraction: sync / finish (§5.4's "idle ratio").
  [[nodiscard]] double AvgIdleRatio() const;
  [[nodiscard]] double MaxIdleRatio() const;
  // Mean busy fraction: busy / finish ("comm time" in Table 3).
  [[nodiscard]] double AvgBusyRatio() const;
};

class SimMachine {
 public:
  SimMachine(const Topology& topo, const CostModel& cost);
  ~SimMachine();  // out-of-line: members hold nested types private to the .cc
  SimMachine(const SimMachine&) = delete;
  SimMachine& operator=(const SimMachine&) = delete;

  // Arms the per-resource rate log for the next Run (SimRunReport::
  // link_rates). Everything else the observability layer needs — transfer
  // attribution fields, barrier waits, link usage totals — is recorded
  // unconditionally; the rate log is the only part with a per-event cost.
  void set_observe(bool on) { observe_ = on; }

  // Runs the program to completion. Throws DeadlockError (derived from
  // std::runtime_error) carrying a DeadlockReport if the program deadlocks
  // (a transfer never becomes eligible).
  // `faults` (optional, unowned, must outlive the call) perturbs this run
  // only: link capacity windows, latency jitter, and straggler stalls —
  // timing changes, never data movement.
  [[nodiscard]] SimRunReport Run(const SimProgram& program,
                                 const FaultPlan* faults = nullptr);

  // Allocation-free variant: assembles the report into `out`, reusing its
  // vectors' capacity, and reuses the machine's own event queue and fluid
  // network across calls (Reset, not reconstruction). After a warm-up run
  // of the same program shape, a RunInto performs no heap allocation with
  // observe off (tests/test_alloc_free.cc holds this under a counting
  // allocator). Run() forwards here with a fresh report.
  void RunInto(const SimProgram& program, const FaultPlan* faults,
               SimRunReport& out);

  // Resource accounting of the last Run (valid until the next Run).
  [[nodiscard]] const FluidNetwork& network() const;

 private:
  struct TransferState;
  struct TbState;
  struct BarrierState;

  void AdvanceTb(std::size_t tb, SimTime now);
  void Arrive(std::size_t tb, std::size_t instr, SimTime now);
  // Appends one timeline span to `tb`'s stream (observe mode); zero-length
  // spans are dropped, matching the analyzer's replay.
  void EmitSegment(std::size_t tb, SimRunReport::TimelineSegment::Kind kind,
                   SimTime begin, SimTime end, int transfer, int barrier,
                   bool is_send);
  void TryStart(std::size_t transfer, SimTime now);
  void OnTransferComplete(std::size_t transfer, SimTime now);
  void AccumulateBusy(std::size_t tb, SimTime start, SimTime end);
  void ReleaseTb(std::size_t tb, SimTime now);
  [[nodiscard]] DeadlockReport BuildDeadlockReport() const;

  const Topology& topo_;
  const CostModel& cost_;
  const SimProgram* program_ = nullptr;
  const FaultPlan* faults_ = nullptr;

  std::optional<EventQueue> queue_;
  std::optional<FluidNetwork> net_;
  std::vector<TransferState> transfers_;
  // Dependent edges in CSR form: transfer t's dependents are
  // dep_edges_[dep_heads_[t] .. dep_heads_[t+1]) — one shared pool instead
  // of a heap vector per transfer (rebuilt per run, capacity reused).
  std::vector<std::uint32_t> dep_heads_;
  std::vector<std::int32_t> dep_edges_;
  std::vector<std::uint32_t> dep_fill_;  // build scratch
  std::vector<TbState> tbs_;
  std::vector<BarrierState> barriers_;
  std::vector<SimRunReport::StallSlice> stall_slices_;
  std::vector<SimRunReport::BarrierWait> barrier_waits_;
  // Incremental per-TB timeline (observe mode): spans are appended as their
  // resolving event fires and swapped into the report at the end.
  std::vector<std::vector<SimRunReport::TimelineSegment>> segments_;
  int unfinished_tbs_ = 0;
  bool observe_ = false;
};

}  // namespace resccl
