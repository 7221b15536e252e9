#include "obs/critical_path.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace resccl::obs {

namespace {

// Absolute-or-relative closeness for reconstructed time sums: the machine
// assigns event times (never re-derives them), so reconstruction error is
// pure floating-point reassociation — a handful of ulps per term.
bool ApproxEq(SimTime a, SimTime b) {
  const double diff = std::abs((a - b).us());
  return diff <= 1e-9 * std::max(1.0, std::abs(b.us()));
}

// The machine's own span vocabulary (sim/machine.h): one contiguous span of
// a TB's lifetime, zero-length spans not stored, the stored spans tiling
// [0, finish] exactly. The machine emits them incrementally per event when
// the run is observed.
using Segment = SimRunReport::TimelineSegment;
using SegKind = SimRunReport::TimelineSegment::Kind;

// α / bandwidth / contention tiling of one transfer's in-flight prefix
// [start, upto] (upto <= complete). The full-span case is the per-TB view;
// the chain walk can enter a transfer mid-flight and takes a prefix, with
// the byte phase split pro-rata so partial tiles remain exact.
struct InflightSplit {
  SimTime alpha;
  SimTime bw;
  SimTime cont;
};

InflightSplit SplitSpan(const TransferStats& ts, SimTime upto) {
  InflightSplit out;
  const SimTime span = upto - ts.start;
  out.alpha = std::min(ts.latency, span);
  const SimTime d = span - out.alpha;

  const SimTime full = ts.complete - ts.start;
  const SimTime d_full = full - std::min(ts.latency, full);
  const double ideal_us = ts.ideal_rate > 0.0
                              ? static_cast<double>(ts.wire_bytes) /
                                    ts.ideal_rate
                              : d_full.us();
  const SimTime bw_full = std::min(SimTime::Us(ideal_us), d_full);
  if (upto == ts.complete || d_full <= SimTime::Zero()) {
    out.bw = bw_full;
  } else {
    out.bw = SimTime::Us(d.us() * (bw_full.us() / d_full.us()));
  }
  out.bw = std::min(out.bw, d);
  out.cont = d - out.bw;
  return out;
}

// The rightmost stored segment of `segs` containing `t` from the left
// (begin < t <= end), or nullptr.
const Segment* FindSegmentEndingAt(const std::vector<Segment>& segs,
                                   SimTime t) {
  const auto it = std::lower_bound(
      segs.begin(), segs.end(), t,
      [](const Segment& s, SimTime when) { return s.begin < when; });
  if (it == segs.begin()) return nullptr;
  const Segment& seg = *(it - 1);
  if (seg.end < t) return nullptr;
  return &seg;
}

// Identifies whose event resolved a sync segment ending at time `t`.
// Matching is by exact event-time equality — resolution events *assign*
// the times being compared, so the doubles are bit-identical.
int ResolveBlame(const SimProgram& program, const SimRunReport& report,
                 int tb, const Segment& seg, SimTime t) {
  if (seg.barrier >= 0) {
    // Blame the last arriver: its park time equals the release time.
    for (const SimRunReport::BarrierWait& w : report.barrier_waits) {
      if (w.barrier != seg.barrier || w.release != t) continue;
      if (w.park == w.release && w.tb != tb) return w.tb;
    }
    return -1;
  }
  const auto tid = static_cast<std::size_t>(seg.transfer);
  const TransferStats& ts = report.transfers[tid];
  // A data dependency that completed at the resolution instant: its
  // receiver's in-flight segment ends exactly at t, guaranteeing the walk
  // lands on work.
  for (const int dep : program.DepsOf(tid)) {
    const TransferStats& d = report.transfers[static_cast<std::size_t>(dep)];
    if (d.complete == t && d.recv_tb != tb) return d.recv_tb;
    if (d.complete == t && d.send_tb != tb) return d.send_tb;
  }
  // Otherwise the rendezvous partner arrived last.
  const SimTime peer_arrival = seg.is_send ? ts.recv_arrival : ts.send_arrival;
  const int peer = seg.is_send ? ts.recv_tb : ts.send_tb;
  if (peer_arrival == t && peer != tb) return peer;
  return -1;
}

}  // namespace

CriticalPathReport AnalyzeCriticalPath(const SimProgram& program,
                                       const SimRunReport& report) {
  RESCCL_CHECK_MSG(report.tbs.size() == program.tbs.size() &&
                       report.transfers.size() == program.transfers.size(),
                   "report does not match program");
  RESCCL_CHECK_MSG(report.segments.size() == program.tbs.size(),
                   "critical-path analysis needs RunRequest.observe");
  CriticalPathReport out;
  out.makespan = report.makespan;

  // --- View 1: per-TB buckets (Fig. 12's bars). --------------------------
  out.tbs.resize(program.tbs.size());
  for (std::size_t tb = 0; tb < program.tbs.size(); ++tb) {
    TbBreakdown& b = out.tbs[tb];
    b.tb = static_cast<int>(tb);
    b.rank = report.tbs[tb].rank;
    b.finish = report.tbs[tb].finish;
    b.buckets.overhead = report.tbs[tb].overhead;
    b.buckets.sync = report.tbs[tb].sync;
    b.buckets.fault_stall = report.tbs[tb].fault_stall;
  }
  for (const TransferStats& ts : report.transfers) {
    const InflightSplit split = SplitSpan(ts, ts.complete);
    for (const int side : {ts.send_tb, ts.recv_tb}) {
      AttributionBuckets& b = out.tbs[static_cast<std::size_t>(side)].buckets;
      b.alpha += split.alpha;
      b.bandwidth += split.bw;
      b.contention += split.cont;
    }
  }

  int critical = -1;
  for (std::size_t tb = 0; tb < out.tbs.size(); ++tb) {
    RESCCL_CHECK_MSG(ApproxEq(out.tbs[tb].buckets.Total(), out.tbs[tb].finish),
                     "TB attribution buckets do not sum to its finish time");
    if (critical < 0 ||
        out.tbs[tb].finish > out.tbs[static_cast<std::size_t>(critical)]
                                 .finish) {
      critical = static_cast<int>(tb);
    }
  }
  out.critical_tb = critical;
  if (critical >= 0) {
    out.critical_tb_buckets =
        out.tbs[static_cast<std::size_t>(critical)].buckets;
  }
  RESCCL_CHECK_MSG(ApproxEq(out.critical_tb_buckets.Total(), out.makespan),
                   "critical-TB buckets do not sum to the makespan");
  if (critical < 0) return out;  // empty program

  // --- View 2: critical-chain walk over the recorded timelines. ---------
  const std::vector<std::vector<Segment>>& segments = report.segments;
  for (std::size_t tb = 0; tb < program.tbs.size(); ++tb) {
    const std::vector<Segment>& s = segments[tb];
    const SimTime end = s.empty() ? SimTime::Zero() : s.back().end;
    RESCCL_CHECK_MSG(ApproxEq(end, report.tbs[tb].finish),
                     "recorded timeline does not reach the TB's finish time");
  }
  std::size_t total_segments = 0;
  for (const auto& s : segments) total_segments += s.size();

  int tb = critical;
  SimTime t = out.makespan;
  // The walk either consumes a span (bounded by total segments) or hops
  // blame at a fixed instant (bounded by same-instant event chains); the
  // cap only trips on pathological same-instant cycles, where the
  // remainder is attributed to sync so the sum invariant still holds.
  std::size_t budget = 4 * total_segments + 64;
  while (t > SimTime::Zero()) {
    const Segment* seg = budget-- > 0
                             ? FindSegmentEndingAt(
                                   segments[static_cast<std::size_t>(tb)], t)
                             : nullptr;
    if (seg == nullptr) {
      out.path_buckets.sync += t;
      out.steps.push_back(
          {tb, -1, StepKind::kSync, SimTime::Zero(), t});
      out.chain_complete = false;
      break;
    }
    if (seg->kind == SegKind::kSync && seg->end == t) {
      const int blamed = ResolveBlame(program, report, tb, *seg, t);
      if (blamed >= 0) {
        tb = blamed;  // same instant, new timeline
        continue;
      }
      out.path_buckets.sync += t - seg->begin;
      out.steps.push_back({tb, seg->transfer, StepKind::kSync, seg->begin, t});
      out.chain_complete = false;
      t = seg->begin;
      continue;
    }
    switch (seg->kind) {
      case SegKind::kOverhead:
        out.path_buckets.overhead += t - seg->begin;
        out.steps.push_back(
            {tb, seg->transfer, StepKind::kOverhead, seg->begin, t});
        break;
      case SegKind::kStall:
        out.path_buckets.fault_stall += t - seg->begin;
        out.steps.push_back(
            {tb, seg->transfer, StepKind::kFaultStall, seg->begin, t});
        break;
      case SegKind::kInflight: {
        const auto tid = static_cast<std::size_t>(seg->transfer);
        const InflightSplit split = SplitSpan(report.transfers[tid], t);
        out.path_buckets.alpha += split.alpha;
        out.path_buckets.bandwidth += split.bw;
        out.path_buckets.contention += split.cont;
        out.steps.push_back(
            {tb, seg->transfer, StepKind::kInflight, seg->begin, t});
        break;
      }
      case SegKind::kSync:
        // Entered mid-wait (end > t): the waiter cannot have caused an
        // event at t; treat the covered span as unattributed sync.
        out.path_buckets.sync += t - seg->begin;
        out.steps.push_back(
            {tb, seg->transfer, StepKind::kSync, seg->begin, t});
        out.chain_complete = false;
        break;
    }
    t = seg->begin;
  }

  RESCCL_CHECK_MSG(ApproxEq(out.path_buckets.Total(), out.makespan),
                   "critical-chain buckets do not sum to the makespan");
  return out;
}

}  // namespace resccl::obs
