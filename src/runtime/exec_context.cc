#include "runtime/exec_context.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/check.h"
#include "obs/publish.h"

namespace resccl {

namespace {

// Cache keys are raw byte snapshots: both structs are flat value types, so
// bytewise equality is exact equality (modulo padding, which std::array
// value-initialization zeroes and memcpy copies consistently from the same
// source object layout).
static_assert(std::is_trivially_copyable_v<LaunchConfig>);
static_assert(std::is_trivially_copyable_v<CostModel>);

template <typename T, std::size_t N>
void SnapshotBytes(const T& value, std::array<std::byte, N>& out) {
  static_assert(sizeof(T) == N);
  std::memcpy(out.data(), &value, sizeof(T));
}

}  // namespace

const CollectiveReport& ExecContext::Execute(const PreparedPlan& prepared,
                                             const RunRequest& request) {
  RESCCL_CHECK(prepared != nullptr);
  RESCCL_CHECK(prepared->topo != nullptr);
  const PreparedCollective& pc = *prepared;
  const Topology& topo = *pc.topo;
  const CompiledCollective& cc = pc.plan;

  // Retain before touching the caches: `prepared` was alive while the old
  // plan was still held, so its address cannot be a recycled copy of the
  // old one — pointer identity below is trustworthy.
  if (plan_ != prepared) plan_ = prepared;

  // Resolve kAuto BEFORE snapshotting the cache key: the key must hold the
  // concrete protocol so an auto request and an explicit request for the
  // same resolved protocol share one entry, and two auto requests that
  // resolve differently (different buffers) never alias. The resolution
  // itself is pure in (topo, cost, launch, nchunks), all of which are
  // covered by the key (topo via plan identity).
  const bool protocol_auto = request.launch.protocol == Protocol::kAuto;
  LaunchConfig launch = request.launch;
  launch.protocol =
      ResolveProtocol(topo, request.cost, launch, cc.algo.nchunks);

  // --- Lowered-program cache: (plan identity, launch bytes, cost bytes). ---
  LaunchKey launch_key;
  CostKey cost_key;
  SnapshotBytes(launch, launch_key);
  SnapshotBytes(request.cost, cost_key);
  if (!lowered_) lowered_ = std::make_shared<LoweredProgram>();
  if (!lowered_valid_ || lowered_for_ != &pc || launch_key != launch_key_ ||
      cost_key != cost_key_) {
    LowerInto(cc, request.cost, launch, *lowered_,
              topo.spec().channels_per_peer);
    lowered_for_ = &pc;
    launch_key_ = launch_key;
    cost_key_ = cost_key;
    lowered_valid_ = true;
  }
  const LoweredProgram& lowered = *lowered_;

  // --- Machine reuse: rebuilt only on topology change. ---
  // The machine references cost_ by address; refresh its value first so a
  // reused machine sees this request's model.
  cost_ = request.cost;
  if (!machine_ || machine_topo_ != &topo) {
    machine_.reset();  // drop any reference to a previous topology first
    machine_.emplace(topo, cost_);
    machine_topo_ = &topo;
  }
  machine_->set_observe(request.observe);

  const bool faulted = !request.faults.empty();
  machine_->RunInto(lowered.program, faulted ? &request.faults : nullptr,
                    report_.sim);
  report_.lowered.reset();
  if (request.observe) report_.lowered = lowered_;

  report_.fault = {};
  if (faulted) {
    // Replay the identical lowered program on an unperturbed fabric; the
    // gap is the schedule's (in)ability to absorb the faults. The replay
    // reuses the same machine (observe off — only the makespan matters).
    machine_->set_observe(false);
    machine_->RunInto(lowered.program, nullptr, clean_sim_);
    FaultImpact& impact = report_.fault;
    impact.faulted = true;
    impact.clean_makespan = clean_sim_.makespan;
    impact.slowdown_vs_clean = clean_sim_.makespan > SimTime::Zero()
                                   ? report_.sim.makespan / clean_sim_.makespan
                                   : 1.0;
    // Per-rank aggregation to find the straggling rank.
    const int nranks = cc.algo.nranks;
    const auto n = static_cast<std::size_t>(nranks);
    rank_finish_.assign(n, SimTime::Zero());
    rank_stall_.assign(n, SimTime::Zero());
    rank_sync_.assign(n, SimTime::Zero());
    rank_lifetime_.assign(n, SimTime::Zero());
    for (const TbStats& tb : report_.sim.tbs) {
      const auto r = static_cast<std::size_t>(tb.rank);
      rank_finish_[r] = std::max(rank_finish_[r], tb.finish);
      rank_stall_[r] += tb.fault_stall;
      rank_sync_[r] += tb.sync;
      rank_lifetime_[r] += tb.finish;
      impact.total_stall += tb.fault_stall;
    }
    for (Rank r = 0; r < nranks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (impact.worst_rank == kInvalidRank ||
          rank_finish_[ri] > impact.worst_rank_finish) {
        impact.worst_rank = r;
        impact.worst_rank_finish = rank_finish_[ri];
        impact.worst_rank_stall = rank_stall_[ri];
        impact.worst_rank_idle = rank_lifetime_[ri] > SimTime::Zero()
                                     ? rank_sync_[ri] / rank_lifetime_[ri]
                                     : 0.0;
      }
    }
  }

  report_.backend = pc.backend;
  report_.algorithm = cc.algo.name;
  report_.elapsed = report_.sim.makespan;
  report_.algo_bw = AlgoBandwidth(launch.buffer, report_.elapsed);
  report_.protocol = launch.protocol;
  report_.protocol_auto = protocol_auto;
  report_.nmicrobatches = lowered.nmicrobatches;
  report_.total_tbs = cc.tbs.total_tbs();
  report_.max_tbs_per_rank = cc.tbs.MaxTbsPerRank(cc.algo.nranks);
  report_.compile = cc.stats;
  report_.plan_cache_hit = false;
  report_.prepare_us = pc.prepare_us;

  // Link utilization over resources that carried data, read from the
  // report's always-recorded per-resource totals (the same numbers the
  // observability timelines reconcile against). NIC links additionally
  // aggregate into per-rail rows so rail skew is visible at a glance.
  report_.links = {};
  report_.rails.resize(static_cast<std::size_t>(topo.spec().nics_per_node));
  for (std::size_t i = 0; i < report_.rails.size(); ++i) {
    report_.rails[i] = RailUtilization{static_cast<int>(i), 0, 0.0, 0.0, 0};
  }
  for (std::size_t ri = 0; ri < report_.sim.link_usage.size(); ++ri) {
    const FluidNetwork::ResourceUsage& usage = report_.sim.link_usage[ri];
    if (usage.bytes == 0) continue;
    const double frac = report_.elapsed > SimTime::Zero()
                            ? usage.active / report_.elapsed
                            : 0.0;
    report_.links.avg += frac;
    report_.links.min = std::min(report_.links.min, frac);
    report_.links.max = std::max(report_.links.max, frac);
    ++report_.links.carriers;
    const int rail =
        topo.RailOfResource(ResourceId(static_cast<std::int32_t>(ri)));
    if (rail >= 0) {
      RailUtilization& row = report_.rails[static_cast<std::size_t>(rail)];
      row.bytes += usage.bytes;
      row.avg_busy_frac += frac;
      row.max_busy_frac = std::max(row.max_busy_frac, frac);
      ++row.carriers;
    }
  }
  if (report_.links.carriers > 0) {
    report_.links.avg /= report_.links.carriers;
  } else {
    report_.links.min = 0;
  }
  for (RailUtilization& row : report_.rails) {
    if (row.carriers > 0) row.avg_busy_frac /= row.carriers;
  }

  report_.verified = false;
  report_.verify_error.clear();
  if (request.verify) {
    const VerifyResult v =
        VerifyLoweredExecution(cc, lowered, report_.sim, request.verify_elems);
    report_.verified = v.ok;
    report_.verify_error = v.error;
  }
  // One relaxed atomic load when the global registry is disabled (the
  // default) — the publication body never runs.
  obs::PublishCollectiveReport(obs::MetricsRegistry::Global(), report_);
  return report_;
}

}  // namespace resccl
