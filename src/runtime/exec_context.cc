#include "runtime/exec_context.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "obs/publish.h"

namespace resccl {

namespace {

// The cache key is a raw byte snapshot: LaunchConfig is a flat value type,
// so bytewise equality is exact equality (padding is copied consistently).
static_assert(std::is_trivially_copyable_v<LaunchConfig>);

// Appends `job` to a co-run's `merged` program, rebasing its indices so jobs
// interact only through the network.
void AppendJob(LoweredProgram& merged, const LoweredProgram& job) {
  SimProgram& out = merged.program;
  const int transfer_base = static_cast<int>(out.transfers.size());
  const int barrier_base = static_cast<int>(out.barrier_parties.size());
  out.transfers.insert(out.transfers.end(), job.program.transfers.begin(),
                       job.program.transfers.end());
  const int dep_base = static_cast<int>(out.deps.size());
  for (std::size_t t = 1; t < job.program.dep_begin.size(); ++t) {
    out.dep_begin.push_back(dep_base + job.program.dep_begin[t]);
  }
  for (const int d : job.program.deps) out.deps.push_back(d + transfer_base);
  for (SimTb tb : job.program.tbs) {
    for (SimInstr& instr : tb.program) {
      if (instr.transfer >= 0) instr.transfer += transfer_base;
      if (instr.barrier >= 0) instr.barrier += barrier_base;
    }
    out.tbs.push_back(std::move(tb));
  }
  out.barrier_parties.insert(out.barrier_parties.end(),
                             job.program.barrier_parties.begin(),
                             job.program.barrier_parties.end());
}

// Copy-on-write: a program that a report copy still holds is left to it, and
// `program` becomes a fresh one to lower into. Allocates nothing when unshared.
void Unshare(std::shared_ptr<LoweredProgram>& program) {
  if (program.use_count() > 1) program = std::make_shared<LoweredProgram>();
}

}  // namespace

const CollectiveReport& ExecContext::Execute(std::span<const ExecJob> jobs,
                                             const RunRequest& request) {
  if (jobs.empty()) throw std::invalid_argument("Execute needs a job");
  // Copies of the last report may still hold its `lowered`; this context
  // never writes a program such a copy holds (copy-on-write below).
  report_.lowered.reset();
  const std::size_t njobs = jobs.size();
  if (slots_.size() < njobs) slots_.resize(njobs);
  report_.jobs.resize(njobs);
  for (const ExecJob& job : jobs) {
    RESCCL_CHECK(job.plan != nullptr && job.plan->topo != nullptr);
    if (job.plan->topo != jobs[0].plan->topo &&
        job.plan->topo->spec() != jobs[0].plan->topo->spec()) {
      throw std::invalid_argument("co-run jobs target different fabrics");
    }
  }
  // A fault plan naming a resource this fabric lacks was sampled for
  // another one; reject it like a co-run fabric mismatch.
  const std::size_t nresources = jobs[0].plan->topo->resources().size();
  for (const FaultPlan::LinkFault& fault : request.faults.link_faults()) {
    if (static_cast<std::size_t>(fault.resource.value) >= nresources) {
      throw std::invalid_argument("fault plan names a link the fabric lacks");
    }
  }
  // Lowering splits the buffer into micro-batches of chunk-sized pieces; a
  // non-positive geometry has no such split.
  for (const ExecJob& job : jobs) {
    if (job.launch.buffer.bytes() <= 0 || job.launch.chunk.bytes() <= 0) {
      throw std::invalid_argument("launch needs a positive buffer and chunk");
    }
  }
  for (std::size_t j = 0; j < njobs; ++j) {
    const PreparedPlan& prepared = jobs[j].plan;
    const Topology& topo = *prepared->topo;
    Slot& slot = slots_[j];

    // Resolve kAuto BEFORE snapshotting the cache key, so auto and explicit
    // requests resolving to one protocol share an entry and autos resolving
    // differently never alias. Resolution is pure in (topo, launch, nchunks),
    // all covered by the key (topo via plan identity).
    LaunchConfig launch = jobs[j].launch;
    launch.protocol =
        ResolveProtocol(topo, cost_, launch, prepared->plan.algo.nchunks);
    report_.jobs[j].protocol = launch.protocol;

    // --- Lowered-program cache: (plan identity, launch bytes). The slot
    // still holds its previous plan, which was alive when `prepared` was
    // allocated, so a new plan cannot reuse its address.
    LaunchKey launch_key;
    std::memcpy(launch_key.data(), &launch, sizeof(launch));
    if (!slot.valid || slot.plan != prepared || launch_key != slot.launch_key) {
      slot.valid = false;
      Unshare(slot.lowered);
      LowerInto(prepared->plan, cost_, launch, *slot.lowered,
                topo.spec().channels_per_peer);
      slot.plan = prepared;
      slot.launch_key = launch_key;
      slot.valid = true;
      merged_jobs_ = 0;
      clean_jobs_ = 0;
    }
  }
  const Slot& first = slots_[0];
  const PreparedCollective& pc = *first.plan;
  const Topology& topo = *pc.topo;

  // --- Merged program (N > 1): rebuilt only when a slot re-lowered. ---
  if (njobs > 1 && merged_jobs_ != njobs) {
    Unshare(merged_);
    merged_->program = {};
    for (std::size_t j = 0; j < njobs; ++j) {
      AppendJob(*merged_, *slots_[j].lowered);
    }
    merged_jobs_ = njobs;
  }
  const std::shared_ptr<LoweredProgram>& lowered =
      njobs > 1 ? merged_ : first.lowered;

  // --- Machine reuse: rebuilt only on topology change. ---
  if (!machine_ || machine_topo_ != &topo) {
    machine_.reset();  // drop any reference to a previous topology first
    machine_.emplace(topo, cost_);
    machine_topo_ = &topo;
  }
  machine_->set_observe(request.observe);

  const bool faulted = !request.faults.empty();
  machine_->RunInto(lowered->program, faulted ? &request.faults : nullptr,
                    report_.sim);
  report_.lowered = request.observe ? lowered : nullptr;

  // Per-job views; each job verifies its own range of the merged transfers.
  rank_tbs_.assign(static_cast<std::size_t>(topo.nranks()), 0);
  report_.verified = request.verify;
  report_.verify_error.clear();
  Size bytes;
  std::size_t tb_end = 0;
  std::size_t transfer_end = 0;
  for (std::size_t j = 0; j < njobs; ++j) {
    const LoweredProgram& job = *slots_[j].lowered;
    JobView& view = report_.jobs[j];
    view.tb_begin = tb_end;
    view.tb_count = job.program.tbs.size();
    view.transfer_begin = transfer_end;
    view.transfer_count = job.program.transfers.size();
    tb_end += view.tb_count;
    transfer_end += view.transfer_count;
    view.finish = SimTime::Zero();
    for (std::size_t i = view.tb_begin; i < tb_end; ++i) {
      const TbStats& tb = report_.sim.tbs[i];
      view.finish = std::max(view.finish, tb.finish);
      ++rank_tbs_[static_cast<std::size_t>(tb.rank)];
    }
    bytes = bytes + jobs[j].launch.buffer;
    view.verified = false;
    if (!request.verify) continue;
    const VerifyResult v = VerifyLoweredExecution(
        slots_[j].plan->plan, job,
        std::span<const TransferStats>(report_.sim.transfers)
            .subspan(view.transfer_begin, view.transfer_count),
        request.verify_elems);
    view.verified = v.ok;
    if (!v.ok && report_.verified) report_.verify_error = v.error;
    report_.verified = report_.verified && v.ok;
  }

  report_.fault = {};
  if (faulted) {
    // Replay the identical lowered program on an unperturbed fabric (same
    // machine, observe off): the gap is what the schedule failed to absorb.
    // Its makespan is a function of the slots' keys alone, so the replay
    // runs only when a slot re-lowered or N changed since the last one.
    if (clean_jobs_ != njobs) {
      machine_->set_observe(false);
      machine_->RunInto(lowered->program, nullptr, clean_sim_);
      clean_jobs_ = njobs;
    }
    FaultImpact& impact = report_.fault;
    impact.faulted = true;
    impact.clean_makespan = clean_sim_.makespan;
    impact.slowdown_vs_clean = clean_sim_.makespan > SimTime::Zero()
                                   ? report_.sim.makespan / clean_sim_.makespan
                                   : 1.0;
    // The straggling rank: the lowest-numbered rank owning a latest TB.
    for (const TbStats& tb : report_.sim.tbs) {
      impact.total_stall += tb.fault_stall;
      if (impact.worst_rank == kInvalidRank ||
          tb.finish > impact.worst_rank_finish ||
          (tb.finish == impact.worst_rank_finish &&
           tb.rank < impact.worst_rank)) {
        impact.worst_rank = tb.rank;
        impact.worst_rank_finish = tb.finish;
      }
    }
    SimTime sync;
    SimTime lifetime;
    for (const TbStats& tb : report_.sim.tbs) {
      if (tb.rank != impact.worst_rank) continue;
      impact.worst_rank_stall += tb.fault_stall;
      sync += tb.sync;
      lifetime += tb.finish;
    }
    impact.worst_rank_idle =
        lifetime > SimTime::Zero() ? sync / lifetime : 0.0;
  }

  report_.backend = pc.backend;
  report_.algorithm = pc.plan.algo.name;
  report_.elapsed = report_.sim.makespan;
  report_.algo_bw = AlgoBandwidth(bytes, report_.elapsed);
  report_.protocol = report_.jobs[0].protocol;
  report_.protocol_auto = jobs[0].launch.protocol == Protocol::kAuto;
  report_.nmicrobatches = first.lowered->nmicrobatches;
  report_.total_tbs = static_cast<int>(tb_end);
  report_.max_tbs_per_rank =
      *std::max_element(rank_tbs_.begin(), rank_tbs_.end());

  // Link utilization over resources that carried data, from the report's
  // always-recorded per-resource totals; NIC links also aggregate per rail.
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
  // One relaxed atomic load when the global registry is disabled (default).
  obs::PublishCollectiveReport(obs::MetricsRegistry::Global(), report_);
  return report_;
}

}  // namespace resccl
