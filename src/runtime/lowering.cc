#include "runtime/lowering.h"

#include <algorithm>

#include "common/check.h"

namespace resccl {

namespace {

int DeclIndex(int task, int mb, int nmb) { return task * nmb + mb; }

SimTime PerPrimitiveOverhead(const CompiledCollective& compiled,
                             const CostModel& cost, bool first_of_mb) {
  SimTime overhead = cost.primitive_launch;
  if (compiled.options.engine == RuntimeEngine::kInterpreter) {
    overhead += cost.interp_decode;
    if (first_of_mb) overhead += cost.interp_reload;
  }
  return overhead;
}

}  // namespace

Protocol ResolveProtocol(const Topology& topo, const CostModel& cost,
                         const LaunchConfig& launch, int nchunks) {
  if (launch.protocol != Protocol::kAuto) return launch.protocol;
  const TopologySpec& spec = topo.spec();

  // Widest one-hop handshake a contribution must cross (the same α the
  // lower bound uses), and the per-rank bottleneck bandwidth.
  const SimTime alpha = topo.WidestHopLatency();
  const Bandwidth bw =
      topo.nodes() > 1 ? std::min(spec.pcie, spec.nic) : spec.gpu_fabric;

  const int steps = nchunks > 0 ? nchunks : topo.nranks();
  const int nmb = launch.MicroBatches(steps);
  const double payload = static_cast<double>(launch.chunk.bytes()) *
                         static_cast<double>(steps) *
                         static_cast<double>(nmb);

  Protocol best = Protocol::kLL;
  double best_us = 0;
  bool have_best = false;
  for (const Protocol p :
       {Protocol::kLL, Protocol::kLL128, Protocol::kSimple}) {
    const ProtocolSpec& ps = cost.ProtocolFor(p);
    const auto wire_chunk = static_cast<std::int64_t>(
        static_cast<double>(launch.chunk.bytes()) * ps.wire_inflation);
    const SimTime per_invocation =
        alpha * ps.latency_factor + cost.SlotSyncCost(p, wire_chunk);
    const SimTime tail = (cost.pipelined_handshake +
                          cost.SlotSyncCost(p, wire_chunk)) *
                         static_cast<double>(nmb - 1);
    const double channel_scale = std::min(
        1.0, static_cast<double>(spec.channels_per_peer) /
                 static_cast<double>(ps.channel_width));
    const double wire_us =
        payload * ps.wire_inflation / (bw.bytes_per_us() * channel_scale);
    const double t =
        per_invocation.us() * static_cast<double>(steps) + tail.us() + wire_us;
    if (!have_best || t < best_us) {
      have_best = true;
      best = p;
      best_us = t;
    }
  }
  return best;
}

LoweredProgram Lower(const CompiledCollective& compiled, const CostModel& cost,
                     const LaunchConfig& launch, int channels_per_peer) {
  LoweredProgram out;
  LowerInto(compiled, cost, launch, out, channels_per_peer);
  return out;
}

void LowerInto(const CompiledCollective& compiled, const CostModel& cost,
               const LaunchConfig& launch, LoweredProgram& out,
               int channels_per_peer) {
  const int ntasks = compiled.algo.ntasks();
  const int nmb = launch.MicroBatches(compiled.algo.nchunks);
  const std::int64_t chunk_bytes = launch.chunk.bytes();
  RESCCL_CHECK(chunk_bytes > 0);
  RESCCL_CHECK_MSG(launch.protocol != Protocol::kAuto,
                   "kAuto must be resolved (ResolveProtocol) before lowering");

  // Protocol trade-off: flag-embedding protocols cut the handshake latency
  // but pay wire overhead — carried as real flow bytes so inflated traffic
  // contends in the fluid model — plus a per-slot flag sync at every hop.
  const ProtocolSpec& proto = cost.ProtocolFor(launch.protocol);
  const double latency_factor = proto.latency_factor;
  const double byte_inflation = proto.wire_inflation;
  const auto wire_chunk = static_cast<std::int64_t>(
      static_cast<double>(chunk_bytes) * byte_inflation);
  const double slot_sync_us =
      cost.SlotSyncCost(launch.protocol, wire_chunk).us();

  // Channels are a countable per-(rank,peer) resource: each connection
  // stream drives `channel_width` of them, and stage-level execution opens
  // one stream per stage. When the pool cannot cover that demand the
  // protocol's injection pipeline runs partially fed.
  const int nstages = PlanStages(compiled);
  RESCCL_CHECK_MSG(nstages >= 1,
                   "stage-level plan declares " << nstages << " stages");
  const double channel_scale =
      std::min(1.0, static_cast<double>(channels_per_peer) /
                        static_cast<double>(proto.channel_width * nstages));

  out.nmicrobatches = nmb;

  // --- Transfer declarations: one per (task, micro-batch) invocation. ---
  // Reused decls carry whatever the previous lowering set, so every field
  // is assigned — in particular latency_us / latency_scale, where a fresh
  // decl's defaults carry meaning ("use the path α unscaled").
  // Dependencies go into the program's CSR pool, sized up front so a warm
  // `out` reuses it.
  const auto ndecls =
      static_cast<std::size_t>(ntasks) * static_cast<std::size_t>(nmb);
  std::size_t npreds = 0;
  for (const std::vector<int>& preds : compiled.preds) npreds += preds.size();
  SimProgram& program = out.program;
  program.transfers.resize(ndecls);
  program.dep_begin.resize(ndecls + 1);
  program.deps.resize(npreds * static_cast<std::size_t>(nmb));
  program.dep_begin[0] = 0;
  int next_dep = 0;
  for (int t = 0; t < ntasks; ++t) {
    const Transfer& tr = compiled.algo.transfers[static_cast<std::size_t>(t)];
    for (int m = 0; m < nmb; ++m) {
      SimTransferDecl& decl =
          program.transfers[static_cast<std::size_t>(DeclIndex(t, m, nmb))];
      decl.src = tr.src;
      decl.dst = tr.dst;
      decl.bytes = wire_chunk;
      decl.is_reduce = tr.op == TransferOp::kRecvReduceCopy;
      decl.latency_us = -1.0;
      decl.latency_scale = 1.0;
      // Every invocation pays one flag sync per FIFO slot its wire bytes
      // occupy — the per-hop synchronization granularity that separates
      // the protocols beyond their α scale.
      decl.latency_extra_us = slot_sync_us;
      // Task-level generated kernels iterate a primitive's micro-batches in
      // one pass (§4.5): invocations after the first overlap their
      // handshake with the previous invocation's drain.
      if (compiled.options.mode == ExecutionMode::kTaskLevel &&
          compiled.options.engine == RuntimeEngine::kGeneratedKernel &&
          m > 0) {
        decl.latency_us = cost.pipelined_handshake.us();
      } else {
        decl.latency_scale = latency_factor;
      }
      // Data dependencies stay within a micro-batch: micro-batches address
      // disjoint buffer slices (§3's key insight).
      for (int p : compiled.preds[static_cast<std::size_t>(t)]) {
        program.deps[static_cast<std::size_t>(next_dep++)] =
            DeclIndex(p, m, nmb);
      }
      program.dep_begin[static_cast<std::size_t>(DeclIndex(t, m, nmb)) + 1] =
          next_dep;
    }
  }

  // --- TB instruction streams. ---
  const ExecutionMode mode = compiled.options.mode;
  out.program.tbs.resize(compiled.tbs.tbs.size());
  const auto reset_tb = [&](SimTb& sim_tb, const TbPlan::Tb& tb) {
    sim_tb.rank = tb.rank;
    sim_tb.injection_scale =
        (compiled.options.engine == RuntimeEngine::kInterpreter
             ? 1.0 - cost.interp_throughput_tax
             : 1.0) *
        channel_scale;
    sim_tb.program.clear();
    // Task-level streams issue each ref once per micro-batch; the other
    // modes add one barrier per micro-batch.
    sim_tb.program.reserve(
        (tb.refs.size() + (mode == ExecutionMode::kTaskLevel ? 0 : 1)) *
        static_cast<std::size_t>(nmb));
  };

  if (mode == ExecutionMode::kTaskLevel) {
    out.program.barrier_parties.clear();
    for (std::size_t i = 0; i < compiled.tbs.tbs.size(); ++i) {
      const TbPlan::Tb& tb = compiled.tbs.tbs[i];
      SimTb& sim_tb = out.program.tbs[i];
      reset_tb(sim_tb, tb);
      for (const TbTaskRef& ref : tb.refs) {
        for (int m = 0; m < nmb; ++m) {
          SimInstr instr;
          instr.kind = ref.dir == Direction::kSend ? SimInstr::Kind::kSendSide
                                                   : SimInstr::Kind::kRecvSide;
          instr.transfer = DeclIndex(ref.task.value, m, nmb);
          instr.overhead = PerPrimitiveOverhead(compiled, cost, false);
          sim_tb.program.push_back(instr);
        }
      }
    }
    return;
  }

  // Algorithm-level and stage-level walk micro-batches in the outer loop
  // and synchronize at a barrier after each one: a global barrier for
  // algorithm-level (the synthesizer backends schedule one micro-batch at a
  // time, Eq. 3), a per-stage barrier for stage-level (algorithm-level
  // execution *within* each stage, stages pipelining against each other,
  // Eq. 4).
  // Stage of each TB (every ref of a TB shares a stage by construction).
  std::vector<int> tb_stage(compiled.tbs.tbs.size(), 0);
  std::vector<int> stage_tb_count(static_cast<std::size_t>(nstages), 0);
  for (std::size_t i = 0; i < compiled.tbs.tbs.size(); ++i) {
    const TbPlan::Tb& tb = compiled.tbs.tbs[i];
    RESCCL_CHECK(!tb.refs.empty());
    const int stage = StageOf(compiled, tb.refs.front().task.value);
    for (const TbTaskRef& ref : tb.refs) {
      RESCCL_CHECK_MSG(
          StageOf(compiled, ref.task.value) == stage,
          "TB spans stages — allocation must key streams by stage");
    }
    tb_stage[i] = stage;
    ++stage_tb_count[static_cast<std::size_t>(stage)];
  }

  // Barrier ids: (stage, mb) -> dense id. Algorithm-level is the nstages==1
  // special case, where the sole stage spans all TBs.
  out.program.barrier_parties.assign(
      static_cast<std::size_t>(nstages) * static_cast<std::size_t>(nmb), 0);
  const auto barrier_id = [&](int stage, int m) {
    return stage * nmb + m;
  };
  for (int s = 0; s < nstages; ++s) {
    for (int m = 0; m < nmb; ++m) {
      out.program.barrier_parties[static_cast<std::size_t>(barrier_id(s, m))] =
          stage_tb_count[static_cast<std::size_t>(s)];
    }
  }

  for (std::size_t i = 0; i < compiled.tbs.tbs.size(); ++i) {
    const TbPlan::Tb& tb = compiled.tbs.tbs[i];
    SimTb& sim_tb = out.program.tbs[i];
    reset_tb(sim_tb, tb);
    for (int m = 0; m < nmb; ++m) {
      bool first = true;
      for (const TbTaskRef& ref : tb.refs) {
        SimInstr instr;
        instr.kind = ref.dir == Direction::kSend ? SimInstr::Kind::kSendSide
                                                 : SimInstr::Kind::kRecvSide;
        instr.transfer = DeclIndex(ref.task.value, m, nmb);
        instr.overhead = PerPrimitiveOverhead(compiled, cost, first);
        first = false;
        sim_tb.program.push_back(instr);
      }
      SimInstr barrier;
      barrier.kind = SimInstr::Kind::kBarrier;
      barrier.barrier = barrier_id(tb_stage[i], m);
      sim_tb.program.push_back(barrier);
    }
  }
}

}  // namespace resccl
