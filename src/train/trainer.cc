#include "train/trainer.h"

#include <stdexcept>

#include "runtime/communicator.h"

namespace resccl::train {

namespace {

// Latency of one collective under the given backend and topology.
SimTime CollectiveTime(BackendKind backend, const TopologySpec& spec,
                       Size buffer) {
  RunRequest request;
  request.launch.buffer = buffer;
  // Keep micro-batch counts reasonable for very large gradient buffers.
  if (buffer > Size::MiB(512)) request.launch.chunk = Size::MiB(4);
  return Communicator(spec, backend).AllReduce(request).elapsed;
}

}  // namespace

IterationReport SimulateIteration(const TrainConfig& config) {
  const ModelSpec& m = config.model;
  if (config.tp < 1 || config.dp < 1) {
    throw std::invalid_argument("tp and dp must be >= 1");
  }
  if (config.tp > config.gpus_per_node) {
    throw std::invalid_argument(
        "tensor parallelism must fit within one server");
  }
  if (config.pp < 1) {
    throw std::invalid_argument("pp must be >= 1");
  }
  if (config.pp > 1 && config.model.layers % config.pp != 0) {
    throw std::invalid_argument(
        "pipeline stages must divide the layer count");
  }
  if (config.micro_batch < 1 || config.global_batch < 1) {
    throw std::invalid_argument("micro_batch and global_batch must be >= 1");
  }
  if (config.global_batch % (config.dp * config.micro_batch) != 0) {
    throw std::invalid_argument(
        "global batch must divide into dp * micro_batch");
  }
  const int total_gpus = config.tp * config.dp * config.pp;
  const int n_micro = config.global_batch / (config.dp * config.micro_batch);

  IterationReport report;
  report.model = m.name;
  report.backend = BackendName(config.backend);

  // --- Compute: 6 FLOPs per parameter per token (fwd+bwd), sharded. ---
  const double tokens =
      static_cast<double>(config.global_batch) * m.seq_len;
  const double flops_per_gpu =
      6.0 * m.params() * tokens / static_cast<double>(total_gpus);
  report.compute = SimTime::Sec(
      flops_per_gpu / (config.gpu_tflops * 1e12 * config.compute_efficiency));

  // --- Tensor parallelism: 4 activation AllReduces per layer per
  //     micro-batch within the TP group (Megatron f/g operators). ---
  report.tp_comm = SimTime::Zero();
  if (config.tp > 1) {
    TopologySpec tp_spec = presets::A100(1, config.tp);
    const Size activation =
        Size::Bytes(static_cast<std::int64_t>(config.micro_batch) *
                    m.seq_len * m.hidden * m.bytes_per_value);
    const SimTime one = CollectiveTime(config.backend, tp_spec, activation);
    report.tp_comm = one * (4.0 * m.layers * n_micro);
  }

  // --- Data parallelism: gradient AllReduce across replicas, partially
  //     overlapped with the backward pass. ---
  report.dp_comm = SimTime::Zero();
  if (config.dp > 1) {
    const Size grads = Size::Bytes(static_cast<std::int64_t>(
        m.params() / config.tp * m.bytes_per_value));
    SimTime one;
    if (config.tp == 1) {
      // Replicas are whole GPUs; the DP group spans the physical cluster.
      const int nodes =
          std::max(1, total_gpus / config.gpus_per_node);
      const int gpn = total_gpus / nodes;
      one = CollectiveTime(config.backend, presets::A100(nodes, gpn), grads);
    } else {
      // One replica member per server; the tp DP groups share the server's
      // NICs, so each group sees 1/tp-th of a server's aggregate NIC
      // bandwidth on its private logical topology.
      TopologySpec dp_spec = presets::A100(config.dp, 1);
      dp_spec.nics_per_node = 1;
      dp_spec.nic = Bandwidth::Gbps(200.0 * 4 / config.tp);
      one = CollectiveTime(config.backend, dp_spec, grads);
    }
    report.dp_comm = one * (1.0 - config.dp_overlap);
  }

  // --- Pipeline parallelism: stage-to-stage activation handoffs and the
  //     1F1B fill/drain bubble. ---
  report.pp_comm = SimTime::Zero();
  report.pp_bubble = SimTime::Zero();
  if (config.pp > 1) {
    // One inter-node hop per stage boundary, forward + backward, per
    // micro-batch; mostly hidden behind compute except a residual share.
    const Topology hop_topo(presets::A100(2, 1));
    const Size activation =
        Size::Bytes(static_cast<std::int64_t>(config.micro_batch) *
                    m.seq_len * m.hidden * m.bytes_per_value);
    const double hop_us =
        static_cast<double>(activation.bytes()) /
            hop_topo.spec().nic.bytes_per_us() +
        hop_topo.spec().inter_latency.us();
    constexpr double kExposedShare = 0.2;
    report.pp_comm = SimTime::Us(hop_us * 2.0 * n_micro *
                                 (config.pp - 1) * kExposedShare);
    // 1F1B bubble: (pp−1) of the n_micro slots are fill/drain.
    report.pp_bubble =
        (report.compute + report.tp_comm) *
        (static_cast<double>(config.pp - 1) / static_cast<double>(n_micro));
  }

  report.iteration = report.compute + report.tp_comm + report.dp_comm +
                     report.pp_comm + report.pp_bubble;
  report.samples_per_sec =
      config.global_batch / report.iteration.sec();
  report.comm_fraction =
      (report.tp_comm + report.dp_comm + report.pp_comm) / report.iteration;
  return report;
}

}  // namespace resccl::train
