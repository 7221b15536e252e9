#include "train/trainer.h"

#include <stdexcept>

#include "runtime/communicator.h"

namespace resccl::train {

namespace {

constexpr int kGpusPerNode = 8;
constexpr double kGpuTflops = 312.0;  // A100 bf16 peak
constexpr double kComputeEfficiency = 0.45;
// Fraction of the DP gradient AllReduce hidden behind the backward pass.
constexpr double kDpOverlap = 0.6;

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
  if (config.tp > kGpusPerNode) {
    throw std::invalid_argument(
        "tensor parallelism must fit within one server");
  }
  if (config.global_batch < 1) {
    throw std::invalid_argument("global_batch must be >= 1");
  }
  if (config.global_batch % config.dp != 0) {
    throw std::invalid_argument("global batch must divide into dp");
  }
  const int total_gpus = config.tp * config.dp;
  // One sequence per micro-batch per replica.
  const int n_micro = config.global_batch / config.dp;

  IterationReport report;
  report.model = m.name;
  report.backend = BackendName(config.backend);

  // --- Compute: 6 FLOPs per parameter per token (fwd+bwd), sharded. ---
  const double tokens =
      static_cast<double>(config.global_batch) * m.seq_len;
  const double flops_per_gpu =
      6.0 * m.params() * tokens / static_cast<double>(total_gpus);
  report.compute = SimTime::Sec(
      flops_per_gpu / (kGpuTflops * 1e12 * kComputeEfficiency));

  // --- Tensor parallelism: 4 activation AllReduces per layer per
  //     micro-batch within the TP group (Megatron f/g operators). ---
  report.tp_comm = SimTime::Zero();
  if (config.tp > 1) {
    TopologySpec tp_spec = presets::A100(1, config.tp);
    const Size activation = Size::Bytes(
        static_cast<std::int64_t>(m.seq_len) * m.hidden * m.bytes_per_value);
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
      const int nodes = std::max(1, total_gpus / kGpusPerNode);
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
    report.dp_comm = one * (1.0 - kDpOverlap);
  }

  report.iteration = report.compute + report.tp_comm + report.dp_comm;
  report.samples_per_sec =
      config.global_batch / report.iteration.sec();
  report.comm_fraction = (report.tp_comm + report.dp_comm) / report.iteration;
  return report;
}

}  // namespace resccl::train
