// Megatron-style training-iteration simulator (§5.5, Fig. 13).
//
// One training iteration decomposes into
//   compute      — forward+backward FLOPs at the GPU's sustained rate;
//   TP comm      — Megatron tensor parallelism: 4 activation AllReduces per
//                  layer per micro-batch inside each TP group (one server);
//   DP comm      — the gradient AllReduce across data-parallel replicas,
//                  partially overlapped with the backward pass.
// Every replica runs one sequence per micro-batch on 8-GPU A100 servers at
// a fixed sustained rate (trainer.cc's constants). Collective latencies
// come from the ResCCL runtime simulator — the same backends the
// communication benchmarks measure — so end-to-end gains stem entirely
// from the communication fraction, as in the paper.
#pragma once

#include <string>

#include "runtime/backend.h"
#include "train/model.h"

namespace resccl::train {

struct TrainConfig {
  ModelSpec model;
  int tp = 1;                      // tensor-parallel width (one server)
  int dp = 1;                      // data-parallel replica count
  int global_batch = 32;
  BackendKind backend = BackendKind::kResCCL;
};

struct IterationReport {
  std::string model;
  std::string backend;
  SimTime compute;
  SimTime tp_comm;                 // exposed tensor-parallel time
  SimTime dp_comm;                 // exposed data-parallel time
  SimTime iteration;
  double samples_per_sec = 0;
  double comm_fraction = 0;        // exposed comm / iteration
};

// Simulates one iteration. Throws std::invalid_argument on inconsistent
// configurations (tp larger than a server, batch not divisible, ...).
[[nodiscard]] IterationReport SimulateIteration(const TrainConfig& config);

}  // namespace resccl::train
