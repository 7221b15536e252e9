// Execution cost model (paper §3, Eq. 1).
//
// A task invocation costs α + c·β: α is the path's startup latency, β the
// inverse of the achieved bandwidth. Achieved bandwidth is bounded by three
// things:
//   1. the fluid fair share of every resource on the path (capacity / z for
//      z concurrent flows), degraded by the contention penalty γ·L(z) — this
//      realizes Eq. 1's L(z)·γ term and the Fig. 4 collapse beyond 4 TBs;
//   2. the thread block's own injection capability: a TB with w warps copies
//      at w × per-warp throughput, so ~4 default-width TBs are needed to
//      saturate a NIC (Fig. 4) while a full 16-warp TB can drive a link
//      alone — the property ResCCL's one-TB-per-link allocation relies on;
//   3. for recvReduceCopy, the arithmetic of the reduction adds a small
//      multiplicative cost over a plain copy.
//
// The interpreter overheads model MSCCL-style runtimes that re-parse the
// algorithm every execution (§2.2, Fig. 3): a per-primitive decode plus a
// per-micro-batch reload. ResCCL's generated kernels pay neither.
#pragma once

#include "common/units.h"
#include "topology/topology.h"

namespace resccl {

// Transport protocol (Table 2, "Demystifying NCCL"). Simple maximizes
// sustained bandwidth, LL minimizes latency, LL128 recovers most of the
// bandwidth at low latency. kAuto defers the choice to launch time: the
// runtime resolves it per (topology, message size) before lowering
// (ResolveProtocol in runtime/lowering.h), so a concrete protocol is always
// in effect by the time a program reaches the simulator.
enum class Protocol : std::uint8_t { kSimple, kLL, kLL128, kAuto };

[[nodiscard]] constexpr const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kSimple: return "Simple";
    case Protocol::kLL: return "LL";
    case Protocol::kLL128: return "LL128";
    case Protocol::kAuto: return "Auto";
  }
  return "?";
}

// Per-protocol transport parameters. The three protocols differ in more
// than a latency scale and a bandwidth haircut: each posts data in
// fixed-size FIFO slots, pays a flag-synchronization cost per slot at every
// hop, carries a distinct wire overhead (LL writes a 4-byte flag per
// 8 bytes of payload — 2x on the wire; LL128 a flag per 128-byte line —
// 128/120), and opens a different number of per-peer channels to drive its
// pipeline. Wire inflation is carried as real flow bytes through the fluid
// model, so inflated traffic contends, saturates cuts, and shows up in link
// accounting exactly like payload does.
struct ProtocolSpec {
  double latency_factor = 1.0;  // fraction of the path α each handshake pays
  double wire_inflation = 1.0;  // wire bytes per payload byte
  Size slot = Size::KiB(512);   // FIFO slot / pipelining granularity
  SimTime hop_sync;             // per-slot flag synchronization cost
  int channel_width = 4;        // per-peer channels the protocol drives
};

// Warps per thread block: the one TB width lowering produces, and the one
// the calibration below assumes. No compile option narrows it; only a
// hand-built SimProgram sets SimTb::warps otherwise (Fig. 4's 4-warp TBs).
inline constexpr int kWarpsPerTb = 16;

struct CostModel {
  // Per-warp copy throughput. Intra-node warps move data over the NVSwitch
  // fabric; inter-node warps stage into the proxy FIFO feeding the NIC.
  // Calibrated so a full 16-warp TB can drive one NVSwitch port (320 ≥ 300
  // GB/s) or one 200 Gbps NIC (25.6 ≥ 25 GB/s) alone, while the narrow
  // 4-warp TBs of the Fig. 4 experiment need four to saturate a NIC.
  Bandwidth warp_intra = Bandwidth::GBps(20.0);
  Bandwidth warp_inter = Bandwidth::GBps(1.6);

  // NOTE: the contention penalty γ lives on each topology Resource
  // (TopologySpec::fabric_gamma / nic_gamma) so NVSwitch crossbars and NICs
  // can degrade differently under sharing.

  // Fixed cost of issuing one primitive from a generated kernel.
  SimTime primitive_launch = SimTime::Us(0.12);
  // Extra per-primitive decode cost when executing via a runtime
  // interpreter (MSCCL-style), and per-micro-batch algorithm reload.
  SimTime interp_decode = SimTime::Us(0.6);
  SimTime interp_reload = SimTime::Us(3.0);
  // Interpreted kernels also burn warp cycles on control flow inside the
  // primitive loop, cutting the TB's attainable copy throughput — the
  // dominant component of Fig. 3's ~17% loss on TB-rate-bound links.
  double interp_throughput_tax = 0.15;

  // recvReduceCopy transfers run at 1/(1+reduce_overhead) of copy speed.
  double reduce_overhead = 0.05;

  // FIFO slot synchronization between consecutive micro-batch invocations
  // of one primitive under task-level execution (§4.5): the handshake of
  // invocation m+1 overlaps invocation m's drain, leaving only this cost.
  SimTime pipelined_handshake = SimTime::Us(0.3);

  // Transport protocols (Table 2): Simple posts large slots and
  // synchronizes per chunk (full α, full bandwidth, wide channels); LL
  // embeds 4-byte flags in every 8 bytes (tiny latency, 2x wire bytes,
  // tiny slots, one channel); LL128 amortizes the flag over 128-byte lines
  // (low latency, 128/120 wire bytes, mid-size slots).
  ProtocolSpec simple{1.0, 1.0, Size::KiB(512), SimTime::Us(0.06), 4};
  ProtocolSpec ll{0.25, 2.0, Size::KiB(16), SimTime::Us(0.004), 1};
  ProtocolSpec ll128{0.35, 128.0 / 120.0, Size::KiB(64), SimTime::Us(0.01), 2};

  // The spec for a *concrete* protocol. kAuto has no spec of its own — it
  // must be resolved to one of the three before the cost layer is consulted.
  [[nodiscard]] constexpr const ProtocolSpec& ProtocolFor(Protocol p) const {
    switch (p) {
      case Protocol::kLL: return ll;
      case Protocol::kLL128: return ll128;
      case Protocol::kSimple:
      case Protocol::kAuto: break;
    }
    return simple;
  }

  // Additive per-invocation flag-synchronization cost: one hop_sync per
  // FIFO slot the wire-inflated chunk occupies.
  [[nodiscard]] constexpr SimTime SlotSyncCost(Protocol p,
                                               std::int64_t wire_bytes) const {
    const ProtocolSpec& spec = ProtocolFor(p);
    const std::int64_t slot = spec.slot.bytes();
    const std::int64_t slots =
        slot > 0 ? (wire_bytes + slot - 1) / slot : std::int64_t{1};
    return spec.hop_sync * static_cast<double>(slots < 1 ? 1 : slots);
  }

  [[nodiscard]] Bandwidth TbInjectionCap(PathKind kind, int warps) const {
    const Bandwidth per_warp =
        kind == PathKind::kIntraNode ? warp_intra : warp_inter;
    return per_warp * static_cast<double>(warps);
  }

};

}  // namespace resccl
