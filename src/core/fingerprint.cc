#include "core/fingerprint.h"

#include <bit>
#include <cstddef>
#include <string>

namespace resccl {

namespace {

// Two FNV-1a lanes with distinct offset bases; the second lane additionally
// perturbs each byte so the lanes stay decorrelated on low-entropy input.
class Hasher {
 public:
  void Byte(std::uint8_t b) {
    hi_ = (hi_ ^ b) * kPrime;
    lo_ = (lo_ ^ (b + 0x9eU)) * kPrime;
  }

  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void I32(std::int32_t v) {
    U64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

  void String(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] Fingerprint Finish() const { return {hi_, lo_}; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hi_ = 0xcbf29ce484222325ULL;  // FNV offset basis
  std::uint64_t lo_ = 0x84222325cbf29ce4ULL;  // rotated basis for lane two
};

}  // namespace

Fingerprint FingerprintOf(const Algorithm& algo, const TopologySpec& topo,
                          const CompileOptions& options) {
  Hasher h;

  // Algorithm IR.
  h.String(algo.name);
  h.I32(static_cast<std::int32_t>(algo.collective));
  h.I32(algo.nranks);
  h.I32(algo.nchunks);
  h.I32(algo.root);
  h.U64(algo.transfers.size());
  for (const Transfer& t : algo.transfers) {
    h.I32(t.src);
    h.I32(t.dst);
    h.I32(t.step);
    h.I32(t.chunk);
    h.I32(static_cast<std::int32_t>(t.op));
  }

  // TopologySpec.
  h.String(topo.name);
  h.I32(topo.nodes);
  h.I32(topo.gpus_per_node);
  h.I32(topo.nics_per_node);
  h.I32(topo.nodes_per_rack);
  h.I32(topo.racks_per_pod);
  h.U64(topo.rail_of_gpu.size());
  for (const int rail : topo.rail_of_gpu) h.I32(rail);
  h.I32(topo.channels_per_peer);
  h.F64(topo.oversubscription);
  h.F64(topo.cross_pod_extra.us());
  h.F64(topo.gpu_fabric.gbps());
  h.F64(topo.pcie.gbps());
  h.F64(topo.nic.gbps());
  h.F64(topo.intra_latency.us());
  h.F64(topo.inter_latency.us());
  h.F64(topo.cross_rack_extra.us());
  h.F64(topo.fabric_gamma);
  h.F64(topo.nic_gamma);
  h.F64(topo.trunk_gamma);

  // CompileOptions. strict_verify is deliberately NOT hashed: verification
  // gates a Prepare call but never changes the compiled artifact, so strict
  // and non-strict callers must land on the same cache entry.
  h.I32(static_cast<std::int32_t>(options.scheduler));
  h.I32(static_cast<std::int32_t>(options.tb_alloc));
  h.I32(static_cast<std::int32_t>(options.mode));
  h.I32(static_cast<std::int32_t>(options.engine));
  h.I32(options.nstages);

  return h.Finish();
}

}  // namespace resccl
