// Deterministic compiled-plan fingerprints.
//
// A plan is fully determined by (Algorithm IR, TopologySpec, CompileOptions):
// the compiler is deterministic, so two identical input triples always yield
// the same artifact. FingerprintOf hashes every field of that triple into a
// 128-bit key that is stable across processes and platforms; the PlanCache
// uses it as the cache key.
//
// The hash is two independent FNV-1a 64-bit lanes over a canonical byte
// serialization (fixed-width little-endian fields, length-prefixed strings).
// It is NOT cryptographic: it guards against accidental collisions and
// corrupted artifacts, not adversaries.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/algorithm.h"
#include "core/compiler.h"
#include "topology/topology.h"

namespace resccl {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

// Hash functor for unordered containers keyed by Fingerprint.
struct FingerprintHash {
  [[nodiscard]] std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL));
  }
};

// Fingerprints the full compile-input triple. Every field of the algorithm
// (name, collective, shape, every transfer), the topology spec (counts,
// bandwidths, latencies, contention gammas), and the compile options feeds
// the hash, so any change to any input yields a different key.
[[nodiscard]] Fingerprint FingerprintOf(const Algorithm& algo,
                                        const TopologySpec& topo,
                                        const CompileOptions& options);

}  // namespace resccl
