// Randomized property tests for the struct-of-arrays fluid hot path.
//
// Two layers, bottom up:
//
//  1. PathSpanArena against a shadow model: 200 seeds of random
//     allocate/release churn, asserting after every operation that each
//     live span still reads back its exact path, that live spans never
//     overlap a pool cell (claim map), and that the arena's global
//     accounting balances to the cell: pool == live cells + free cells.
//
//  2. FluidNetwork under a randomized flow workload: the incremental
//     (aggregated-bucket) re-rate walk must match the trace-replay
//     reference (fluid_reference.h) on every completion time to 1e-9
//     relative tolerance (the deferred flush reassociates fp sums — see
//     fluid.h — so agreement is fp-tight, not bit-exact), repeat runs must
//     be bit-identical, and DebugValidate must hold mid-run.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fluid_reference.h"
#include "sim/event_queue.h"
#include "sim/fluid.h"
#include "sim/span_arena.h"
#include "topology/topology.h"

namespace resccl {
namespace {

TEST(PathSpanArenaProperty, RandomChurnKeepsSpansIntactAndAccounted) {
  constexpr int kSeeds = 200;
  constexpr int kOps = 250;
  for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 rng(seed);
    PathSpanArena arena;
    struct LiveSpan {
      PathSpanArena::Span span;
      std::vector<ResourceId> path;
    };
    std::vector<LiveSpan> live;
    std::vector<char> claimed;  // scratch reused by the disjointness check

    for (int op = 0; op < kOps; ++op) {
      const bool allocate = live.empty() || rng() % 100 < 55;
      if (allocate) {
        const std::size_t len = 1 + rng() % 9;
        std::vector<ResourceId> path(len);
        for (ResourceId& r : path) {
          r = ResourceId(static_cast<std::int32_t>(rng() % 512));
        }
        const PathSpanArena::Span s = arena.Allocate(path);
        ASSERT_TRUE(arena.SpanInBounds(s));
        ASSERT_EQ(s.len, len);
        live.push_back({s, std::move(path)});
      } else {
        const std::size_t k = rng() % live.size();
        arena.Release(live[k].span);
        live[k] = std::move(live.back());
        live.pop_back();
      }

      // Content integrity: every live span reads back its exact path.
      ASSERT_EQ(arena.live_spans(), live.size());
      std::size_t live_cells = 0;
      for (const LiveSpan& ls : live) {
        const std::span<const ResourceId> got = arena.resources(ls.span);
        ASSERT_EQ(got.size(), ls.path.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], ls.path[i]) << "seed " << seed << " op " << op;
        }
        live_cells += ls.span.len;
      }
      // Exact accounting: a span is either live or parked on a free list,
      // and the pool never holds cells that are neither.
      ASSERT_EQ(arena.pool_size(), live_cells + arena.FreeCells())
          << "seed " << seed << " op " << op;

      // Disjointness: no pool cell belongs to two live spans (and no live
      // span overlaps a free-listed one — free cells are counted above, so
      // an overlap would already have broken the balance; this checks
      // live-vs-live directly).
      if (op % 25 == 24) {
        claimed.assign(arena.pool_size(), 0);
        for (const LiveSpan& ls : live) {
          for (std::uint32_t c = ls.span.begin;
               c < ls.span.begin + ls.span.len; ++c) {
            ASSERT_EQ(claimed[c], 0)
                << "cell " << c << " claimed twice, seed " << seed;
            claimed[c] = 1;
          }
        }
      }
    }
  }
}

// One deterministic random workload: `nflows` flows over real topology
// resources, started at staggered times, each recording its completion
// time. Paths sample distinct resources (a path visits a resource at most
// once — a FluidNetwork precondition).
struct FlowSpec {
  Path path;
  std::int64_t bytes = 0;
  Bandwidth cap;
  SimTime start;
};

std::vector<FlowSpec> MakeWorkload(const Topology& topo, std::uint32_t seed,
                                   int nflows) {
  std::mt19937 rng(seed);
  const auto nres = static_cast<std::uint32_t>(topo.resources().size());
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<std::size_t>(nflows));
  for (int i = 0; i < nflows; ++i) {
    FlowSpec s;
    const std::size_t len = 2 + rng() % 4;
    while (s.path.resources.size() < len) {
      const ResourceId r(static_cast<std::int32_t>(rng() % nres));
      bool dup = false;
      for (ResourceId seen : s.path.resources) dup = dup || seen == r;
      if (!dup) s.path.resources.push_back(r);
    }
    s.bytes = 100'000 + static_cast<std::int64_t>(rng() % 10'000'000);
    s.cap = Bandwidth::GBps(2.0 + static_cast<double>(rng() % 40));
    s.start = SimTime::Us(static_cast<double>(rng() % 500));
    specs.push_back(std::move(s));
  }
  return specs;
}

// Runs the workload and returns per-flow completion times (indexed by flow
// number; every flow must complete).
std::vector<double> RunWorkload(const Topology& topo,
                                const std::vector<FlowSpec>& specs) {
  const CostModel cost;
  EventQueue queue;
  FluidNetwork net(topo, cost, queue);
  std::vector<double> done_us(specs.size(), -1.0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const FlowSpec* spec = &specs[i];
    FluidNetwork* netp = &net;
    std::vector<double>* done = &done_us;
    queue.Schedule(spec->start, [netp, spec, done, i](SimTime) {
      netp->StartFlow(spec->path, spec->bytes, spec->cap,
                      [done, i](SimTime t) { (*done)[i] = t.us(); });
    });
  }
  std::uint64_t steps = 0;
  while (queue.RunOne()) {
    if (++steps % 64 == 0) net.DebugValidate();
  }
  net.DebugValidate();
  EXPECT_EQ(net.ActiveFlowCount(), 0);
  for (std::size_t i = 0; i < done_us.size(); ++i) {
    EXPECT_GE(done_us[i], 0.0) << "flow " << i << " never completed";
  }
  return done_us;
}

TEST(FluidNetworkProperty, WalkMatchesReferenceOnRandomWorkloads) {
  const Topology topo(presets::A100(2, 8));
  constexpr int kSeeds = 20;
  constexpr int kFlows = 120;
  for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
    const std::vector<FlowSpec> specs = MakeWorkload(topo, seed, kFlows);
    const std::vector<double> incr = RunWorkload(topo, specs);
    std::vector<tests::ReferenceFlow> flows;
    for (const FlowSpec& s : specs) {
      flows.push_back({s.start, s.bytes, s.cap.bytes_per_us(),
                       s.path.resources});
    }
    const tests::ReferenceResult ref = tests::SolveReference(topo, flows);
    for (std::size_t i = 0; i < incr.size(); ++i) {
      const double want = ref.complete[i].us();
      const double scale = std::max(std::abs(incr[i]), std::abs(want));
      const double relerr = scale > 0 ? std::abs(incr[i] - want) / scale : 0.0;
      ASSERT_LE(relerr, 1e-9)
          << "seed " << seed << " flow " << i << ": incremental " << incr[i]
          << "us vs reference " << want << "us";
    }
    // Repeat runs are exact, not merely within tolerance.
    ASSERT_EQ(incr, RunWorkload(topo, specs))
        << "seed " << seed << ": repeat incremental run diverged";
  }
}

}  // namespace
}  // namespace resccl
