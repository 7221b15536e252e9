// Prepare/Execute split and compiled-plan cache: fingerprint stability,
// prepared-vs-fresh equivalence, LRU eviction, concurrency.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/hierarchical.h"
#include "core/fingerprint.h"
#include "core/plan_io.h"
#include "obs/metrics.h"
#include "runtime/backend.h"
#include "runtime/communicator.h"
#include "runtime/plan_cache.h"
#include "topology/topology.h"

namespace resccl {
namespace {

Algorithm HmAllReduce(const Topology& topo) {
  return algorithms::HierarchicalMeshAllReduce(topo);
}

RunRequest SmallRequest(bool verify = false) {
  RunRequest request;
  request.launch.buffer = Size::MiB(64);
  request.verify = verify;
  return request;
}

// --- Fingerprint -----------------------------------------------------------

TEST(FingerprintTest, DeterministicAcrossCalls) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = HmAllReduce(topo);
  const CompileOptions options = DefaultCompileOptions(BackendKind::kResCCL);
  const Fingerprint a = FingerprintOf(algo, topo.spec(), options);
  const Fingerprint b = FingerprintOf(algo, topo.spec(), options);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.hi | a.lo, 0u);
}

TEST(FingerprintTest, EveryInputFieldChangesTheKey) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = HmAllReduce(topo);
  const TopologySpec spec = topo.spec();
  const CompileOptions options = DefaultCompileOptions(BackendKind::kResCCL);
  const Fingerprint base = FingerprintOf(algo, spec, options);

  std::vector<Fingerprint> keys{base};
  const auto add = [&keys](const Fingerprint& f) {
    for (const Fingerprint& k : keys) EXPECT_FALSE(f == k);
    keys.push_back(f);
  };

  // Algorithm fields.
  {
    Algorithm m = algo;
    m.name += "x";
    add(FingerprintOf(m, spec, options));
  }
  {
    Algorithm m = algo;
    m.root = 1;
    add(FingerprintOf(m, spec, options));
  }
  {
    Algorithm m = algo;
    m.transfers[0].chunk += 1;
    add(FingerprintOf(m, spec, options));
  }
  {
    Algorithm m = algo;
    m.transfers[0].step += 1;
    add(FingerprintOf(m, spec, options));
  }
  {
    Algorithm m = algo;
    m.transfers.pop_back();
    add(FingerprintOf(m, spec, options));
  }

  // Topology-spec fields.
  {
    TopologySpec m = spec;
    m.name += "x";
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.nic = Bandwidth::Gbps(100);
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.nic_gamma += 0.01;
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.trunk_gamma += 0.01;
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.inter_latency = SimTime::Us(7.5);
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.nics_per_node = 2;
    add(FingerprintOf(algo, m, options));
  }
  // Hierarchy / rail fields: a cached plan compiled for one fabric shape
  // must never serve a differently-tiered or differently-railed one.
  {
    TopologySpec m = spec;
    m.nodes_per_rack = 1;
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.racks_per_pod = 2;
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.rail_of_gpu = {0, 0, 1, 1};
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.oversubscription = 2.0;
    add(FingerprintOf(algo, m, options));
  }
  {
    TopologySpec m = spec;
    m.cross_pod_extra = SimTime::Us(4.0);
    add(FingerprintOf(algo, m, options));
  }

  // Compile options.
  {
    CompileOptions m = options;
    m.scheduler = SchedulerKind::kRoundRobin;
    add(FingerprintOf(algo, spec, m));
  }
  {
    CompileOptions m = options;
    m.tb_alloc = TbAllocPolicy::kConnectionBased;
    add(FingerprintOf(algo, spec, m));
  }
  {
    CompileOptions m = options;
    m.mode = ExecutionMode::kStageLevel;
    add(FingerprintOf(algo, spec, m));
  }
  {
    CompileOptions m = options;
    m.engine = RuntimeEngine::kInterpreter;
    add(FingerprintOf(algo, spec, m));
  }
}

// --- Prepare / Execute -----------------------------------------------------

// The trainer times its collectives through Communicator::AllReduce; that
// must equal preparing the backend's default algorithm and executing it.
TEST(PrepareExecuteTest, CommunicatorAllReduceMatchesPrepareExecute) {
  const RunRequest request = SmallRequest(/*verify=*/true);
  for (const BackendKind kind :
       {BackendKind::kResCCL, BackendKind::kMscclLike,
        BackendKind::kNcclLike}) {
    const Communicator comm(presets::A100(2, 4), kind);
    const CollectiveReport via_comm = comm.AllReduce(request);

    const Topology& topo = comm.topology();
    const Result<PreparedPlan> prepared = Prepare(
        DefaultAlgorithm(kind, CollectiveOp::kAllReduce, topo), topo, kind);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const CollectiveReport direct = Execute(*prepared.value(), request);

    EXPECT_EQ(via_comm.elapsed, direct.elapsed) << BackendName(kind);
    EXPECT_EQ(via_comm.algo_bw.gbps(), direct.algo_bw.gbps());
    EXPECT_EQ(via_comm.total_tbs, direct.total_tbs);
    EXPECT_EQ(via_comm.nmicrobatches, direct.nmicrobatches);
    EXPECT_EQ(via_comm.backend, direct.backend);
    EXPECT_TRUE(via_comm.verified) << via_comm.verify_error;
    EXPECT_TRUE(direct.verified) << direct.verify_error;
  }
}

TEST(PrepareExecuteTest, OnePlanSweepsBufferSizes) {
  const Topology topo(presets::A100(2, 4));
  const PreparedPlan plan =
      Prepare(HmAllReduce(topo), topo, BackendKind::kResCCL).value();
  SimTime last = SimTime::Zero();
  for (Size buffer : {Size::MiB(8), Size::MiB(64), Size::MiB(512)}) {
    RunRequest request;
    request.launch.buffer = buffer;
    const CollectiveReport r = Execute(*plan, request);
    EXPECT_GT(r.elapsed, last);  // bigger buffers take longer
    last = r.elapsed;
  }
}

TEST(PrepareExecuteTest, ConcurrentExecuteOfOneSharedPlan) {
  const Topology topo(presets::A100(2, 4));
  const PreparedPlan plan =
      Prepare(HmAllReduce(topo), topo, BackendKind::kResCCL).value();
  const RunRequest request = SmallRequest(/*verify=*/true);
  const CollectiveReport reference = Execute(*plan, request);

  constexpr int kThreads = 8;
  std::vector<CollectiveReport> reports(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&plan, &request, &reports, i] { reports[static_cast<std::size_t>(
              i)] = Execute(*plan, request); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const CollectiveReport& r : reports) {
    EXPECT_EQ(r.elapsed, reference.elapsed);
    EXPECT_TRUE(r.verified);
  }
}

TEST(PrepareExecuteTest, RestoredArtifactExecutesIdentically) {
  const Topology topo(presets::A100(2, 4));
  const PreparedPlan plan =
      Prepare(HmAllReduce(topo), topo, BackendKind::kResCCL).value();

  // Round-trip the compiled plan through the .plan format that `resccl
  // compile` writes and wrap the restored copy as a PreparedCollective: the
  // format carries everything Execute needs.
  const Result<CompiledCollective> loaded =
      LoadPlanFromString(SavePlanToString(plan->plan));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto restored = std::make_shared<PreparedCollective>();
  restored->topo = plan->topo;
  restored->plan = loaded.value();
  restored->backend = plan->backend;

  const RunRequest request = SmallRequest(/*verify=*/true);
  const CollectiveReport a = Execute(*plan, request);
  const CollectiveReport b = Execute(*restored, request);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.total_tbs, b.total_tbs);
  EXPECT_TRUE(b.verified);
}

// --- PlanCache -------------------------------------------------------------

TEST(PlanCacheTest, SecondLookupIsAHit) {
  const auto topo = std::make_shared<const Topology>(presets::A100(2, 4));
  const Algorithm algo = HmAllReduce(*topo);
  const CompileOptions options = DefaultCompileOptions(BackendKind::kResCCL);

  PlanCache cache;
  const PlanCache::Lookup cold =
      cache.GetOrPrepare(algo, topo, options).value();
  const PlanCache::Lookup warm =
      cache.GetOrPrepare(algo, topo, options).value();

  EXPECT_FALSE(cold.hit);
  EXPECT_TRUE(warm.hit);
  EXPECT_EQ(cold.plan.get(), warm.plan.get());  // the same shared artifact
  EXPECT_LT(warm.prepare_us, cold.prepare_us);

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

// A strict-verified plan is verified once: the warm lookup serves the same
// artifact, still carrying its verification record, without re-verifying.
TEST(PlanCacheTest, WarmLookupReusesTheVerifiedArtifact) {
  const auto topo = std::make_shared<const Topology>(presets::A100(2, 4));
  const Algorithm algo = HmAllReduce(*topo);
  CompileOptions strict = DefaultCompileOptions(BackendKind::kResCCL);
  strict.strict_verify = true;

  PlanCache cache;
  const PlanCache::Lookup cold =
      cache.GetOrPrepare(algo, topo, strict, "strict").value();
  const PlanCache::Lookup warm =
      cache.GetOrPrepare(algo, topo, strict, "strict").value();

  EXPECT_FALSE(cold.hit);
  EXPECT_TRUE(warm.hit);
  EXPECT_EQ(cold.plan.get(), warm.plan.get());
  EXPECT_GT(warm.plan->plan.stats.verify_us, 0.0);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCacheTest, PropagatesCompileErrors) {
  const auto topo = std::make_shared<const Topology>(presets::A100(2, 4));
  Algorithm broken = HmAllReduce(*topo);
  broken.transfers[0].dst = broken.transfers[0].src;  // self-transfer
  PlanCache cache;
  const Result<PlanCache::Lookup> r =
      cache.GetOrPrepare(broken, topo, {});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, DefaultCapacityBoundsTheWholeCache) {
  const auto topo = std::make_shared<const Topology>(presets::A100(2, 4));
  const Algorithm algo = HmAllReduce(*topo);

  // 65 distinct keys from one algorithm: nstages is fingerprinted, and
  // task-level execution ignores it.
  std::vector<CompileOptions> options;
  for (int nstages = 1; nstages <= 65; ++nstages) {
    CompileOptions varied = DefaultCompileOptions(BackendKind::kResCCL);
    varied.nstages = nstages;
    options.push_back(varied);
  }
  PlanCache cache;
  const auto hit = [&](std::size_t i) {
    const Result<PlanCache::Lookup> r =
        cache.GetOrPrepare(algo, topo, options[i]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value().hit;
  };

  ASSERT_EQ(PlanCache::kCapacity, 64u);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_FALSE(hit(i)) << "key " << i;
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch the oldest so the second-oldest is least recently used; the 65th
  // insert then evicts exactly that one.
  ASSERT_TRUE(hit(0));
  ASSERT_FALSE(hit(64));
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (i != 1) {
      EXPECT_TRUE(hit(i)) << "key " << i;
    }
  }
  EXPECT_EQ(cache.stats().evictions, 1u);  // hits evict nothing
  EXPECT_FALSE(hit(1));
  EXPECT_EQ(cache.stats().misses, 66u);
}

// --- Communicator integration ---------------------------------------------

TEST(PlanCacheTest, CommunicatorWarmCallHitsAndMatches) {
  const Communicator comm(presets::A100(2, 4), BackendKind::kResCCL);
  const RunRequest request = SmallRequest(/*verify=*/true);

  const CollectiveReport cold = comm.AllReduce(request);
  EXPECT_EQ(comm.plan_cache().stats().misses, 1u);
  const CollectiveReport warm = comm.AllReduce(request);
  EXPECT_EQ(comm.plan_cache().stats().misses, 1u);
  EXPECT_EQ(comm.plan_cache().stats().hits, 1u);
  EXPECT_EQ(warm.elapsed, cold.elapsed);
  EXPECT_EQ(warm.total_tbs, cold.total_tbs);
  EXPECT_TRUE(warm.verified);

  // Different collectives are different keys; a different buffer size is not
  // (lowering happens at Execute time).
  (void)comm.AllGather(request);
  EXPECT_EQ(comm.plan_cache().stats().misses, 2u);
  RunRequest bigger = request;
  bigger.launch.buffer = Size::MiB(256);
  (void)comm.AllReduce(bigger);
  EXPECT_EQ(comm.plan_cache().stats().misses, 2u);
  EXPECT_EQ(comm.plan_cache().stats().hits, 2u);
}

// Replays add no compile time: N Executes of one cached plan publish that
// plan's CompileStats once (from Prepare) and one plan-cache sample per
// lookup (from GetOrPrepare).
TEST(PlanCacheTest, ReplaysCountTheCompileOnce) {
  const Communicator comm(presets::A100(2, 4), BackendKind::kResCCL);
  const RunRequest request = SmallRequest();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.Enable(true);
  for (int i = 0; i < 3; ++i) (void)comm.AllReduce(request);
  reg.Enable(false);

  const Algorithm algo = DefaultAlgorithm(
      BackendKind::kResCCL, CollectiveOp::kAllReduce, comm.topology());
  const auto topo = std::make_shared<const Topology>(comm.topology());
  const CompileOptions options = DefaultCompileOptions(BackendKind::kResCCL);
  const PlanCache::Lookup lookup =
      comm.plan_cache().GetOrPrepare(algo, topo, options).value();
  ASSERT_TRUE(lookup.hit);
  const CompileStats& compile = lookup.plan->plan.stats;
  EXPECT_GT(compile.total_us(), 0.0);
  EXPECT_EQ(reg.counter("compile.analysis_us").value(), compile.analysis_us);
  EXPECT_EQ(reg.counter("compile.scheduling_us").value(),
            compile.scheduling_us);
  EXPECT_EQ(reg.counter("compile.allocation_us").value(),
            compile.allocation_us);
  EXPECT_EQ(reg.counter("compile.lowering_us").value(), compile.lowering_us);
  EXPECT_EQ(reg.counter("compile.verify_us").value(), compile.verify_us);
  EXPECT_EQ(reg.counter("compile.validate_us").value(), compile.validate_us);
  EXPECT_EQ(reg.counter("plan_cache.miss_runs").value(), 1.0);
  EXPECT_EQ(reg.counter("plan_cache.hit_runs").value(), 2.0);
  EXPECT_EQ(reg.counter("run.count").value(), 3.0);
  reg.Reset();
}

// Faults are an Execute-time input: running the same collective under
// several fault scenarios must reuse the one prepared plan, because the
// compile fingerprint never sees the FaultPlan.
TEST(PlanCacheTest, FaultScenariosReuseOnePreparedPlan) {
  const Communicator comm(presets::A100(2, 4), BackendKind::kResCCL);
  const RunRequest request = SmallRequest(/*verify=*/true);

  const CollectiveReport clean = comm.AllReduce(request);
  EXPECT_TRUE(clean.verified);

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    RunRequest faulted = request;
    faulted.faults = FaultPlan::Make(seed, 0.6, comm.topology());
    const CollectiveReport r = comm.AllReduce(faulted);
    EXPECT_TRUE(r.verified) << r.verify_error;
    EXPECT_TRUE(r.fault.faulted);
    EXPECT_GE(r.fault.slowdown_vs_clean, 1.0 - 1e-9);
    EXPECT_EQ(r.fault.clean_makespan, clean.elapsed);
  }

  EXPECT_EQ(comm.plan_cache().stats().misses, 1u);
  EXPECT_EQ(comm.plan_cache().stats().hits, 3u);
}

TEST(FingerprintTest, InsensitiveToFaultInputs) {
  // The fingerprint is a function of (algorithm, topology, options) only —
  // there is no overload taking a FaultPlan, so two requests differing only
  // in faults resolve to the same cached plan. Assert the key stays put
  // when everything the fingerprint does see is held fixed.
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = HmAllReduce(topo);
  const CompileOptions options = DefaultCompileOptions(BackendKind::kResCCL);
  const Fingerprint before = FingerprintOf(algo, topo.spec(), options);

  RunRequest faulted = SmallRequest();
  faulted.faults = FaultPlan::Make(99, 1.0, topo);
  const PreparedPlan plan = Prepare(algo, topo, BackendKind::kResCCL).value();
  (void)Execute(*plan, faulted);

  EXPECT_EQ(FingerprintOf(algo, topo.spec(), options), before);
}

TEST(PlanCacheTest, CommunicatorsShareAnInjectedCache) {
  auto cache = std::make_shared<PlanCache>();
  const Communicator a(presets::A100(2, 4), BackendKind::kResCCL, cache);
  const Communicator b(presets::A100(2, 4), BackendKind::kResCCL, cache);
  const RunRequest request = SmallRequest();

  (void)a.AllReduce(request);
  (void)b.AllReduce(request);  // same spec, same key: a hit
  EXPECT_EQ(&a.plan_cache(), &b.plan_cache());
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

}  // namespace
}  // namespace resccl
