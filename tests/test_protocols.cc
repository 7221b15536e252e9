// Transport protocol tests (Table 2): Simple vs LL vs LL128 trade latency
// against bandwidth, producing the classic crossover across message sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algorithms/recursive.h"
#include "algorithms/ring.h"
#include "runtime/communicator.h"
#include "runtime/exec_context.h"
#include "topology/topology.h"

namespace resccl {
namespace {

SimTime Elapsed(const Topology& topo, const Algorithm& algo, Protocol proto,
                Size buffer, Size chunk) {
  RunRequest request;
  request.launch.buffer = buffer;
  request.launch.chunk = chunk;
  request.launch.protocol = proto;
  request.verify = true;
  const CollectiveReport r =
      Execute(*Prepare(algo, topo, BackendKind::kResCCL).value(), request);
  EXPECT_TRUE(r.verified) << r.verify_error;
  return r.elapsed;
}

TEST(ProtocolTest, NamesAreStable) {
  EXPECT_STREQ(ProtocolName(Protocol::kSimple), "Simple");
  EXPECT_STREQ(ProtocolName(Protocol::kLL), "LL");
  EXPECT_STREQ(ProtocolName(Protocol::kLL128), "LL128");
  EXPECT_STREQ(ProtocolName(Protocol::kAuto), "Auto");
}

// The bench's chunk derivation: a fixed micro-batch target, with the batch
// count (not the chunk) clamped when the buffer is too small for it.
Size AutoChunk(Size buffer, int nchunks) {
  const std::int64_t max_mb =
      buffer.bytes() / (1024 * static_cast<std::int64_t>(nchunks));
  const std::int64_t mb = std::clamp<std::int64_t>(max_mb, 1, 8);
  return Size::Bytes(
      std::max<std::int64_t>(buffer.bytes() / (mb * nchunks), 1));
}

// The crossover model picks LL for the smallest messages, Simple for the
// largest, and never switches back as the buffer grows: the per-invocation
// intercepts order LL < LL128 < Simple while the wire slopes order the
// opposite way, so each pairwise crossover is a single point.
TEST(ProtocolTest, AutoResolvesMonotoneCrossover) {
  const Topology topo(presets::A100(2, 8));
  CostModel cost;
  const int nchunks = 16;
  const auto rank_of = [](Protocol p) {
    return p == Protocol::kLL ? 0 : p == Protocol::kLL128 ? 1 : 2;
  };
  std::vector<Protocol> picks;
  for (const Size buffer : {Size::KiB(64), Size::KiB(256), Size::MiB(1),
                            Size::MiB(8), Size::MiB(64), Size::MiB(512)}) {
    LaunchConfig launch;
    launch.buffer = buffer;
    launch.chunk = AutoChunk(buffer, nchunks);
    launch.protocol = Protocol::kAuto;
    const Protocol picked = ResolveProtocol(topo, cost, launch, nchunks);
    EXPECT_NE(picked, Protocol::kAuto);
    picks.push_back(picked);
  }
  EXPECT_EQ(picks.front(), Protocol::kLL);
  EXPECT_EQ(picks.back(), Protocol::kSimple);
  for (std::size_t i = 1; i < picks.size(); ++i) {
    EXPECT_GE(rank_of(picks[i]), rank_of(picks[i - 1]))
        << "auto pick regressed at grid point " << i;
  }
}

// An explicit protocol passes through ResolveProtocol untouched, whatever
// the message size says.
TEST(ProtocolTest, ExplicitProtocolIsNeverOverridden) {
  const Topology topo(presets::A100(2, 8));
  CostModel cost;
  for (const Protocol proto :
       {Protocol::kSimple, Protocol::kLL, Protocol::kLL128}) {
    for (const Size buffer : {Size::KiB(64), Size::MiB(512)}) {
      LaunchConfig launch;
      launch.buffer = buffer;
      launch.protocol = proto;
      EXPECT_EQ(ResolveProtocol(topo, cost, launch, 16), proto);
    }
  }
}

// kAuto resolution happens before the ExecContext lowering-cache key is
// taken, so auto and explicit requests that land on the same protocol share
// one cache entry (bit-identical results), and alternating auto requests
// that resolve differently never serve each other's lowered program.
TEST(ProtocolTest, AutoNeverAliasesLoweringCacheEntries) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::RingAllGather(16);
  const Result<PreparedPlan> prepared =
      Prepare(algo, topo, BackendKind::kResCCL);
  ASSERT_TRUE(prepared.ok());

  const Size small = Size::KiB(64);
  const Size large = Size::MiB(512);
  const auto request = [&](Size buffer, Protocol proto) {
    RunRequest r;
    r.launch.buffer = buffer;
    r.launch.chunk = AutoChunk(buffer, algo.nchunks);
    r.launch.protocol = proto;
    return r;
  };

  ExecContext ctx;
  const CollectiveReport auto_small =
      ctx.Execute(prepared.value(), request(small, Protocol::kAuto));
  ASSERT_EQ(auto_small.protocol, Protocol::kLL);
  EXPECT_TRUE(auto_small.protocol_auto);
  const double auto_small_us = auto_small.elapsed.us();

  // Explicit LL at the same geometry: same resolved key, same cached
  // program, bit-identical elapsed — and the report says the choice was
  // the caller's, not auto's.
  const CollectiveReport explicit_ll =
      ctx.Execute(prepared.value(), request(small, Protocol::kLL));
  EXPECT_EQ(explicit_ll.elapsed.us(), auto_small_us);
  EXPECT_FALSE(explicit_ll.protocol_auto);

  // A large auto request must re-lower for Simple, not reuse the LL entry.
  const CollectiveReport auto_large =
      ctx.Execute(prepared.value(), request(large, Protocol::kAuto));
  ASSERT_EQ(auto_large.protocol, Protocol::kSimple);
  const double auto_large_us = auto_large.elapsed.us();
  ExecContext fresh;
  EXPECT_EQ(fresh.Execute(prepared.value(), request(large, Protocol::kSimple))
                .elapsed.us(),
            auto_large_us);

  // And back: the small auto request reproduces its original result after
  // the cache held the Simple entry in between.
  EXPECT_EQ(ctx.Execute(prepared.value(), request(small, Protocol::kAuto))
                .elapsed.us(),
            auto_small_us);
}

TEST(ProtocolTest, LlWinsAtSmallMessages) {
  // Latency-dominated regime: a long forwarding chain of tiny chunks, where
  // each hop's handshake dominates its byte time.
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo = algorithms::RingAllGather(16);
  const Size buffer = Size::KiB(64);
  const Size chunk = Size::KiB(4);
  const SimTime simple =
      Elapsed(topo, algo, Protocol::kSimple, buffer, chunk);
  const SimTime ll = Elapsed(topo, algo, Protocol::kLL, buffer, chunk);
  EXPECT_LT(ll, simple);
}

TEST(ProtocolTest, SimpleWinsAtLargeMessages) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo =
      algorithms::MultiChannelRingAllGather(topo, 4);
  const Size buffer = Size::MiB(512);
  const SimTime simple =
      Elapsed(topo, algo, Protocol::kSimple, buffer, Size::MiB(1));
  const SimTime ll = Elapsed(topo, algo, Protocol::kLL, buffer, Size::MiB(1));
  // LL halves effective bandwidth: roughly 2x slower when bandwidth-bound.
  EXPECT_GT(ll / simple, 1.5);
}

TEST(ProtocolTest, Ll128SitsBetween) {
  const Topology topo(presets::A100(2, 8));
  const Algorithm algo =
      algorithms::MultiChannelRingAllGather(topo, 4);
  const Size buffer = Size::MiB(256);
  const SimTime simple =
      Elapsed(topo, algo, Protocol::kSimple, buffer, Size::MiB(1));
  const SimTime ll128 =
      Elapsed(topo, algo, Protocol::kLL128, buffer, Size::MiB(1));
  const SimTime ll = Elapsed(topo, algo, Protocol::kLL, buffer, Size::MiB(1));
  EXPECT_LT(ll128, ll);            // far better bandwidth than LL
  EXPECT_LT(ll128 / simple, 1.15); // within ~15% of Simple when bw-bound
}

TEST(ProtocolTest, AllProtocolsVerifyEveryCollective) {
  const Topology topo(presets::A100(2, 4));
  for (Protocol proto : {Protocol::kSimple, Protocol::kLL, Protocol::kLL128}) {
    for (CollectiveOp op : {CollectiveOp::kAllGather, CollectiveOp::kAllReduce,
                            CollectiveOp::kReduceScatter}) {
      const Algorithm algo = DefaultAlgorithm(BackendKind::kResCCL, op, topo);
      RunRequest request;
      request.launch.buffer = Size::MiB(8);
      request.launch.chunk = Size::KiB(256);
      request.launch.protocol = proto;
      request.verify = true;
      const Result<PreparedPlan> prepared =
          Prepare(algo, topo, BackendKind::kResCCL);
      ASSERT_TRUE(prepared.ok());
      const CollectiveReport r = Execute(*prepared.value(), request);
      EXPECT_TRUE(r.verified)
          << ProtocolName(proto) << " " << CollectiveOpName(op) << ": "
          << r.verify_error;
    }
  }
}

}  // namespace
}  // namespace resccl
