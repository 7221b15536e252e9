#include "algorithms/synthesized.h"

#include "algorithms/assembly.h"
#include "common/check.h"

namespace resccl::algorithms {

namespace {

void Emit(Algorithm& algo, int src, int dst, int step, int chunk) {
  if (src == dst) return;
  Transfer t;
  t.src = src;
  t.dst = dst;
  t.step = step;
  t.chunk = chunk;
  t.op = TransferOp::kRecv;
  algo.transfers.push_back(t);
}

}  // namespace

Algorithm TacclLikeAllGather(const Topology& topo) {
  const int nodes = topo.nodes();
  const int gpus = topo.gpus_per_node();
  const int nranks = topo.nranks();
  RESCCL_CHECK(nranks >= 2);

  Algorithm algo;
  algo.name = "taccl_like_allgather";
  algo.collective = CollectiveOp::kAllGather;
  algo.nranks = nranks;
  algo.nchunks = nranks;

  // The "communication sketch" pinned all inter-node flows to the GPUs of
  // NIC 0 — the uneven link load §5.4 attributes to the solver abstraction.
  const int nrelays = std::max(1, topo.GpusPerNic());

  for (int c = 0; c < nranks; ++c) {
    const int owner = c;
    const int owner_node = owner / gpus;
    const int relay_local = c % nrelays;  // all on NIC 0
    const int owner_relay = owner_node * gpus + relay_local;

    // Step 0: funnel the chunk to the owner node's relay.
    Emit(algo, owner, owner_relay, 0, c);

    // Steps 1..: relay fan-out to every other node's matching relay.
    int step = 1;
    for (int m = 0; m < nodes; ++m) {
      if (m == owner_node) continue;
      Emit(algo, owner_relay, m * gpus + relay_local, step++, c);
    }

    // Local distribution on every node, after all network hops.
    const int dist_base = nodes;  // > every inter-node step above
    for (int m = 0; m < nodes; ++m) {
      const int relay = m * gpus + relay_local;
      for (int offset = 0; offset + 1 < gpus; ++offset) {
        const int dst = m * gpus + (relay_local + offset + 1) % gpus;
        if (dst == owner) continue;  // the owner already has its chunk
        Emit(algo, relay, dst, dist_base + offset, c);
      }
    }
  }
  return algo;
}

Algorithm TacclLikeAllReduce(const Topology& topo) {
  Algorithm ar = AssembleAllReduce(TacclLikeAllGather(topo));
  ar.name = "taccl_like_allreduce";
  return ar;
}

Algorithm TecclLikeAllGather(const Topology& topo) {
  const int nodes = topo.nodes();
  const int gpus = topo.gpus_per_node();
  const int nranks = topo.nranks();
  RESCCL_CHECK(nranks >= 2);

  Algorithm algo;
  algo.name = "teccl_like_allgather";
  algo.collective = CollectiveOp::kAllGather;
  algo.nranks = nranks;
  algo.nchunks = nranks;

  // Flow decomposition collapsed onto single chains: one relay per node
  // (local GPU 0), a ring between relays, and a serial intra-node pipeline
  // below each relay — long dependency tails, one busy NIC.
  for (int c = 0; c < nranks; ++c) {
    const int owner = c;
    const int owner_node = owner / gpus;

    // Step 0: owner hands the chunk to its node relay (local GPU 0).
    const int owner_relay = owner_node * gpus;
    Emit(algo, owner, owner_relay, 0, c);

    // Ring over the relays: nodes owner_node+1, +2, ...
    for (int hop = 0; hop + 1 < nodes; ++hop) {
      const int src = ((owner_node + hop) % nodes) * gpus;
      const int dst = ((owner_node + hop + 1) % nodes) * gpus;
      Emit(algo, src, dst, 1 + hop, c);
    }

    // Serial local chain below each relay: 0 -> 1 -> 2 -> ... per node.
    const int chain_base = nodes;  // after every relay hop
    for (int m = 0; m < nodes; ++m) {
      for (int i = 0; i + 1 < gpus; ++i) {
        const int src = m * gpus + i;
        const int dst = m * gpus + i + 1;
        // The owner sits mid-chain with its own chunk: skip the hop into it;
        // the chain continues out of it unchanged.
        if (dst == owner) continue;
        Emit(algo, src, dst, chain_base + i, c);
      }
    }
  }
  return algo;
}

Algorithm TecclLikeAllReduce(const Topology& topo) {
  Algorithm ar = AssembleAllReduce(TecclLikeAllGather(topo));
  ar.name = "teccl_like_allreduce";
  return ar;
}

}  // namespace resccl::algorithms
