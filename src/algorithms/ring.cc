#include "algorithms/ring.h"

#include "algorithms/emit_util.h"
#include "common/check.h"

namespace resccl::algorithms {

Algorithm RingAllGather(int nranks) {
  RESCCL_CHECK(nranks >= 2);
  Algorithm algo;
  algo.name = "ring_allgather";
  algo.collective = CollectiveOp::kAllGather;
  algo.nranks = nranks;
  algo.nchunks = nranks;
  // Step s: chunk c moves from rank (c+s) to rank (c+s+1).
  for (int s = 0; s < nranks - 1; ++s) {
    for (ChunkId c = 0; c < nranks; ++c) {
      Emit(algo, Mod(c + s, nranks), Mod(c + s + 1, nranks), s, c,
           TransferOp::kRecv);
    }
  }
  return algo;
}

Algorithm RingReduceScatter(int nranks) {
  RESCCL_CHECK(nranks >= 2);
  Algorithm algo;
  algo.name = "ring_reducescatter";
  algo.collective = CollectiveOp::kReduceScatter;
  algo.nranks = nranks;
  algo.nchunks = nranks;
  // Step s: chunk c moves from rank (c+1+s) to (c+2+s), reducing; after
  // N−1 steps the accumulated chunk c arrives at rank c.
  for (int s = 0; s < nranks - 1; ++s) {
    for (ChunkId c = 0; c < nranks; ++c) {
      Emit(algo, Mod(c + 1 + s, nranks), Mod(c + 2 + s, nranks), s, c,
           TransferOp::kRecvReduceCopy);
    }
  }
  return algo;
}

Algorithm RingAllReduce(int nranks) {
  Algorithm algo = RingReduceScatter(nranks);
  algo.name = "ring_allreduce";
  algo.collective = CollectiveOp::kAllReduce;
  // AllGather phase: chunk c (now complete at rank c) circulates.
  for (int s = 0; s < nranks - 1; ++s) {
    for (ChunkId c = 0; c < nranks; ++c) {
      Emit(algo, Mod(c + s, nranks), Mod(c + s + 1, nranks), nranks - 1 + s,
           c, TransferOp::kRecv);
    }
  }
  return algo;
}

namespace {

// Rank at ring position p of channel k: nodes in order, each node's GPUs
// rotated by k * gpus_per_nic so channel k crosses nodes on NIC k.
int RingRank(const Topology& topo, int k, int p) {
  const int gpus = topo.gpus_per_node();
  const int node = p / gpus;
  const int rotation = (k * topo.GpusPerNic()) % gpus;
  return node * gpus + (p % gpus + rotation) % gpus;
}

// Ring position of rank r in channel k (inverse of RingRank).
int RingPos(const Topology& topo, int k, int r) {
  const int gpus = topo.gpus_per_node();
  const int rotation = (k * topo.GpusPerNic()) % gpus;
  return (r / gpus) * gpus + ((r % gpus) - rotation + gpus) % gpus;
}

Algorithm MultiChannelRing(const Topology& topo, int nchannels,
                           CollectiveOp op, const char* name) {
  RESCCL_CHECK(nchannels >= 1);
  const int nranks = topo.nranks();
  RESCCL_CHECK(nranks >= 2);
  Algorithm algo;
  algo.name = name;
  algo.collective = op;
  algo.nranks = nranks;
  algo.nchunks = nranks;

  for (ChunkId c = 0; c < nranks; ++c) {
    const int k = c % nchannels;
    const int home = RingPos(topo, k, c);
    if (op != CollectiveOp::kAllGather) {
      // Reduce phase: accumulate around ring k, homing chunk c at rank c.
      for (int s = 0; s < nranks - 1; ++s) {
        Emit(algo, RingRank(topo, k, (home + 1 + s) % nranks),
             RingRank(topo, k, (home + 2 + s) % nranks), s, c,
             TransferOp::kRecvReduceCopy);
      }
    }
    if (op != CollectiveOp::kReduceScatter) {
      // Gather phase: circulate chunk c from its (now complete) home.
      const int base = op == CollectiveOp::kAllReduce ? nranks - 1 : 0;
      for (int s = 0; s < nranks - 1; ++s) {
        Emit(algo, RingRank(topo, k, (home + s) % nranks),
             RingRank(topo, k, (home + s + 1) % nranks), base + s, c,
             TransferOp::kRecv);
      }
    }
  }
  return algo;
}

}  // namespace

Algorithm MultiChannelRingAllGather(const Topology& topo, int nchannels) {
  return MultiChannelRing(topo, nchannels, CollectiveOp::kAllGather,
                          "ring_mc_allgather");
}

Algorithm MultiChannelRingReduceScatter(const Topology& topo, int nchannels) {
  return MultiChannelRing(topo, nchannels, CollectiveOp::kReduceScatter,
                          "ring_mc_reducescatter");
}

Algorithm MultiChannelRingAllReduce(const Topology& topo, int nchannels) {
  return MultiChannelRing(topo, nchannels, CollectiveOp::kAllReduce,
                          "ring_mc_allreduce");
}

}  // namespace resccl::algorithms
