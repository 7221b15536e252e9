#include "lang/emit.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace resccl::lang {

namespace {

const char* OpTypeName(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kAllGather: return "Allgather";
    case CollectiveOp::kAllReduce: return "Allreduce";
    case CollectiveOp::kReduceScatter: return "Reducescatter";
    case CollectiveOp::kBroadcast: return "Broadcast";
    case CollectiveOp::kReduce: return "Reduce";
  }
  return "Allreduce";
}

}  // namespace

Result<std::string> EmitSource(const Algorithm& algo) {
  if (const Status valid = algo.Validate(); !valid.ok()) {
    return Status::InvalidArgument("cannot emit: " + valid.message());
  }
  if (algo.nchunks != algo.nranks) {
    return Status::InvalidArgument("ResCCLang fixes nchunks == nranks");
  }

  // Emit transfers grouped by step so the program reads as the algorithm's
  // timeline.
  std::vector<std::size_t> order(algo.transfers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return algo.transfers[a].step < algo.transfers[b].step;
  });

  std::ostringstream os;
  os << "# Emitted by resccl::lang::EmitSource from algorithm '" << algo.name
     << "'\n";
  os << "def ResCCLAlgo(nRanks=" << algo.nranks << ", AlgoName=\"" << algo.name
     << "\", OpType=\"" << OpTypeName(algo.collective) << "\"";
  if (algo.root != 0) os << ", Root=" << algo.root;
  os << "):\n";
  Step current = -1;
  for (std::size_t i : order) {
    const Transfer& t = algo.transfers[i];
    if (t.step != current) {
      current = t.step;
      os << "    # step " << current << "\n";
    }
    os << "    transfer(" << t.src << ", " << t.dst << ", " << t.step << ", "
       << t.chunk << ", "
       << (t.op == TransferOp::kRecvReduceCopy ? "rrc" : "recv") << ")\n";
  }
  return os.str();
}

std::string HierarchicalMeshAllReduceSource(int nodes, int gpus) {
  std::ostringstream os;
  os << "def ResCCLAlgo(nRanks=" << nodes * gpus
     << ", AlgoName=\"HM\", OpType=\"Allreduce\"):\n"
     << "    nNodes = " << nodes << "\n"
     << "    nGpus = " << gpus << "\n"
     << "    nChunks = nNodes * nGpus\n"
     // Stage 1: intra-node full-mesh ReduceScatter.
     << "    for n in range(0, nNodes):\n"
     << "        for r in range(0, nGpus):\n"
     << "            for x in range(0, nNodes):\n"
     << "                for o in range(0, nGpus - 1):\n"
     << "                    src = nGpus * n + r\n"
     << "                    dst = (r + o + 1) % nGpus + nGpus * n\n"
     << "                    transfer(src, dst, x * (nGpus - 1) + o, (dst + x "
        "* nGpus) % nChunks, rrc)\n"
     // Stage 2: inter-node ring ReduceScatter homing chunk c at rank c.
     << "    for c in range(0, nChunks):\n"
     << "        for b in range(0, nNodes - 1):\n"
     << "            transfer((c + (b + 1) * nGpus) % nChunks, (c + (b + 2) * "
        "nGpus) % nChunks, nNodes * (nGpus - 1) + b, c, rrc)\n"
     // Stage 3: inter-node ring AllGather.
     << "    for c in range(0, nChunks):\n"
     << "        for b in range(0, nNodes - 1):\n"
     << "            transfer((c + b * nGpus) % nChunks, (c + (b + 1) * nGpus) "
        "% nChunks, nNodes * (nGpus - 1) + nNodes - 1 + b, c, recv)\n"
     // Stage 4: intra-node full-mesh AllGather.
     << "    for n in range(0, nNodes):\n"
     << "        for r in range(0, nGpus):\n"
     << "            for x in range(0, nNodes):\n"
     << "                for o in range(0, nGpus - 1):\n"
     << "                    src = nGpus * n + r\n"
     << "                    dst = (r + o + 1) % nGpus + nGpus * n\n"
     << "                    transfer(src, dst, nNodes * (nGpus - 1) + 2 * "
        "nNodes - 2 + x, (r + x * nGpus) % nChunks, recv)\n";
  return os.str();
}

}  // namespace resccl::lang
