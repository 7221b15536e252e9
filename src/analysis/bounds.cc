#include "analysis/bounds.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"

namespace resccl {
namespace {

// Bytes that must leave (`out`) and enter (`in`) a proper subset of ranks.
struct GroupDemand {
  double out = 0;
  double in = 0;
};

// Entropy/counting demands for a rank group. `origins` counts the chunk
// classes whose origin/home rank lies inside the group (classes beyond the
// rank count have no postcondition and contribute nothing), `class_bytes`
// is the payload one chunk class moves across the whole launch, and
// `total_bytes` the rank's full effective buffer.
//
//   AllGather      every origin class inside must reach the outside; every
//                  origin class outside must come in.
//   ReduceScatter  the group's *combined* partial for each outside-homed
//                  class must leave (one class worth of bytes suffices, so
//                  this is the floor); each inside home needs the outside's
//                  combined partial.
//   AllReduce      the result everywhere depends on the group's combined
//                  contribution (full buffer out) and on the outside's
//                  (full buffer in) — conditional-entropy argument: given
//                  everything the other side knows, the result determines
//                  the group's combined contribution exactly.
//   Broadcast      the root's buffer must leave its side once and reach
//                  every rank on the other side.
//   Reduce         the mirror image.
[[nodiscard]] GroupDemand DemandFor(CollectiveOp op, int total_origins,
                                    int origins, bool has_root,
                                    double class_bytes, double total_bytes) {
  GroupDemand d;
  switch (op) {
    case CollectiveOp::kAllGather:
      d.out = class_bytes * origins;
      d.in = class_bytes * (total_origins - origins);
      break;
    case CollectiveOp::kReduceScatter:
      d.out = class_bytes * (total_origins - origins);
      d.in = class_bytes * origins;
      break;
    case CollectiveOp::kAllReduce:
      d.out = total_bytes;
      d.in = total_bytes;
      break;
    case CollectiveOp::kBroadcast:
      d.out = has_root ? total_bytes : 0;
      d.in = has_root ? 0 : total_bytes;
      break;
    case CollectiveOp::kReduce:
      d.out = has_root ? 0 : total_bytes;
      d.in = has_root ? total_bytes : 0;
      break;
  }
  return d;
}

// Counting bound on total payload injected anywhere in the fabric. For
// AllReduce each chunk class needs n−1 combining transmissions (n
// contributions merge into one value) plus n−1 disseminating receptions of
// the finished value — 2(n−1) class-bytes per class, which against the
// aggregate injection capacity n·B yields the textbook 2(n−1)/n · S/B.
[[nodiscard]] double AggregateDemand(CollectiveOp op, int nranks,
                                     int total_origins, int nchunks,
                                     double class_bytes) {
  const double nm1 = static_cast<double>(nranks - 1);
  switch (op) {
    case CollectiveOp::kAllGather:
    case CollectiveOp::kReduceScatter:
      return nm1 * static_cast<double>(total_origins) * class_bytes;
    case CollectiveOp::kAllReduce:
      return 2.0 * nm1 * static_cast<double>(nchunks) * class_bytes;
    case CollectiveOp::kBroadcast:
    case CollectiveOp::kReduce:
      return nm1 * static_cast<double>(nchunks) * class_bytes;
  }
  return 0;
}

[[nodiscard]] SimTime CutTime(double demand_bytes, Bandwidth capacity) {
  if (demand_bytes <= 0) return SimTime::Zero();
  if (capacity.bytes_per_us() <= 0) return SimTime::Infinity();
  return SimTime::Us(demand_bytes / capacity.bytes_per_us());
}

void AddCut(std::vector<CutBound>& cuts, std::string name, double demand,
            Bandwidth capacity) {
  cuts.push_back(
      {std::move(name), demand, capacity, CutTime(demand, capacity)});
}

}  // namespace

BoundReport ComputeLowerBound(const Topology& topo, const CostModel& cost,
                              const BoundInput& input) {
  const TopologySpec& spec = topo.spec();
  const int n = topo.nranks();
  const int nchunks = input.nchunks > 0 ? input.nchunks : n;
  RESCCL_CHECK_MSG(input.root >= 0 && input.root < n,
                   "bound root " << input.root << " out of range");

  BoundReport report;
  report.protocol =
      ResolveProtocol(topo, cost, input.launch, input.nchunks);
  const ProtocolSpec& proto = cost.ProtocolFor(report.protocol);
  report.nmicrobatches = input.launch.MicroBatches(nchunks);
  // The launch floors the buffer to whole micro-batches (never below one),
  // so the payload a run actually moves can differ from the requested
  // buffer in either direction; the bound must be evaluated at what moves.
  report.effective_buffer =
      input.launch.chunk * nchunks * report.nmicrobatches;
  if (n <= 1) {
    report.binding_cut = "none";
    return report;
  }

  // --- Alpha: the widest boundary some contribution must cross pays at
  // least its one-hop startup latency, scaled by the protocol factor.
  // Every collective here has a required pair spanning the whole fabric
  // (for rooted ops: pods > 1 implies some rank sits in another pod than
  // the root, and likewise for racks and nodes).
  SimTime widest = spec.intra_latency;
  if (topo.nodes() > 1) widest = spec.inter_latency;
  if (topo.racks() > 1) widest = spec.inter_latency + spec.cross_rack_extra;
  if (topo.pods() > 1) {
    widest =
        spec.inter_latency + spec.cross_rack_extra + spec.cross_pod_extra;
  }
  // The boundary-crossing invocation also pays the protocol's per-slot flag
  // synchronization for its chunk's wire bytes (every invocation does; the
  // cheaper pipelined handshake only replaces the α term, not the slots).
  const auto wire_chunk = static_cast<std::int64_t>(
      static_cast<double>(input.launch.chunk.bytes()) * proto.wire_inflation);
  report.alpha = widest * proto.latency_factor +
                 cost.SlotSyncCost(report.protocol, wire_chunk);

  // --- Beta: max over cuts of demand / capacity, in *wire* bytes. The
  // protocol's flag words travel every link the payload does, so inflating
  // each demand keeps the cut argument exact — and the simulator charges
  // the same inflated bytes as flow bytes, so the bound stays a floor.
  // Built from the lowering's truncated per-chunk wire bytes (not the exact
  // real-number inflation) so the bound never counts a fraction of a byte
  // the simulator does not move.
  const double class_bytes =
      static_cast<double>(wire_chunk) * report.nmicrobatches;
  const double total_bytes = class_bytes * nchunks;
  const int total_origins = std::min(nchunks, n);
  const int g = topo.gpus_per_node();
  const auto origins_in = [&](Rank first, int count) {
    return std::clamp(total_origins - first, 0, count);
  };
  const auto demand = [&](Rank first, int count) {
    const bool has_root = input.root >= first && input.root < first + count;
    return DemandFor(input.op, total_origins, origins_in(first, count),
                     has_root, class_bytes, total_bytes);
  };
  // Emit one cut per (family, direction): the worst member of the family.
  const auto add_worst = [&](const char* family, const char* direction,
                             Bandwidth capacity, int groups,
                             auto&& group_demand) {
    double worst = 0;
    int worst_group = 0;
    for (int i = 0; i < groups; ++i) {
      const double d = group_demand(i);
      if (d > worst) {
        worst = d;
        worst_group = i;
      }
    }
    AddCut(report.cuts,
           std::string(family) + std::to_string(worst_group) + " " + direction,
           worst, capacity);
  };

  // Rank cuts. Intra-node transfers inject on the GPU's fabric egress,
  // inter-node ones on its PCIe egress (they bypass the fabric pool), so
  // the per-rank cut is the sum of the two pools — PCIe only exists as an
  // exit once there is a second node.
  const Bandwidth rank_cap =
      topo.nodes() > 1
          ? Bandwidth::GBps(spec.gpu_fabric.gbps() + spec.pcie.gbps())
          : spec.gpu_fabric;
  add_worst("rank", "egress", rank_cap, n,
            [&](int r) { return demand(r, 1).out; });
  add_worst("rank", "ingress", rank_cap, n,
            [&](int r) { return demand(r, 1).in; });

  if (topo.nodes() > 1) {
    // Node cuts: everything leaving a node rides its ranks' PCIe lanes and
    // then the node's driven rail NICs — whichever sum is thinner binds.
    const Bandwidth node_cap = std::min(
        spec.pcie * static_cast<double>(g),
        spec.nic * static_cast<double>(topo.CommChannels()));
    add_worst("node", "nic egress", node_cap, topo.nodes(),
              [&](int v) { return demand(v * g, g).out; });
    add_worst("node", "nic ingress", node_cap, topo.nodes(),
              [&](int v) { return demand(v * g, g).in; });
  }

  // Rack cuts: inter-rack traffic traverses the source rack's ToR trunk,
  // already thinned by the spec's oversubscription ratio.
  if (topo.racks() > 1) {
    const Bandwidth trunk =
        spec.nic * (static_cast<double>(spec.nics_per_node *
                                        spec.nodes_per_rack) /
                    spec.oversubscription);
    const auto rack_span = [&](int t) {
      const int first_node = t * spec.nodes_per_rack;
      const int count =
          std::min(spec.nodes_per_rack, topo.nodes() - first_node) * g;
      return std::pair<Rank, int>{first_node * g, count};
    };
    add_worst("rack", "trunk egress", trunk, topo.racks(), [&](int t) {
      const auto [first, count] = rack_span(t);
      return demand(first, count).out;
    });
    add_worst("rack", "trunk ingress", trunk, topo.racks(), [&](int t) {
      const auto [first, count] = rack_span(t);
      return demand(first, count).in;
    });

    // Pod cuts: cross-pod traffic traverses the pod's spine links.
    if (topo.pods() > 1) {
      const Bandwidth spine =
          trunk * (static_cast<double>(spec.racks_per_pod) /
                   spec.oversubscription);
      const auto pod_span = [&](int p) {
        const int first_rack = p * spec.racks_per_pod;
        const int last_rack =
            std::min(first_rack + spec.racks_per_pod, topo.racks());
        const int first_node = first_rack * spec.nodes_per_rack;
        const int last_node =
            std::min(last_rack * spec.nodes_per_rack, topo.nodes());
        return std::pair<Rank, int>{first_node * g,
                                    (last_node - first_node) * g};
      };
      add_worst("pod", "spine egress", spine, topo.pods(), [&](int p) {
        const auto [first, count] = pod_span(p);
        return demand(first, count).out;
      });
      add_worst("pod", "spine ingress", spine, topo.pods(), [&](int p) {
        const auto [first, count] = pod_span(p);
        return demand(first, count).in;
      });
    }
  }

  // Aggregate injection: total payload that must be injected somewhere,
  // against the sum of every rank's egress pools.
  AddCut(report.cuts, "aggregate injection",
         AggregateDemand(input.op, n, total_origins, nchunks, class_bytes),
         rank_cap * static_cast<double>(n));

  std::stable_sort(report.cuts.begin(), report.cuts.end(),
                   [](const CutBound& a, const CutBound& b) {
                     return a.time > b.time;
                   });
  report.bandwidth = report.cuts.front().time;
  report.binding_cut = report.cuts.front().name;
  report.combined = std::max(report.alpha, report.bandwidth);
  return report;
}

BoundReport ComputeLowerBound(const Topology& topo, const CostModel& cost,
                              const Algorithm& algo,
                              const LaunchConfig& launch) {
  BoundInput input;
  input.op = algo.collective;
  input.launch = launch;
  input.nchunks = algo.nchunks;
  input.root = algo.root;
  return ComputeLowerBound(topo, cost, input);
}

double BoundReport::OptimalityPct(SimTime elapsed) const {
  if (elapsed <= SimTime::Zero()) return 0;
  return combined / elapsed * 100.0;
}

std::string BoundReport::Summary() const {
  std::ostringstream os;
  os.precision(6);
  os << "combined " << combined.us() << "us (alpha " << alpha.us()
     << "us, bandwidth " << bandwidth.us() << "us via " << binding_cut << ")";
  return os.str();
}

std::string BoundReportToJson(const BoundReport& report) {
  std::ostringstream os;
  os << "{\"alpha_us\":" << obs::FormatDouble(report.alpha.us())
     << ",\"bandwidth_us\":" << obs::FormatDouble(report.bandwidth.us())
     << ",\"combined_us\":" << obs::FormatDouble(report.combined.us())
     << ",\"effective_bytes\":" << report.effective_buffer.bytes()
     << ",\"nmicrobatches\":" << report.nmicrobatches << ",\"protocol\":\""
     << ProtocolName(report.protocol) << "\",\"binding_cut\":\""
     << obs::EscapeJson(report.binding_cut) << "\",\"cuts\":[";
  for (std::size_t i = 0; i < report.cuts.size(); ++i) {
    const CutBound& c = report.cuts[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << obs::EscapeJson(c.name)
       << "\",\"demand_bytes\":" << obs::FormatDouble(c.demand_bytes)
       << ",\"capacity_gbps\":" << obs::FormatDouble(c.capacity.gbps())
       << ",\"time_us\":" << obs::FormatDouble(c.time.us()) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace resccl
