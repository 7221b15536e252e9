// Cluster topology model.
//
// Mirrors the paper's testbed (§5.1) and scales past it: servers with
// `gpus_per_node` GPUs on an NVSwitch-class intra-node fabric,
// `nics_per_node` NICs shared by the local GPUs, servers grouped into racks
// under ToR switches, racks joined by an aggregation tier, and — for
// thousand-rank fabrics — racks grouped into pods under a spine tier
// (three-tier Clos). Each GPU has an explicit *rail* assignment: the NIC it
// uses for all inter-node traffic. Rail-aligned algorithms keep each chunk
// class on one rail end to end, so no NIC becomes a fan-in hot spot
// ("Demystifying NCCL"'s rail-optimized profile).
//
// Transfers consume *resources* — capacity pools such as a GPU's fabric
// egress, a NIC uplink, a ToR↔aggregation trunk, or a pod↔spine link. The
// fluid simulator (src/sim) shares each resource's capacity among
// concurrently active transfers; the scheduler (src/core) declares a
// communication dependency between two tasks when they use the same
// GPU-pair link or share a serializing resource — a NIC, trunk, or spine
// link (§3's "same link" condition plus §4.4's NIC-sharing congestion).
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "common/units.h"

namespace resccl {

struct ResourceTag {};
using ResourceId = Id<ResourceTag>;

enum class ResourceKind : std::uint8_t { kFabric, kPcie, kNic, kTrunk, kSpine };

// Network-tier resources serialize the schedule (§4.4): two tasks sharing
// one have a communication dependency. Fabric/PCIe pools share fairly in
// the simulator without serializing. The single definition used by the
// scheduler, the conflict table, and fault targeting.
[[nodiscard]] constexpr bool IsSerializing(ResourceKind kind) {
  return kind == ResourceKind::kNic || kind == ResourceKind::kTrunk ||
         kind == ResourceKind::kSpine;
}

// One capacity pool in the cluster (GPU egress, NIC uplink, ...).
// `contention_gamma` scales the sharing penalty: z concurrent flows run at
// fair-share × 1/(1 + γ(z−1)). NVSwitch-class crossbars multiplex almost
// for free (small γ); NICs and trunks lose real throughput to QP and
// scheduler thrash under fan-in (larger γ — the Fig. 4 collapse).
//
// The scheduler treats kNic/kTrunk/kSpine resources as *serializing*: two
// tasks sharing one have a communication dependency (§4.4 singles out
// connections sharing a NIC). Fabric/PCIe pools are shared fairly in the
// simulator but do not serialize the schedule.
struct Resource {
  std::string name;
  Bandwidth capacity;
  double contention_gamma = 0.0;
  ResourceKind kind = ResourceKind::kFabric;
};

// Whether a path stays inside one server or crosses the network. Determines
// startup latency (λ_inter ≥ 2.5 × λ_intra, §4.3) and per-warp copy
// throughput in the cost model.
enum class PathKind : std::uint8_t { kIntraNode, kInterNode };

// A resolved route between two GPUs: the ordered resource set it occupies,
// the startup latency α, and the zero-contention bottleneck bandwidth.
struct Path {
  PathKind kind = PathKind::kIntraNode;
  std::vector<ResourceId> resources;
  SimTime latency;
  Bandwidth bottleneck;
};

// Parameters describing one cluster configuration. Defaults model the
// paper's A100 testbed: 300 GB/s per-GPU fabric bandwidth via NVSwitch,
// 200 Gbps RoCE NICs (four per server, two GPUs per NIC), two servers per
// rack under a ToR, non-blocking aggregation, no spine tier.
struct TopologySpec {
  std::string name = "a100";
  int nodes = 2;
  int gpus_per_node = 8;
  int nics_per_node = 4;
  int nodes_per_rack = 2;
  // Racks per pod under one spine switch. 0 (the default) means a flat
  // two-tier Clos: every rack hangs off one aggregation layer and paths
  // never traverse a spine link — the paper's testbed shape.
  int racks_per_pod = 0;

  // Explicit per-local-GPU rail (NIC) assignment; index j gives the NIC
  // local GPU j uses for all inter-node traffic. Empty means the default
  // block striping j / (gpus_per_node / nics_per_node). When set, it must
  // have gpus_per_node entries, each in [0, nics_per_node).
  std::vector<int> rail_of_gpu;

  Bandwidth gpu_fabric = Bandwidth::GBps(300);   // per-GPU NVSwitch in/egress
  Bandwidth pcie = Bandwidth::GBps(30);          // per-GPU PCIe to the NIC
  Bandwidth nic = Bandwidth::Gbps(200);          // per-NIC up/down link
  SimTime intra_latency = SimTime::Us(2.0);
  SimTime inter_latency = SimTime::Us(5.0);      // = 2.5 × intra (§4.3)
  SimTime cross_rack_extra = SimTime::Us(2.0);   // extra hop through agg tier
  SimTime cross_pod_extra = SimTime::Us(2.0);    // extra hop through spine

  // Uplink oversubscription at the ToR and spine tiers: trunk capacity is
  // the non-blocking sum of the links below divided by this. 1.0 (default)
  // keeps the paper's non-blocking Clos.
  double oversubscription = 1.0;

  // Per-(rank, peer) connection-channel pool — the countable resource NCCL
  // calls "channels" on one connection. Each connection stream consumes
  // channels at its protocol's width (CostModel::ProtocolSpec::
  // channel_width), and stage-level execution opens one stream per stage;
  // when demand exceeds the pool, lowering throttles the TB injection
  // pipeline proportionally, and the static analyzer flags plans whose
  // stream count alone cannot fit (rules::kChannelCapacity). The default
  // covers every stock configuration (widest protocol × MSCCL's two
  // stages), so it only binds when a spec narrows it deliberately.
  int channels_per_peer = 16;

  double fabric_gamma = 0.01;  // NVSwitch / PCIe sharing penalty
  double nic_gamma = 0.08;     // NIC sharing penalty (Fig. 4)
  // Switch-port (trunk/spine) sharing penalty. The Fig. 4 collapse is an
  // end-host effect — QP scheduler and DMA-engine thrash under fan-in —
  // while ToR/spine ports arbitrate flows in silicon, so they multiplex
  // far more gracefully than NICs. Kept separate so oversubscribed-tier
  // studies degrade trunks by capacity, not by a NIC-shaped γ.
  double trunk_gamma = 0.02;
  // Topologies build deterministically, so equal specs are equal fabrics.
  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

// InvalidArgument when `spec` describes a shape Topology cannot build
// (e.g. GPUs that do not stripe evenly across NICs); OK otherwise.
[[nodiscard]] Status ValidateTopologySpec(const TopologySpec& spec);

class Topology {
 public:
  explicit Topology(TopologySpec spec);
  // Copy rebuilds from the spec (construction is deterministic, so the
  // copy is identical); the path cache restarts empty — it refills lazily.
  // The cache mutex makes the default member-wise copy/move ill-formed.
  Topology(const Topology& other) : Topology(other.spec_) {}
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] int nranks() const { return spec_.nodes * spec_.gpus_per_node; }
  [[nodiscard]] int nodes() const { return spec_.nodes; }
  [[nodiscard]] int gpus_per_node() const { return spec_.gpus_per_node; }

  [[nodiscard]] NodeId NodeOf(Rank r) const {
    BoundsCheck(r);
    return r / spec_.gpus_per_node;
  }
  [[nodiscard]] int LocalIndex(Rank r) const {
    BoundsCheck(r);
    return r % spec_.gpus_per_node;
  }
  [[nodiscard]] bool SameNode(Rank a, Rank b) const {
    return NodeOf(a) == NodeOf(b);
  }
  // The rail (NIC index) carrying all of `r`'s inter-node traffic: the
  // explicit spec assignment when given, block striping otherwise.
  [[nodiscard]] int RailOf(Rank r) const {
    const int j = LocalIndex(r);
    return spec_.rail_of_gpu.empty()
               ? j / GpusPerNic()
               : spec_.rail_of_gpu[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] int GpusPerNic() const {
    return spec_.gpus_per_node / spec_.nics_per_node;
  }
  // Number of distinct rails the node's GPUs actually drive. With the
  // default striping this is nics_per_node; an explicit rail_of_gpu map
  // may leave NICs idle. This is the rail-aware channel count: multi-rail
  // algorithms and TB allocation open one channel per driven rail.
  [[nodiscard]] int CommChannels() const { return num_rails_; }

  [[nodiscard]] int RackOf(NodeId n) const { return n / spec_.nodes_per_rack; }
  [[nodiscard]] int racks() const { return racks_; }
  // Pod of a rack under the spine tier; all racks share pod 0 when the
  // spec has no spine (racks_per_pod == 0).
  [[nodiscard]] int PodOf(int rack) const {
    return spec_.racks_per_pod > 0 ? rack / spec_.racks_per_pod : 0;
  }
  [[nodiscard]] int pods() const { return pods_; }

  // One-hop startup latency of the widest boundary the fabric has: the
  // intra-node α on one node, else the inter-node α plus the cross-rack
  // and then the cross-pod extra where those tiers exist. Protocol
  // resolution and the lower bound's α term both read it.
  [[nodiscard]] SimTime WidestHopLatency() const {
    if (nodes() <= 1) return spec_.intra_latency;
    SimTime alpha = spec_.inter_latency;
    if (racks_ > 1) alpha += spec_.cross_rack_extra;
    if (pods_ > 1) alpha += spec_.cross_pod_extra;
    return alpha;
  }

  // The peer with the same local index on the next node — the "ring-aligned"
  // peer used by hierarchical algorithms (Appendix A).
  [[nodiscard]] Rank RingAlignedNext(Rank r) const {
    return (r + spec_.gpus_per_node) % nranks();
  }

  // Route between two distinct GPUs. Resolved on first use and cached;
  // O(path length) per distinct pair, O(1) after — never O(cluster size),
  // and no O(nranks²) precompute. Returned references stay valid for the
  // topology's lifetime. Thread-safe (sweeps share one Topology).
  [[nodiscard]] const Path& PathBetween(Rank src, Rank dst) const;

  [[nodiscard]] const std::vector<Resource>& resources() const {
    return resources_;
  }
  [[nodiscard]] const Resource& resource(ResourceId id) const {
    RESCCL_CHECK(id.valid() &&
                 static_cast<std::size_t>(id.value) < resources_.size());
    return resources_[static_cast<std::size_t>(id.value)];
  }
  // The rail a NIC up/down link belongs to, -1 for every other resource
  // kind. Lets per-rail link metrics aggregate without parsing names.
  [[nodiscard]] int RailOfResource(ResourceId id) const {
    RESCCL_CHECK(id.valid() &&
                 static_cast<std::size_t>(id.value) < resource_rail_.size());
    return resource_rail_[static_cast<std::size_t>(id.value)];
  }

 private:
  void BoundsCheck(Rank r) const {
    RESCCL_CHECK_MSG(r >= 0 && r < nranks(), "rank " << r << " out of range");
  }
  ResourceId AddResource(std::string name, Bandwidth capacity, double gamma,
                         ResourceKind kind, int rail = -1);
  [[nodiscard]] Path MakePath(Rank src, Rank dst) const;

  TopologySpec spec_;
  int racks_ = 1;
  int pods_ = 1;
  int num_rails_ = 1;
  std::vector<Resource> resources_;
  std::vector<int> resource_rail_;  // parallel to resources_; -1 = no rail
  // Per-rank resource handles.
  std::vector<ResourceId> gpu_out_, gpu_in_, pcie_out_, pcie_in_;
  // Per (node, nic) resource handles, indexed node * nics_per_node + nic.
  std::vector<ResourceId> nic_up_, nic_down_;
  // Per-rack ToR↔aggregation trunks.
  std::vector<ResourceId> tor_up_, tor_down_;
  // Per-pod aggregation↔spine links (three-tier specs only).
  std::vector<ResourceId> spine_up_, spine_down_;
  // Lazy (src, dst) → Path cache. node-based map: inserts never move
  // existing entries, so PathBetween's references stay stable while the
  // table grows — callers (machine, connection resolution) hold on to them.
  mutable std::unordered_map<std::uint64_t, Path> path_cache_;
  mutable std::shared_mutex path_mutex_;
};

namespace presets {

// The paper's main testbed: A100 servers, NVSwitch, 200 Gbps RoCE, Clos.
[[nodiscard]] TopologySpec A100(int nodes, int gpus_per_node = 8);

// The heterogeneous V100 cluster of §5.2 (Fig. 11): 100 Gbps RoCE.
[[nodiscard]] TopologySpec V100(int nodes, int gpus_per_node = 8);

// Forward-looking DGX-H100-class preset (the §1 motivation cites DGX-H100
// with 400 Gbps InfiniBand): NVLink4 at 450 GB/s per GPU, one 400 Gbps NIC
// per GPU pair replaced by eight ConnectX-7s — modelled as 8 NICs/node.
[[nodiscard]] TopologySpec H100(int nodes, int gpus_per_node = 8);

// Table 3 topologies: Topo1 = 2×4, Topo2 = 2×8, Topo3 = 4×4, Topo4 = 4×8.
[[nodiscard]] TopologySpec Table3Topo(int index);

// Rail-aligned three-tier Clos for thousand-rank fabrics: `nodes` servers
// of `gpus_per_node` GPUs striped across `nics_per_node` rails (explicit
// rail_of_gpu map), grouped into `racks` equal racks; racks group into
// pods of 4 (or 2, when 4 does not divide) under a spine tier once there
// are more than two racks. `oversubscription` > 1 thins the trunk and
// spine uplinks below the non-blocking sum.
[[nodiscard]] TopologySpec RailClos(int nodes, int gpus_per_node,
                                    int nics_per_node, int racks,
                                    double oversubscription = 1.0);

}  // namespace presets

}  // namespace resccl
