#include "topology/topology.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <utility>

namespace resccl {

Status ValidateTopologySpec(const TopologySpec& spec) {
  const auto invalid = [](std::string why) {
    return Status::InvalidArgument(std::move(why));
  };
  if (spec.nodes < 1) return invalid("cluster needs at least one node");
  if (spec.gpus_per_node < 1) return invalid("node needs at least one GPU");
  if (spec.nics_per_node < 1) return invalid("node needs at least one NIC");
  if (spec.gpus_per_node % spec.nics_per_node != 0) {
    return invalid(std::to_string(spec.gpus_per_node) +
                   " GPUs per node must stripe evenly across " +
                   std::to_string(spec.nics_per_node) + " NICs");
  }
  if (spec.nodes_per_rack < 1) return invalid("rack needs at least one node");
  if (spec.racks_per_pod < 0) return invalid("racks_per_pod must be >= 0");
  if (spec.oversubscription < 1.0) {
    return invalid("oversubscription thins uplinks; must be >= 1");
  }
  if (!spec.rail_of_gpu.empty() &&
      static_cast<int>(spec.rail_of_gpu.size()) != spec.gpus_per_node) {
    return invalid("rail_of_gpu needs one entry per local GPU");
  }
  for (const int rail : spec.rail_of_gpu) {
    if (rail < 0 || rail >= spec.nics_per_node) {
      return invalid("rail " + std::to_string(rail) + " out of range");
    }
  }
  return Status::Ok();
}

Topology::Topology(TopologySpec spec) : spec_(std::move(spec)) {
  const Status valid = ValidateTopologySpec(spec_);
  RESCCL_CHECK_MSG(valid.ok(), valid.message());

  racks_ = (spec_.nodes + spec_.nodes_per_rack - 1) / spec_.nodes_per_rack;
  pods_ = spec_.racks_per_pod > 0
              ? (racks_ + spec_.racks_per_pod - 1) / spec_.racks_per_pod
              : 1;
  if (spec_.rail_of_gpu.empty()) {
    num_rails_ = spec_.nics_per_node;
  } else {
    const std::set<int> distinct(spec_.rail_of_gpu.begin(),
                                 spec_.rail_of_gpu.end());
    num_rails_ = static_cast<int>(distinct.size());
  }

  const int n = nranks();
  gpu_out_.reserve(static_cast<std::size_t>(n));
  gpu_in_.reserve(static_cast<std::size_t>(n));
  pcie_out_.reserve(static_cast<std::size_t>(n));
  pcie_in_.reserve(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    const std::string tag = "gpu" + std::to_string(r);
    gpu_out_.push_back(
        AddResource(tag + ".fabric_out", spec_.gpu_fabric, spec_.fabric_gamma,
                    ResourceKind::kFabric));
    gpu_in_.push_back(
        AddResource(tag + ".fabric_in", spec_.gpu_fabric, spec_.fabric_gamma,
                    ResourceKind::kFabric));
    pcie_out_.push_back(
        AddResource(tag + ".pcie_out", spec_.pcie, spec_.fabric_gamma,
                    ResourceKind::kPcie));
    pcie_in_.push_back(
        AddResource(tag + ".pcie_in", spec_.pcie, spec_.fabric_gamma,
                    ResourceKind::kPcie));
  }
  for (NodeId node = 0; node < spec_.nodes; ++node) {
    for (NicId nic = 0; nic < spec_.nics_per_node; ++nic) {
      const std::string tag =
          "node" + std::to_string(node) + ".nic" + std::to_string(nic);
      nic_up_.push_back(AddResource(tag + ".up", spec_.nic, spec_.nic_gamma,
                                    ResourceKind::kNic, nic));
      nic_down_.push_back(AddResource(tag + ".down", spec_.nic,
                                      spec_.nic_gamma, ResourceKind::kNic,
                                      nic));
    }
  }
  // Each ToR's trunk to the aggregation tier carries at most the sum of the
  // NIC uplinks below it (non-blocking Clos), thinned by the spec's
  // oversubscription ratio.
  const Bandwidth trunk =
      spec_.nic * (static_cast<double>(spec_.nics_per_node *
                                       spec_.nodes_per_rack) /
                   spec_.oversubscription);
  for (int t = 0; t < racks_; ++t) {
    const std::string tag = "tor" + std::to_string(t);
    tor_up_.push_back(AddResource(tag + ".up", trunk, spec_.trunk_gamma,
                                  ResourceKind::kTrunk));
    tor_down_.push_back(AddResource(tag + ".down", trunk, spec_.trunk_gamma,
                                    ResourceKind::kTrunk));
  }
  // Spine tier: one up/down pair per pod, sized for the pod's trunks.
  if (pods_ > 1) {
    const Bandwidth spine =
        trunk * (static_cast<double>(spec_.racks_per_pod) /
                 spec_.oversubscription);
    for (int p = 0; p < pods_; ++p) {
      const std::string tag = "pod" + std::to_string(p) + ".spine";
      spine_up_.push_back(AddResource(tag + ".up", spine, spec_.trunk_gamma,
                                      ResourceKind::kSpine));
      spine_down_.push_back(AddResource(tag + ".down", spine,
                                        spec_.trunk_gamma,
                                        ResourceKind::kSpine));
    }
  }
}

ResourceId Topology::AddResource(std::string name, Bandwidth capacity,
                                 double gamma, ResourceKind kind, int rail) {
  resources_.push_back({std::move(name), capacity, gamma, kind});
  resource_rail_.push_back(rail);
  return ResourceId(static_cast<std::int32_t>(resources_.size() - 1));
}

Path Topology::MakePath(Rank src, Rank dst) const {
  Path p;
  if (SameNode(src, dst)) {
    p.kind = PathKind::kIntraNode;
    p.resources = {gpu_out_[static_cast<std::size_t>(src)],
                   gpu_in_[static_cast<std::size_t>(dst)]};
    p.latency = spec_.intra_latency;
    p.bottleneck = spec_.gpu_fabric;
    return p;
  }
  p.kind = PathKind::kInterNode;
  // Inter-node traffic enters and leaves the network on each endpoint's
  // rail NIC — the rail assignment decides the whole network route.
  const auto nic_index = [&](Rank r) {
    return static_cast<std::size_t>(NodeOf(r)) *
               static_cast<std::size_t>(spec_.nics_per_node) +
           static_cast<std::size_t>(RailOf(r));
  };
  p.resources = {pcie_out_[static_cast<std::size_t>(src)],
                 nic_up_[nic_index(src)]};
  p.latency = spec_.inter_latency;
  const int src_rack = RackOf(NodeOf(src));
  const int dst_rack = RackOf(NodeOf(dst));
  if (src_rack != dst_rack) {
    p.resources.push_back(tor_up_[static_cast<std::size_t>(src_rack)]);
    const int src_pod = PodOf(src_rack);
    const int dst_pod = PodOf(dst_rack);
    if (src_pod != dst_pod) {
      p.resources.push_back(spine_up_[static_cast<std::size_t>(src_pod)]);
      p.resources.push_back(spine_down_[static_cast<std::size_t>(dst_pod)]);
      p.latency += spec_.cross_pod_extra;
    }
    p.resources.push_back(tor_down_[static_cast<std::size_t>(dst_rack)]);
    p.latency += spec_.cross_rack_extra;
  }
  p.resources.push_back(nic_down_[nic_index(dst)]);
  p.resources.push_back(pcie_in_[static_cast<std::size_t>(dst)]);

  p.bottleneck = spec_.nic;
  for (ResourceId r : p.resources) {
    p.bottleneck = std::min(p.bottleneck, resource(r).capacity);
  }
  return p;
}

const Path& Topology::PathBetween(Rank src, Rank dst) const {
  BoundsCheck(src);
  BoundsCheck(dst);
  RESCCL_CHECK_MSG(src != dst, "no path from a GPU to itself");
  const std::uint64_t key =
      static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(nranks()) +
      static_cast<std::uint64_t>(dst);
  {
    std::shared_lock lock(path_mutex_);
    const auto it = path_cache_.find(key);
    if (it != path_cache_.end()) return it->second;
  }
  // Build outside any lock (MakePath is pure), insert under the writer
  // lock; a racing builder's duplicate is discarded by try_emplace.
  Path built = MakePath(src, dst);
  std::unique_lock lock(path_mutex_);
  return path_cache_.try_emplace(key, std::move(built)).first->second;
}

namespace presets {

TopologySpec A100(int nodes, int gpus_per_node) {
  TopologySpec s;
  s.name = "a100-" + std::to_string(nodes) + "x" +
           std::to_string(gpus_per_node);
  s.nodes = nodes;
  s.gpus_per_node = gpus_per_node;
  s.nics_per_node = std::min(4, gpus_per_node);
  return s;
}

TopologySpec V100(int nodes, int gpus_per_node) {
  TopologySpec s;
  s.name = "v100-" + std::to_string(nodes) + "x" +
           std::to_string(gpus_per_node);
  s.nodes = nodes;
  s.gpus_per_node = gpus_per_node;
  s.nics_per_node = std::min(4, gpus_per_node);
  s.gpu_fabric = Bandwidth::GBps(130);  // NVLink2 hybrid mesh, aggregate
  s.pcie = Bandwidth::GBps(14);         // PCIe Gen3 x16
  s.nic = Bandwidth::Gbps(100);
  s.intra_latency = SimTime::Us(3.0);
  s.inter_latency = SimTime::Us(7.5);
  return s;
}

TopologySpec H100(int nodes, int gpus_per_node) {
  TopologySpec s;
  s.name = "h100-" + std::to_string(nodes) + "x" +
           std::to_string(gpus_per_node);
  s.nodes = nodes;
  s.gpus_per_node = gpus_per_node;
  s.nics_per_node = std::min(8, gpus_per_node);  // one 400G NIC per GPU
  s.gpu_fabric = Bandwidth::GBps(450);           // NVLink4 per-GPU
  s.pcie = Bandwidth::GBps(60);                  // PCIe Gen5 x16
  s.nic = Bandwidth::Gbps(400);
  s.intra_latency = SimTime::Us(1.5);
  s.inter_latency = SimTime::Us(4.0);
  return s;
}

TopologySpec Table3Topo(int index) {
  switch (index) {
    case 1: return A100(2, 4);
    case 2: return A100(2, 8);
    case 3: return A100(4, 4);
    case 4: return A100(4, 8);
    default:
      RESCCL_CHECK_MSG(false, "Table 3 defines topologies 1..4, got "
                                  << index);
  }
  return {};
}

TopologySpec RailClos(int nodes, int gpus_per_node, int nics_per_node,
                      int racks, double oversubscription) {
  RESCCL_CHECK_MSG(racks >= 1 && nodes % racks == 0,
                   "RailClos needs racks to divide nodes evenly");
  TopologySpec s;
  s.name = "railclos-" + std::to_string(nodes) + "x" +
           std::to_string(gpus_per_node) + "-r" + std::to_string(racks);
  s.nodes = nodes;
  s.gpus_per_node = gpus_per_node;
  s.nics_per_node = nics_per_node;
  s.nodes_per_rack = nodes / racks;
  s.oversubscription = oversubscription;
  // Group racks into pods under a spine once there are more than two: pods
  // of four racks when that leaves at least two pods, else pods of two,
  // else one rack per pod (ToRs hang straight off the spine). One or two
  // racks stay a flat two-tier Clos.
  if (racks > 2) {
    if (racks % 4 == 0 && racks / 4 >= 2) {
      s.racks_per_pod = 4;
    } else if (racks % 2 == 0) {
      s.racks_per_pod = 2;
    } else {
      s.racks_per_pod = 1;
    }
  }
  // Rails are explicit here (the point of the preset): GPU j drives NIC
  // j / (gpus_per_node / nics_per_node) for every inter-node byte.
  RESCCL_CHECK_MSG(gpus_per_node % nics_per_node == 0,
                   "GPUs must stripe evenly across NICs");
  const int gpus_per_nic = gpus_per_node / nics_per_node;
  s.rail_of_gpu.resize(static_cast<std::size_t>(gpus_per_node));
  for (int j = 0; j < gpus_per_node; ++j) {
    s.rail_of_gpu[static_cast<std::size_t>(j)] = j / gpus_per_nic;
  }
  return s;
}

}  // namespace presets

}  // namespace resccl
