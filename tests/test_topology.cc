// Unit tests for src/topology: specs, rank geometry, resources, paths.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "topology/topology.h"

namespace resccl {
namespace {

TEST(TopologyTest, A100PresetDimensions) {
  const Topology topo(presets::A100(2, 8));
  EXPECT_EQ(topo.nranks(), 16);
  EXPECT_EQ(topo.nodes(), 2);
  EXPECT_EQ(topo.gpus_per_node(), 8);
  EXPECT_EQ(topo.GpusPerNic(), 2);
  EXPECT_DOUBLE_EQ(topo.spec().nic.gbps(), 25.0);      // 200 Gbps
  EXPECT_DOUBLE_EQ(topo.spec().gpu_fabric.gbps(), 300.0);
}

TEST(TopologyTest, RankGeometry) {
  const Topology topo(presets::A100(4, 8));
  EXPECT_EQ(topo.NodeOf(0), 0);
  EXPECT_EQ(topo.NodeOf(7), 0);
  EXPECT_EQ(topo.NodeOf(8), 1);
  EXPECT_EQ(topo.NodeOf(31), 3);
  EXPECT_EQ(topo.LocalIndex(13), 5);
  EXPECT_TRUE(topo.SameNode(8, 15));
  EXPECT_FALSE(topo.SameNode(7, 8));
  // GPUs stripe across NICs two-per-NIC.
  EXPECT_EQ(topo.RailOf(0), 0);
  EXPECT_EQ(topo.RailOf(1), 0);
  EXPECT_EQ(topo.RailOf(2), 1);
  EXPECT_EQ(topo.RailOf(7), 3);
  // Ring-aligned peer: same local index, next node, wrapping.
  EXPECT_EQ(topo.RingAlignedNext(3), 11);
  EXPECT_EQ(topo.RingAlignedNext(27), 3);
}

TEST(TopologyTest, IntraNodePath) {
  const Topology topo(presets::A100(2, 8));
  const Path& p = topo.PathBetween(1, 5);
  EXPECT_EQ(p.kind, PathKind::kIntraNode);
  ASSERT_EQ(p.resources.size(), 2u);
  EXPECT_EQ(topo.resource(p.resources[0]).name, "gpu1.fabric_out");
  EXPECT_EQ(topo.resource(p.resources[1]).name, "gpu5.fabric_in");
  EXPECT_DOUBLE_EQ(p.latency.us(), 2.0);
  EXPECT_DOUBLE_EQ(p.bottleneck.gbps(), 300.0);
}

TEST(TopologyTest, InterNodeSameRackPath) {
  const Topology topo(presets::A100(2, 8));  // one rack
  const Path& p = topo.PathBetween(0, 9);
  EXPECT_EQ(p.kind, PathKind::kInterNode);
  // pcie_out, nic up, nic down, pcie_in — no ToR hop within a rack.
  ASSERT_EQ(p.resources.size(), 4u);
  EXPECT_EQ(topo.resource(p.resources[0]).name, "gpu0.pcie_out");
  EXPECT_EQ(topo.resource(p.resources[1]).name, "node0.nic0.up");
  EXPECT_EQ(topo.resource(p.resources[2]).name, "node1.nic0.down");
  EXPECT_EQ(topo.resource(p.resources[3]).name, "gpu9.pcie_in");
  EXPECT_DOUBLE_EQ(p.latency.us(), 5.0);  // 2.5 × intra (§4.3)
  EXPECT_DOUBLE_EQ(p.bottleneck.gbps(), 25.0);
}

TEST(TopologyTest, CrossRackPathAddsTrunk) {
  const Topology topo(presets::A100(4, 8));  // two racks of two nodes
  const Path& p = topo.PathBetween(0, 31);   // node 0 -> node 3
  EXPECT_EQ(p.kind, PathKind::kInterNode);
  ASSERT_EQ(p.resources.size(), 6u);
  EXPECT_EQ(topo.resource(p.resources[2]).name, "tor0.up");
  EXPECT_EQ(topo.resource(p.resources[3]).name, "tor1.down");
  EXPECT_DOUBLE_EQ(p.latency.us(), 7.0);  // inter + cross-rack extra
  // Trunk capacity: non-blocking sum of the rack's NIC uplinks.
  EXPECT_DOUBLE_EQ(topo.resource(p.resources[2]).capacity.gbps(), 200.0);
}

TEST(TopologyTest, SameRackSkipsTrunk) {
  const Topology topo(presets::A100(4, 8));
  const Path& p = topo.PathBetween(0, 15);  // node 0 -> node 1, same rack
  EXPECT_EQ(p.resources.size(), 4u);
}

TEST(TopologyTest, ResourceKindsAndGammas) {
  const Topology topo(presets::A100(2, 8));
  int fabric = 0, pcie = 0, nic = 0, trunk = 0, spine = 0;
  for (const Resource& r : topo.resources()) {
    switch (r.kind) {
      case ResourceKind::kFabric:
        ++fabric;
        EXPECT_DOUBLE_EQ(r.contention_gamma, topo.spec().fabric_gamma);
        break;
      case ResourceKind::kPcie: ++pcie; break;
      case ResourceKind::kNic:
        ++nic;
        EXPECT_DOUBLE_EQ(r.contention_gamma, topo.spec().nic_gamma);
        break;
      case ResourceKind::kTrunk:
        ++trunk;
        EXPECT_DOUBLE_EQ(r.contention_gamma, topo.spec().trunk_gamma);
        break;
      case ResourceKind::kSpine:
        ++spine;
        EXPECT_DOUBLE_EQ(r.contention_gamma, topo.spec().trunk_gamma);
        break;
    }
  }
  EXPECT_EQ(fabric, 32);  // in + out per GPU
  EXPECT_EQ(pcie, 32);
  EXPECT_EQ(nic, 16);     // up + down per (node, nic)
  EXPECT_EQ(trunk, 2);    // single rack: one ToR pair
  EXPECT_EQ(spine, 0);    // flat two-tier spec: no spine links
}

TEST(TopologyTest, PathsAreSymmetricInShape) {
  const Topology topo(presets::A100(2, 4));
  for (Rank a = 0; a < topo.nranks(); ++a) {
    for (Rank b = 0; b < topo.nranks(); ++b) {
      if (a == b) continue;
      const Path& ab = topo.PathBetween(a, b);
      const Path& ba = topo.PathBetween(b, a);
      EXPECT_EQ(ab.kind, ba.kind);
      EXPECT_EQ(ab.resources.size(), ba.resources.size());
      EXPECT_EQ(ab.latency, ba.latency);
    }
  }
}

TEST(TopologyTest, V100Preset) {
  const Topology topo(presets::V100(2, 8));
  EXPECT_DOUBLE_EQ(topo.spec().nic.gbps(), 12.5);  // 100 Gbps
  EXPECT_LT(topo.spec().gpu_fabric.gbps(), 300.0);
  EXPECT_GE(topo.spec().inter_latency / topo.spec().intra_latency, 2.5);
}

TEST(TopologyTest, H100Preset) {
  const Topology topo(presets::H100(2, 8));
  EXPECT_DOUBLE_EQ(topo.spec().nic.gbps(), 50.0);  // 400 Gbps
  EXPECT_DOUBLE_EQ(topo.spec().gpu_fabric.gbps(), 450.0);
  EXPECT_EQ(topo.GpusPerNic(), 1);  // one NIC per GPU
  EXPECT_GE(topo.spec().inter_latency / topo.spec().intra_latency, 2.5);
}

TEST(TopologyTest, Table3Presets) {
  EXPECT_EQ(Topology(presets::Table3Topo(1)).nranks(), 8);    // 2×4
  EXPECT_EQ(Topology(presets::Table3Topo(2)).nranks(), 16);   // 2×8
  EXPECT_EQ(Topology(presets::Table3Topo(3)).nranks(), 16);   // 4×4
  EXPECT_EQ(Topology(presets::Table3Topo(4)).nranks(), 32);   // 4×8
  EXPECT_THROW(presets::Table3Topo(0), std::logic_error);
  EXPECT_THROW(presets::Table3Topo(5), std::logic_error);
}

TEST(TopologyTest, InvalidSpecsRejected) {
  TopologySpec bad = presets::A100(2, 8);
  bad.nics_per_node = 3;  // 8 % 3 != 0
  EXPECT_THROW(Topology{bad}, std::logic_error);
  TopologySpec zero = presets::A100(2, 8);
  zero.nodes = 0;
  EXPECT_THROW(Topology{zero}, std::logic_error);
}

TEST(TopologyTest, BoundsChecked) {
  const Topology topo(presets::A100(2, 4));
  EXPECT_THROW((void)topo.PathBetween(0, 8), std::logic_error);
  EXPECT_THROW((void)topo.PathBetween(-1, 0), std::logic_error);
  EXPECT_THROW((void)topo.PathBetween(3, 3), std::logic_error);
  EXPECT_THROW((void)topo.NodeOf(99), std::logic_error);
}

TEST(TopologyTest, RailClos1024RankFabric) {
  // 128 nodes × 8 GPUs in 8 racks of 16; racks group into 2 pods of 4
  // under a spine tier. Four rails, two GPUs per NIC.
  const Topology topo(presets::RailClos(128, 8, /*nics_per_node=*/4,
                                        /*racks=*/8));
  EXPECT_EQ(topo.nranks(), 1024);
  EXPECT_EQ(topo.racks(), 8);
  EXPECT_EQ(topo.pods(), 2);
  EXPECT_EQ(topo.PodOf(3), 0);
  EXPECT_EQ(topo.PodOf(4), 1);
  EXPECT_EQ(topo.num_rails(), 4);
  EXPECT_EQ(topo.CommChannels(), 4);
  // The explicit rail map: GPU j drives NIC j/2.
  EXPECT_EQ(topo.RailOf(0), 0);
  EXPECT_EQ(topo.RailOf(1), 0);
  EXPECT_EQ(topo.RailOf(2), 1);
  EXPECT_EQ(topo.RailOf(7), 3);
  EXPECT_EQ(topo.RailOf(1023), 3);  // local index 7 on node 127

  int fabric = 0, pcie = 0, nic = 0, trunk = 0, spine = 0;
  for (const Resource& r : topo.resources()) {
    switch (r.kind) {
      case ResourceKind::kFabric: ++fabric; break;
      case ResourceKind::kPcie: ++pcie; break;
      case ResourceKind::kNic: ++nic; break;
      case ResourceKind::kTrunk:
        ++trunk;
        EXPECT_DOUBLE_EQ(r.contention_gamma, topo.spec().trunk_gamma);
        break;
      case ResourceKind::kSpine:
        ++spine;
        EXPECT_DOUBLE_EQ(r.contention_gamma, topo.spec().trunk_gamma);
        break;
    }
  }
  EXPECT_EQ(fabric, 2048);  // in + out per GPU
  EXPECT_EQ(pcie, 2048);
  EXPECT_EQ(nic, 1024);     // up + down per (node, nic)
  EXPECT_EQ(trunk, 16);     // up + down per rack ToR
  EXPECT_EQ(spine, 4);      // up + down per pod
}

TEST(TopologyTest, RailClosPathsTraverseRailNics) {
  const Topology topo(presets::RailClos(128, 8, /*nics_per_node=*/4,
                                        /*racks=*/8));
  // Cross-pod worst case: node 0 / pod 0 -> node 127 / pod 1 climbs the
  // full tier — NIC, ToR, spine pair, ToR, NIC.
  const Path& p = topo.PathBetween(0, 1023);
  ASSERT_EQ(p.resources.size(), 8u);
  EXPECT_EQ(topo.resource(p.resources[0]).name, "gpu0.pcie_out");
  EXPECT_EQ(topo.resource(p.resources[1]).name, "node0.nic0.up");
  EXPECT_EQ(topo.resource(p.resources[2]).name, "tor0.up");
  EXPECT_EQ(topo.resource(p.resources[3]).name, "pod0.spine.up");
  EXPECT_EQ(topo.resource(p.resources[4]).name, "pod1.spine.down");
  EXPECT_EQ(topo.resource(p.resources[5]).name, "tor7.down");
  EXPECT_EQ(topo.resource(p.resources[6]).name, "node127.nic3.down");
  EXPECT_EQ(topo.resource(p.resources[7]).name, "gpu1023.pcie_in");
  // inter + cross-rack extra + cross-pod extra.
  EXPECT_DOUBLE_EQ(p.latency.us(), 9.0);
  EXPECT_DOUBLE_EQ(p.bottleneck.gbps(), topo.spec().nic.gbps());

  // Same rack skips ToR and spine entirely.
  EXPECT_EQ(topo.PathBetween(0, 8 * 15).resources.size(), 4u);
  // Cross-rack same-pod climbs only to the ToRs.
  const Path& rack = topo.PathBetween(0, 8 * 16);
  EXPECT_EQ(rack.resources.size(), 6u);
  EXPECT_DOUBLE_EQ(rack.latency.us(), 7.0);

  // Every cross-node path leaves on the sender's rail NIC and lands on
  // the receiver's — sampled across the fabric.
  for (Rank src : {0, 513, 1022}) {
    for (Rank dst = 3; dst < topo.nranks(); dst += 97) {
      if (topo.SameNode(src, dst)) continue;
      const Path& q = topo.PathBetween(src, dst);
      EXPECT_EQ(topo.RailOfResource(q.resources[1]), topo.RailOf(src));
      EXPECT_EQ(topo.RailOfResource(q.resources[q.resources.size() - 2]),
                topo.RailOf(dst));
    }
  }
}

TEST(TopologyTest, RailClosOversubscriptionThinsTrunks) {
  const auto trunk_gbps = [](const Topology& t) {
    for (const Resource& r : t.resources()) {
      if (r.kind == ResourceKind::kTrunk) return r.capacity.gbps();
    }
    return 0.0;
  };
  const Topology full(presets::RailClos(32, 8, 4, 4));
  const Topology thin(presets::RailClos(32, 8, 4, 4, /*oversubscription=*/2));
  EXPECT_DOUBLE_EQ(trunk_gbps(thin), trunk_gbps(full) / 2.0);
}

TEST(TopologyTest, LargeEmulatedScale) {
  // The Fig. 10(a) workflow bench emulates up to 1024 GPUs; the topology
  // model must hold up structurally at that size.
  const Topology topo(presets::A100(128, 8));
  EXPECT_EQ(topo.nranks(), 1024);
  EXPECT_EQ(topo.PathBetween(0, 1023).kind, PathKind::kInterNode);
}

}  // namespace
}  // namespace resccl
