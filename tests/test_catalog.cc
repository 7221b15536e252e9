// Algorithm catalog tests: every entry either builds a valid algorithm of
// its collective on a topology or says which shape requirement the
// topology misses, and every selector scoreboard row is a catalog entry
// that replays to the same simulated time.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo_cases.h"
#include "algorithms/catalog.h"
#include "algorithms/composition.h"
#include "runtime/exec_context.h"
#include "runtime/selector.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using algorithms::CatalogEntry;
using algorithms::Requirement;

std::vector<TopologySpec> Shapes() {
  std::vector<TopologySpec> specs;
  for (const auto& [nodes, gpus] : {std::pair{1, 1}, {1, 2}, {2, 3}, {1, 8},
                                    {2, 4}, {3, 8}, {4, 8}}) {
    specs.push_back(presets::A100(nodes, gpus));
  }
  for (const tests::TopoCase& tc : tests::TopoCases()) {
    if (tc.label.starts_with("railclos")) specs.push_back(tc.make());
  }
  return specs;
}

// The requirement restated from its definition, independent of the
// catalog's own check.
bool Meets(Requirement r, const Topology& topo) {
  const int n = topo.nranks();
  switch (r) {
    case Requirement::kTwoRanks: return n >= 2;
    case Requirement::kPowerOfTwoRanks: return n >= 2 && (n & (n - 1)) == 0;
    case Requirement::kComposable:
      return algorithms::ComposableTopology(topo);
  }
  return false;
}

TEST(CatalogTest, NamesAreUniqueAndFound) {
  std::set<std::string_view> names;
  for (const CatalogEntry& e : algorithms::Catalog()) {
    EXPECT_TRUE(names.insert(e.name).second) << e.name;
    EXPECT_EQ(algorithms::FindAlgorithm(e.name), &e) << e.name;
  }
  EXPECT_EQ(names.size(), 25u);
}

TEST(CatalogTest, UnknownNameIsInvalidArgument) {
  const Result<Algorithm> got =
      algorithms::MakeAlgorithm("no_such_algo", Topology(presets::A100(2, 4)));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("no_such_algo"), std::string::npos);
}

TEST(CatalogTest, EveryEntryBuildsOrNamesItsRequirement) {
  for (const TopologySpec& spec : Shapes()) {
    const Topology topo(spec);
    for (const CatalogEntry& e : algorithms::Catalog()) {
      SCOPED_TRACE(std::string(e.name) + " on " + spec.name);
      std::optional<Result<Algorithm>> got;
      EXPECT_NO_THROW(got.emplace(algorithms::MakeAlgorithm(e.name, topo)));
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->ok(), Meets(e.requirement, topo))
          << got->status().ToString();
      if (!got->ok()) {
        EXPECT_EQ(got->status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(got->status().message().find(
                      algorithms::RequirementName(e.requirement)),
                  std::string::npos)
            << got->status().message();
        continue;
      }
      const Algorithm& algo = got->value();
      const Status valid = algo.Validate();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
      EXPECT_EQ(algo.collective, e.op);
      EXPECT_EQ(algo.nranks, topo.nranks());
      if (e.requirement != Requirement::kComposable) {
        EXPECT_EQ(algo.name, e.name);
      } else if (e.name == "hc_allreduce_coarse") {
        EXPECT_TRUE(algo.name.starts_with("hc_allreduce["));
        EXPECT_TRUE(algo.name.ends_with(
            "-c" + std::to_string(topo.gpus_per_node())))
            << algo.name;
      } else {
        EXPECT_TRUE(algo.name.starts_with(std::string(e.name) + "["))
            << algo.name;
      }
    }
  }
}

// Every scoreboard row is built by exactly one catalog entry of its
// collective, and replaying that entry's algorithm reproduces the row.
TEST(CatalogTest, SelectorRowsReplayFromTheCatalog) {
  RunRequest request;
  request.launch.buffer = Size::MiB(8);
  request.launch.protocol = Protocol::kSimple;
  for (const auto& [nodes, gpus] : {std::pair{2, 8}, {4, 8}}) {
    const Topology topo(presets::A100(nodes, gpus));
    for (const CollectiveOp op :
         {CollectiveOp::kAllGather, CollectiveOp::kReduceScatter,
          CollectiveOp::kAllReduce, CollectiveOp::kBroadcast,
          CollectiveOp::kReduce}) {
      const SelectionResult sel =
          SelectAlgorithm(op, topo, BackendKind::kResCCL, request);
      ASSERT_FALSE(sel.scoreboard.empty());
      ExecContext ctx;
      for (const CandidateScore& row : sel.scoreboard) {
        SCOPED_TRACE(row.name + " on " + topo.spec().name);
        std::vector<Algorithm> builders;
        for (const CatalogEntry& e : algorithms::Catalog()) {
          if (e.op != op) continue;
          Result<Algorithm> algo = algorithms::MakeAlgorithm(e.name, topo);
          if (algo.ok() && algo.value().name == row.name) {
            builders.push_back(std::move(algo).value());
          }
        }
        ASSERT_EQ(builders.size(), 1u);
        const Result<PreparedPlan> plan =
            Prepare(builders[0], topo, BackendKind::kResCCL);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        EXPECT_EQ(ctx.Execute(plan.value(), request).elapsed.us(),
                  row.elapsed.us());
      }
    }
  }
}

}  // namespace
}  // namespace resccl
