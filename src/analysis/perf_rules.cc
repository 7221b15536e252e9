#include "analysis/perf_rules.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "obs/json.h"

namespace resccl {
namespace {

// Advisory thresholds; the rule table in perf_rules.h states each one.
constexpr double kBoundGapFactor = 2.0;
constexpr double kRailImbalanceFactor = 1.5;
constexpr int kMinMicrobatches = 4;

[[nodiscard]] const char* KindName(ResourceKind k) {
  switch (k) {
    case ResourceKind::kFabric: return "fabric";
    case ResourceKind::kPcie: return "pcie";
    case ResourceKind::kNic: return "nic";
    case ResourceKind::kTrunk: return "trunk";
    case ResourceKind::kSpine: return "spine";
  }
  return "?";
}

[[nodiscard]] double ToMiB(double bytes) { return bytes / (1024.0 * 1024.0); }

[[nodiscard]] std::string Mi(double bytes) {
  std::ostringstream os;
  os.precision(3);
  os << ToMiB(bytes) << " MiB";
  return os.str();
}

void Advise(PerfReport& report, const char* rule, std::string location,
            std::string witness) {
  report.diagnostics.push_back({DiagSeverity::kAdvice, rule,
                                std::move(location), std::move(witness)});
}

}  // namespace

PerfReport AnalyzePlanPerf(const CompiledCollective& plan,
                           const LoweredProgram& lowered,
                           const Topology& topo, const PerfOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  PerfReport report;
  const int n = topo.nranks();
  if (plan.algo.nranks != n) {
    report.applicable = false;
    return report;
  }

  // --- Charge every declaration's wire bytes to its route. ---
  const auto& resources = topo.resources();
  report.load_bytes.assign(resources.size(), 0.0);
  for (const SimTransferDecl& decl : lowered.program.transfers) {
    if (decl.src < 0 || decl.src >= n || decl.dst < 0 || decl.dst >= n ||
        decl.src == decl.dst) {
      continue;
    }
    const Path& path = topo.PathBetween(decl.src, decl.dst);
    for (const ResourceId res : path.resources) {
      report.load_bytes[static_cast<std::size_t>(res.value)] +=
          static_cast<double>(decl.bytes);
    }
  }

  // --- The plan's static floor: its most loaded resource. ---
  std::size_t hottest = 0;
  for (std::size_t i = 0; i < resources.size(); ++i) {
    const double cap = resources[i].capacity.bytes_per_us();
    if (cap <= 0 || report.load_bytes[i] <= 0) continue;
    const double t = report.load_bytes[i] / cap;
    if (t > report.static_floor_us) {
      report.static_floor_us = t;
      hottest = i;
    }
  }

  report.bound = ComputeLowerBound(topo, opts.cost, plan.algo, opts.launch);
  const double floor =
      std::max(report.static_floor_us, report.bound.combined.us());
  report.optimality_pct =
      floor > 0 ? report.bound.combined.us() / floor * 100.0 : 100.0;

  // The rails this topology's GPUs actually drive; NICs outside the set
  // are structurally idle and not the plan's fault.
  std::set<int> driven;
  for (Rank r = 0; r < std::min(n, topo.gpus_per_node()); ++r) {
    driven.insert(topo.RailOf(r));
  }
  const auto counted = [&](std::size_t i) {
    return resources[i].kind != ResourceKind::kNic ||
           driven.count(topo.RailOfResource(
               ResourceId(static_cast<std::int32_t>(i)))) > 0;
  };

  // --- perf-idle-link: per resource kind, links peers of the same kind do
  // use but this plan leaves at zero bytes. ---
  for (const ResourceKind kind :
       {ResourceKind::kFabric, ResourceKind::kPcie, ResourceKind::kNic,
        ResourceKind::kTrunk, ResourceKind::kSpine}) {
    int carriers = 0;
    int idle = 0;
    double carried = 0;
    std::size_t first_idle = resources.size();
    for (std::size_t i = 0; i < resources.size(); ++i) {
      if (resources[i].kind != kind || !counted(i)) continue;
      if (report.load_bytes[i] > 0) {
        ++carriers;
        carried += report.load_bytes[i];
      } else {
        ++idle;
        if (first_idle == resources.size()) first_idle = i;
      }
    }
    if (carriers == 0 || idle == 0) continue;
    std::ostringstream os;
    os << idle << " of " << (carriers + idle) << " " << KindName(kind)
       << " links carry zero bytes while the other " << carriers
       << " average " << Mi(carried / carriers);
    Advise(report, rules::kPerfIdleLink, resources[first_idle].name,
           os.str());
  }

  // --- perf-rail-imbalance: NIC bytes concentrated on few rails. ---
  if (driven.size() > 1) {
    std::vector<double> rail_bytes(driven.size(), 0.0);
    std::vector<int> rail_ids(driven.begin(), driven.end());
    double total = 0;
    for (std::size_t i = 0; i < resources.size(); ++i) {
      if (resources[i].kind != ResourceKind::kNic) continue;
      const int rail =
          topo.RailOfResource(ResourceId(static_cast<std::int32_t>(i)));
      const auto it = std::find(rail_ids.begin(), rail_ids.end(), rail);
      if (it == rail_ids.end()) continue;
      const auto slot = static_cast<std::size_t>(it - rail_ids.begin());
      rail_bytes[slot] += report.load_bytes[i];
      total += report.load_bytes[i];
    }
    if (total > 0) {
      const double mean = total / static_cast<double>(rail_bytes.size());
      const double peak =
          *std::max_element(rail_bytes.begin(), rail_bytes.end());
      if (peak > kRailImbalanceFactor * mean) {
        std::ostringstream os;
        os.precision(3);
        os << "NIC load max/mean = " << peak / mean << " across "
           << rail_bytes.size() << " rails:";
        for (std::size_t i = 0; i < rail_bytes.size(); ++i) {
          os << " rail" << rail_ids[i] << "=" << Mi(rail_bytes[i]);
        }
        Advise(report, rules::kPerfRailImbalance, "nic", os.str());
      }
    }
  }

  // --- perf-pipeline-starved: too few micro-batches to mask bubbles when
  // a smaller chunk would create more. ---
  if (lowered.nmicrobatches < kMinMicrobatches &&
      opts.launch.chunk.bytes() >= 2) {
    LaunchConfig halved = opts.launch;
    halved.chunk = Size::Bytes(opts.launch.chunk.bytes() / 2);
    const int more = halved.MicroBatches(plan.algo.nchunks);
    if (more > lowered.nmicrobatches) {
      std::ostringstream os;
      os << "launch yields " << lowered.nmicrobatches
         << " micro-batch(es); halving the " << opts.launch.chunk.bytes()
         << "-byte chunk would yield " << more
         << " and deepen the pipeline (§4.5)";
      Advise(report, rules::kPerfPipelineStarved, "launch", os.str());
    }
  }

  // --- perf-bound-gap: statically implied cost far above the bound. ---
  if (report.bound.combined > SimTime::Zero() &&
      report.static_floor_us >= kBoundGapFactor * report.bound.combined.us()) {
    std::ostringstream os;
    os.precision(4);
    os << "statically implied cost " << report.static_floor_us << "us is "
       << report.static_floor_us / report.bound.combined.us()
       << "x the lower bound " << report.bound.combined.us() << "us ("
       << report.bound.binding_cut << ")";
    Advise(report, rules::kPerfBoundGap, resources[hottest].name, os.str());
  }

  const auto t1 = std::chrono::steady_clock::now();
  report.analysis_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  return report;
}

PerfReport AnalyzePlanPerf(const CompiledCollective& plan,
                           const Topology& topo, const PerfOptions& opts) {
  if (plan.algo.nranks != topo.nranks()) {
    PerfReport report;
    report.applicable = false;
    return report;
  }
  // Lowering refuses kAuto (it is a launch-time request, not a protocol),
  // so resolve it here the same way the runtime does before lowering.
  LaunchConfig launch = opts.launch;
  launch.protocol =
      ResolveProtocol(topo, opts.cost, launch, plan.algo.nchunks);
  const LoweredProgram lowered =
      Lower(plan, opts.cost, launch, topo.spec().channels_per_peer);
  PerfOptions resolved = opts;
  resolved.launch = launch;
  return AnalyzePlanPerf(plan, lowered, topo, resolved);
}

std::string PerfReport::Summary() const {
  if (!applicable) return "not applicable (rank-count mismatch)";
  std::ostringstream os;
  os.precision(4);
  os << "floor " << static_floor_us << "us vs bound " << bound.combined.us()
     << "us (" << optimality_pct << "% of optimal), "
     << diagnostics.size() << " advice";
  return os.str();
}

std::string PerfReportToJson(const PerfReport& report) {
  std::ostringstream os;
  os << "{\"applicable\":" << (report.applicable ? "true" : "false")
     << ",\"static_floor_us\":" << obs::FormatDouble(report.static_floor_us)
     << ",\"optimality_pct\":" << obs::FormatDouble(report.optimality_pct)
     << ",\"advice\":" << report.diagnostics.size()
     << ",\"analysis_us\":" << obs::FormatDouble(report.analysis_us)
     << ",\"bound\":" << BoundReportToJson(report.bound) << "}";
  return os.str();
}

}  // namespace resccl
