// resccl — command-line front end to the library.
//
//   resccl list
//       Show the built-in algorithm registry and topology presets.
//   resccl run --algo hm_allreduce --topo a100 --nodes 2 --gpus 8
//              [--backend resccl|msccl|nccl] [--buffer-mb N] [--chunk-kb N]
//              [--protocol simple|ll|ll128|auto] [--verify] [--trace out.json]
//              [--faults seed:intensity]
//       Simulate one collective and print the report. --faults perturbs the
//       fabric with a deterministic seed-driven fault plan (degraded links,
//       latency jitter, TB stalls; intensity in [0,1]) and reports the
//       slowdown versus the clean run.
//   resccl compile <program.resccl> [--nodes N] [--gpus G] [--out stem]
//       Compile ResCCLang source into a .plan artifact + kernel listing.
//   resccl select --op allreduce --topo a100 --nodes 2 --gpus 8
//              [--buffer-mb N] [--backend ...]
//       Run the auto-selector and print the scoreboard (with each
//       candidate's percent-of-optimal against the static lower bound).
//   resccl bound --op allreduce --topo a100 --nodes 2 --gpus 8
//              [--buffer-mb N] [--chunk-kb N] [--protocol ...]
//              [--chunks N] [--root R] [--json]
//       Print the provable latency/bandwidth lower bound for a collective
//       on a topology — no plan needed — including the full cut table.
//   resccl emit --algo ring_allgather --nodes 2 --gpus 8
//       Export a library algorithm as ResCCLang source on stdout.
//   resccl lint <plan files...> [--topo a100 --nodes N --gpus G] [--perf]
//              [--strict-perf] [--json]
//       Run the static plan verifier over .plan artifacts. Passing a
//       topology (any of --topo/--nodes/--gpus) also enables the TB-merge
//       legality rule. --perf adds the advisory performance rules
//       (analysis/perf_rules.h); advice never flips the exit code unless
//       --strict-perf. Exit 0 when every file is clean, 1 otherwise.
//   resccl profile --algo hm_allreduce --topo a100 [--backend ...]
//              [--buffer-mb N] [--chunk-kb N] [--protocol ...]
//              [--faults seed:intensity] [--out stem]
//       Simulate one collective with full observability: prints the
//       critical-path attribution (α / bandwidth / contention / sync /
//       overhead / fault-stall) and writes <stem>.metrics.json (metrics
//       registry snapshot), <stem>.timeline.csv (exact per-link rate
//       timelines), and <stem>.trace.json (Chrome trace enriched with
//       counter tracks and rendezvous flow arrows).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/hierarchical.h"
#include "algorithms/recursive.h"
#include "algorithms/ring.h"
#include "algorithms/rooted.h"
#include "algorithms/synthesized.h"
#include "algorithms/tree.h"
#include "analysis/analyzer.h"
#include "analysis/bounds.h"
#include "analysis/perf_rules.h"
#include "core/kernel_gen.h"
#include "core/plan_io.h"
#include "lang/emit.h"
#include "lang/eval.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/timeline.h"
#include "runtime/communicator.h"
#include "runtime/exec_context.h"
#include "runtime/selector.h"
#include "runtime/trace.h"
#include "service/service.h"
#include "service/workload.h"

namespace {

using namespace resccl;

using AlgoFactory = std::function<Algorithm(const Topology&)>;

const std::map<std::string, AlgoFactory>& Registry() {
  static const std::map<std::string, AlgoFactory> kRegistry = {
      {"ring_allgather",
       [](const Topology& t) { return algorithms::RingAllGather(t.nranks()); }},
      {"ring_reducescatter",
       [](const Topology& t) {
         return algorithms::RingReduceScatter(t.nranks());
       }},
      {"ring_allreduce",
       [](const Topology& t) { return algorithms::RingAllReduce(t.nranks()); }},
      {"mc_ring_allgather",
       [](const Topology& t) {
         return algorithms::MultiChannelRingAllGather(t, t.CommChannels());
       }},
      {"mc_ring_allreduce",
       [](const Topology& t) {
         return algorithms::MultiChannelRingAllReduce(t, t.CommChannels());
       }},
      {"hm_allgather", algorithms::HierarchicalMeshAllGather},
      {"hm_reducescatter", algorithms::HierarchicalMeshReduceScatter},
      {"hm_allreduce", algorithms::HierarchicalMeshAllReduce},
      {"tree_allreduce",
       [](const Topology& t) {
         return algorithms::DoubleBinaryTreeAllReduce(t.nranks());
       }},
      {"rhd_allreduce",
       [](const Topology& t) {
         return algorithms::RecursiveHalvingDoublingAllReduce(t.nranks());
       }},
      {"rd_allgather",
       [](const Topology& t) {
         return algorithms::RecursiveDoublingAllGather(t.nranks());
       }},
      {"oneshot_allgather",
       [](const Topology& t) {
         return algorithms::OneShotAllGather(t.nranks());
       }},
      {"chain_broadcast",
       [](const Topology& t) { return algorithms::ChainBroadcast(t.nranks()); }},
      {"chain_reduce",
       [](const Topology& t) { return algorithms::ChainReduce(t.nranks()); }},
      {"binomial_broadcast",
       [](const Topology& t) {
         return algorithms::BinomialTreeBroadcast(t.nranks());
       }},
      {"taccl_allgather", algorithms::TacclLikeAllGather},
      {"taccl_allreduce", algorithms::TacclLikeAllReduce},
      {"teccl_allgather", algorithms::TecclLikeAllGather},
      {"teccl_allreduce", algorithms::TecclLikeAllReduce},
  };
  return kRegistry;
}

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  [[nodiscard]] std::string Get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] int GetInt(const std::string& key, int fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::atoi(it->second.c_str());
  }
  [[nodiscard]] bool Has(const std::string& key) const {
    return options.count(key) != 0;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (const auto eq = key.find('='); eq != std::string::npos) {
        args.options[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "1";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

// Reads a size or count option that must be positive; exits 2 otherwise.
int PositiveInt(const Args& args, const std::string& key, int fallback) {
  const int value = args.GetInt(key, fallback);
  if (value <= 0) {
    std::fprintf(stderr, "--%s must be a positive integer, got '%s'\n",
                 key.c_str(), args.Get(key, "").c_str());
    std::exit(2);
  }
  return value;
}

// Exits 2 when `spec` is a shape Topology cannot build.
TopologySpec Buildable(TopologySpec spec) {
  if (const Status valid = ValidateTopologySpec(spec); !valid.ok()) {
    std::fprintf(stderr, "invalid topology %s: %s\n", spec.name.c_str(),
                 valid.message().c_str());
    std::exit(2);
  }
  return spec;
}

TopologySpec MakeSpec(const Args& args) {
  const std::string topo = args.Get("topo", "a100");
  const int nodes = PositiveInt(args, "nodes", 2);
  const int gpus = PositiveInt(args, "gpus", 8);
  if (topo == "a100") return Buildable(presets::A100(nodes, gpus));
  if (topo == "v100") return Buildable(presets::V100(nodes, gpus));
  if (topo == "h100") return Buildable(presets::H100(nodes, gpus));
  std::fprintf(stderr, "unknown --topo '%s' (a100|v100|h100)\n", topo.c_str());
  std::exit(2);
}

BackendKind MakeBackend(const Args& args) {
  const std::string backend = args.Get("backend", "resccl");
  if (backend == "resccl") return BackendKind::kResCCL;
  if (backend == "msccl") return BackendKind::kMscclLike;
  if (backend == "nccl") return BackendKind::kNcclLike;
  std::fprintf(stderr, "unknown --backend '%s' (resccl|msccl|nccl)\n",
               backend.c_str());
  std::exit(2);
}

RunRequest MakeRequest(const Args& args) {
  RunRequest request;
  request.launch.buffer = Size::MiB(PositiveInt(args, "buffer-mb", 256));
  request.launch.chunk = Size::KiB(PositiveInt(args, "chunk-kb", 1024));
  const std::string proto = args.Get("protocol", "simple");
  if (proto == "simple") request.launch.protocol = Protocol::kSimple;
  else if (proto == "ll") request.launch.protocol = Protocol::kLL;
  else if (proto == "ll128") request.launch.protocol = Protocol::kLL128;
  else if (proto == "auto") request.launch.protocol = Protocol::kAuto;
  else {
    std::fprintf(stderr, "unknown --protocol '%s' (simple|ll|ll128|auto)\n",
                 proto.c_str());
    std::exit(2);
  }
  request.verify = args.Has("verify");
  return request;
}

// Parses --faults seed:intensity (e.g. --faults=42:0.5) into a deterministic
// fault plan for `topo`. Returns an empty plan when the flag is absent.
FaultPlan MakeFaults(const Args& args, const Topology& topo) {
  if (!args.Has("faults")) return FaultPlan();
  const std::string spec = args.Get("faults", "");
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--faults wants seed:intensity, got '%s'\n",
                 spec.c_str());
    std::exit(2);
  }
  const auto seed = static_cast<std::uint64_t>(
      std::strtoull(spec.substr(0, colon).c_str(), nullptr, 10));
  const double intensity = std::atof(spec.substr(colon + 1).c_str());
  if (intensity < 0.0 || intensity > 1.0) {
    std::fprintf(stderr, "--faults intensity must be in [0,1], got %g\n",
                 intensity);
    std::exit(2);
  }
  return FaultPlan::Make(seed, intensity, topo);
}

Algorithm LoadAlgorithm(const Args& args, const Topology& topo) {
  if (args.Has("dsl")) {
    std::ifstream in(args.Get("dsl", ""));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.Get("dsl", "").c_str());
      std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    auto algo = lang::CompileSource(os.str());
    if (!algo.ok()) {
      std::fprintf(stderr, "ResCCLang error: %s\n",
                   algo.status().ToString().c_str());
      std::exit(2);
    }
    return std::move(algo).value();
  }
  const std::string name = args.Get("algo", "hm_allreduce");
  const auto it = Registry().find(name);
  if (it == Registry().end()) {
    std::fprintf(stderr, "unknown --algo '%s'; try `resccl list`\n",
                 name.c_str());
    std::exit(2);
  }
  return it->second(topo);
}

int CmdList(const Args& args) {
  (void)args;
  std::printf("algorithms:\n");
  for (const auto& [name, factory] : Registry()) {
    (void)factory;
    std::printf("  %s\n", name.c_str());
  }
  std::printf("topologies: a100 (default), v100, h100 "
              "(--nodes N --gpus G)\n");
  std::printf("backends: resccl (default), msccl, nccl\n");
  return 0;
}

int CmdRun(const Args& args) {
  const Topology topo(MakeSpec(args));
  const Algorithm algo = LoadAlgorithm(args, topo);
  const BackendKind backend = MakeBackend(args);
  RunRequest request = MakeRequest(args);
  request.faults = MakeFaults(args, topo);

  const Result<PreparedPlan> prepared = Prepare(algo, topo, backend);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  // The trace maps transfers back to tasks through the lowered program,
  // which observe mode hands out in the report.
  request.observe = args.Has("trace");
  ExecContext ctx;
  const CollectiveReport& rep = ctx.Execute(prepared.value(), request);
  std::printf("%s on %s (%s backend, %s%s, %d MiB/rank)\n",
              rep.algorithm.c_str(), topo.spec().name.c_str(),
              rep.backend.c_str(), ProtocolName(rep.protocol),
              rep.protocol_auto ? " via auto" : "",
              static_cast<int>(request.launch.buffer.mib()));
  std::printf("  algorithm bandwidth : %8.2f GB/s\n", rep.algo_bw.gbps());
  std::printf("  completion          : %8.3f ms (%d micro-batches)\n",
              rep.elapsed.ms(), rep.nmicrobatches);
  std::printf("  thread blocks       : %d total, max %d per GPU\n",
              rep.total_tbs, rep.max_tbs_per_rank);
  std::printf("  TB busy/idle        : %.1f%% / %.1f%% (max idle %.1f%%)\n",
              rep.sim.AvgBusyRatio() * 100, rep.sim.AvgIdleRatio() * 100,
              rep.sim.MaxIdleRatio() * 100);
  std::printf("  link utilization    : %.1f%% avg over %d links\n",
              rep.links.avg * 100, rep.links.carriers);
  if (rep.fault.faulted) {
    std::printf("  faults              : seed %llu, intensity %.2f\n",
                static_cast<unsigned long long>(request.faults.seed()),
                request.faults.intensity());
    std::printf("  slowdown vs clean   : %8.3fx (clean %.3f ms)\n",
                rep.fault.slowdown_vs_clean, rep.fault.clean_makespan.ms());
    std::printf("  injected stall      : %8.3f ms total\n",
                rep.fault.total_stall.ms());
    std::printf("  worst rank          : %d (finish %.3f ms, stall %.3f ms, "
                "idle %.1f%%)\n",
                rep.fault.worst_rank, rep.fault.worst_rank_finish.ms(),
                rep.fault.worst_rank_stall.ms(),
                rep.fault.worst_rank_idle * 100);
  }
  if (args.Has("trace")) {
    const std::string path = args.Get("trace", "trace.json");
    std::ofstream out(path);
    out << ExportChromeTrace(prepared.value()->plan, *rep.lowered, rep.sim);
    std::printf("  trace               : %s\n", path.c_str());
  }
  if (request.verify) {
    std::printf("  verification        : %s%s\n",
                rep.verified ? "OK" : "FAILED ",
                rep.verified ? "" : rep.verify_error.c_str());
    if (!rep.verified) return 1;
  }
  return 0;
}

int CmdCompile(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: resccl compile <program.resccl> ...\n");
    return 2;
  }
  std::ifstream in(args.positional[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.positional[0].c_str());
    return 2;
  }
  std::ostringstream os;
  os << in.rdbuf();
  auto algo = lang::CompileSource(os.str());
  if (!algo.ok()) {
    std::fprintf(stderr, "ResCCLang error: %s\n",
                 algo.status().ToString().c_str());
    return 1;
  }
  const Topology topo(MakeSpec(args));
  auto compiled =
      Compile(algo.value(), topo, DefaultCompileOptions(BackendKind::kResCCL));
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }
  std::string stem = args.Get("out", "");
  if (stem.empty()) {
    stem = args.positional[0];
    if (const auto dot = stem.rfind('.'); dot != std::string::npos) {
      stem.resize(dot);
    }
  }
  {
    std::ofstream plan(stem + ".plan");
    SavePlan(compiled.value(), plan);
  }
  {
    std::ofstream kernels(stem + ".cu.txt");
    kernels << EmitPseudoCuda(compiled.value());
  }
  std::printf("%s: %d tasks, %d sub-pipelines, %d TBs -> %s.plan, %s.cu.txt\n",
              algo.value().name.c_str(), compiled.value().algo.ntasks(),
              compiled.value().schedule.nwaves(),
              compiled.value().tbs.total_tbs(), stem.c_str(), stem.c_str());
  return 0;
}

std::optional<CollectiveOp> ParseOp(const std::string& op_name) {
  if (op_name == "allgather") return CollectiveOp::kAllGather;
  if (op_name == "reducescatter") return CollectiveOp::kReduceScatter;
  if (op_name == "allreduce") return CollectiveOp::kAllReduce;
  if (op_name == "broadcast") return CollectiveOp::kBroadcast;
  if (op_name == "reduce") return CollectiveOp::kReduce;
  return std::nullopt;
}

int CmdSelect(const Args& args) {
  const std::string op_name = args.Get("op", "allreduce");
  const std::optional<CollectiveOp> op = ParseOp(op_name);
  if (!op) {
    std::fprintf(stderr, "unknown --op '%s'\n", op_name.c_str());
    return 2;
  }
  const Topology topo(MakeSpec(args));
  const SelectionResult sel =
      SelectAlgorithm(*op, topo, MakeBackend(args), MakeRequest(args));
  std::printf("%s on %s, %d MiB/rank:\n", CollectiveOpName(*op),
              topo.spec().name.c_str(), args.GetInt("buffer-mb", 256));
  for (const CandidateScore& s : sel.scoreboard) {
    const bool selected = s.name == sel.algorithm.name &&
                          s.protocol == sel.report.protocol;
    std::printf("  %-24s %-6s %9.2f GB/s  %9.3f ms  %5.1f%% of opt%s\n",
                s.name.c_str(), ProtocolName(s.protocol), s.gbps,
                s.elapsed.ms(), s.pct_of_optimal,
                selected ? "   <- selected" : "");
  }
  std::printf("  lower bound: %s\n", sel.bound.Summary().c_str());
  return 0;
}

int CmdBound(const Args& args) {
  const std::string op_name = args.Get("op", "allreduce");
  const std::optional<CollectiveOp> op = ParseOp(op_name);
  if (!op) {
    std::fprintf(stderr, "unknown --op '%s'\n", op_name.c_str());
    return 2;
  }
  const Topology topo(MakeSpec(args));
  const RunRequest request = MakeRequest(args);

  BoundInput input;
  input.op = *op;
  input.launch = request.launch;
  input.nchunks = args.GetInt("chunks", 0);  // 0 -> nranks
  input.root = args.GetInt("root", 0);
  if (input.root < 0 || input.root >= topo.nranks()) {
    std::fprintf(stderr, "--root %d out of range for %d ranks\n", input.root,
                 topo.nranks());
    return 2;
  }
  const BoundReport report = ComputeLowerBound(topo, request.cost, input);
  obs::PublishBoundReport(obs::MetricsRegistry::Global(), report);
  if (args.Has("json")) {
    std::printf("%s\n", BoundReportToJson(report).c_str());
    return 0;
  }
  std::printf("%s on %s (%d ranks, %s, %.0f MiB/rank effective, "
              "%d micro-batches)\n",
              CollectiveOpName(*op), topo.spec().name.c_str(), topo.nranks(),
              ProtocolName(request.launch.protocol),
              report.effective_buffer.mib(), report.nmicrobatches);
  std::printf("  alpha bound      : %12.3f us\n", report.alpha.us());
  std::printf("  bandwidth bound  : %12.3f us  (%s)\n", report.bandwidth.us(),
              report.binding_cut.c_str());
  std::printf("  combined bound   : %12.3f us  (caps algo bw at %.2f GB/s)\n",
              report.combined.us(),
              AlgoBandwidth(report.effective_buffer, report.combined).gbps());
  std::printf("  cuts (tightest first):\n");
  for (const CutBound& c : report.cuts) {
    std::printf("    %-24s %10.1f MiB over %8.1f GB/s -> %12.3f us\n",
                c.name.c_str(), c.demand_bytes / (1024.0 * 1024.0),
                c.capacity.gbps(), c.time.us());
  }
  return 0;
}

int CmdEmit(const Args& args) {
  const Topology topo(MakeSpec(args));
  const Algorithm algo = LoadAlgorithm(args, topo);
  std::fputs(lang::EmitSource(algo).c_str(), stdout);
  return 0;
}

int CmdLint(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: resccl lint <plan files...> "
                 "[--topo a100 --nodes N --gpus G] [--perf] [--strict-perf] "
                 "[--json]\n");
    return 2;
  }
  const bool strict_perf = args.Has("strict-perf");
  const bool perf = args.Has("perf") || strict_perf;
  // The TB-merge rule needs path latencies/bandwidths; it runs only when the
  // caller names the fabric the plan is meant for. The perf pass always
  // needs one, so --perf implies the default topology when none is named.
  const bool with_topo =
      args.Has("topo") || args.Has("nodes") || args.Has("gpus") || perf;
  std::optional<Topology> topo;
  if (with_topo) topo.emplace(MakeSpec(args));
  const bool json = args.Has("json");
  PerfOptions perf_opts;
  if (perf) {
    const RunRequest request = MakeRequest(args);
    perf_opts.launch = request.launch;
    perf_opts.cost = request.cost;
  }

  int failures = 0;
  std::string json_files;
  for (const std::string& file : args.positional) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 2;
    }
    Result<CompiledCollective> plan = LoadPlan(in);
    if (!json_files.empty()) json_files += ",";
    if (!plan.ok()) {
      ++failures;
      if (json) {
        json_files += "{\"file\":\"" + obs::EscapeJson(file) +
                      "\",\"status\":\"parse-error\",\"error\":\"" +
                      obs::EscapeJson(plan.status().ToString()) + "\"}";
      } else {
        std::printf("%s: parse error: %s\n", file.c_str(),
                    plan.status().ToString().c_str());
      }
      continue;
    }
    const AnalysisReport report =
        AnalyzePlan(plan.value(), topo ? &*topo : nullptr);
    // Correctness findings gate the exit code; perf findings are advisory
    // and only count as failures under --strict-perf.
    bool file_failed = !report.clean();
    std::optional<PerfReport> perf_report;
    if (perf) {
      perf_report = AnalyzePlanPerf(plan.value(), *topo, perf_opts);
      obs::PublishPerfReport(obs::MetricsRegistry::Global(), *perf_report);
      if (strict_perf && !perf_report->diagnostics.empty()) file_failed = true;
    }
    if (file_failed) ++failures;
    if (json) {
      json_files += "{\"file\":\"" + obs::EscapeJson(file) +
                    "\",\"status\":\"analyzed\",\"report\":" +
                    AnalysisReportToJson(report);
      if (perf_report) {
        json_files += ",\"perf\":" + PerfReportToJson(*perf_report);
      }
      json_files += "}";
    } else {
      std::printf("%s: %s\n", file.c_str(), report.Summary().c_str());
      for (const Diagnostic& d : report.diagnostics) {
        std::printf("  %s [%s] %s: %s\n", DiagSeverityName(d.severity),
                    d.rule_id.c_str(), d.location.c_str(), d.witness.c_str());
      }
      if (perf_report) {
        std::printf("  perf: %s\n", perf_report->Summary().c_str());
        for (const Diagnostic& d : perf_report->diagnostics) {
          std::printf("  %s [%s] %s: %s\n", DiagSeverityName(d.severity),
                      d.rule_id.c_str(), d.location.c_str(),
                      d.witness.c_str());
        }
      }
    }
  }
  if (json) {
    std::printf("{\"failures\":%d,\"files\":[%s]}\n", failures,
                json_files.c_str());
  }
  return failures == 0 ? 0 : 1;
}

void PrintBuckets(const char* label, const obs::AttributionBuckets& b,
                  SimTime makespan) {
  const double total = makespan.us() > 0 ? makespan.us() : 1.0;
  std::printf("  %s\n", label);
  const struct {
    const char* name;
    SimTime value;
  } rows[] = {
      {"alpha (startup)", b.alpha},     {"bandwidth", b.bandwidth},
      {"contention", b.contention},     {"sync", b.sync},
      {"overhead", b.overhead},         {"fault stall", b.fault_stall},
  };
  for (const auto& row : rows) {
    std::printf("    %-18s %10.3f us  %5.1f%%\n", row.name, row.value.us(),
                row.value.us() / total * 100);
  }
  std::printf("    %-18s %10.3f us  %5.1f%%\n", "total", b.Total().us(),
              b.Total().us() / total * 100);
}

int CmdProfile(const Args& args) {
  const Topology topo(MakeSpec(args));
  const Algorithm algo = LoadAlgorithm(args, topo);
  const BackendKind backend = MakeBackend(args);
  RunRequest request = MakeRequest(args);
  request.faults = MakeFaults(args, topo);
  request.observe = true;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Enable(true);

  const Result<PreparedPlan> prepared = Prepare(algo, topo, backend);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const CollectiveReport report = Execute(*prepared.value(), request);

  const obs::CriticalPathReport cp =
      obs::AnalyzeCriticalPath(report.lowered->program, report.sim);
  const std::vector<obs::LinkTimeline> timelines =
      obs::BuildLinkTimelines(topo, report.sim);

  std::printf("%s on %s (%s backend, %d MiB/rank)\n", report.algorithm.c_str(),
              topo.spec().name.c_str(), report.backend.c_str(),
              static_cast<int>(request.launch.buffer.mib()));
  std::printf("  makespan            : %10.3f us (%.2f GB/s)\n",
              cp.makespan.us(), report.algo_bw.gbps());
  std::printf("  critical TB         : %d (rank %d)%s\n", cp.critical_tb,
              cp.critical_tb >= 0
                  ? cp.tbs[static_cast<std::size_t>(cp.critical_tb)].rank
                  : kInvalidRank,
              cp.chain_complete ? "" : "  [chain incomplete]");
  PrintBuckets("critical TB breakdown (view 1):", cp.critical_tb_buckets,
               cp.makespan);
  PrintBuckets("critical chain breakdown (view 2, waits re-attributed):",
               cp.path_buckets, cp.makespan);

  // Self-check: both views must tile the makespan. The analyzer asserts the
  // same invariant internally; repeating it here keeps the CLI honest even
  // if checks are compiled out.
  for (const obs::AttributionBuckets* b :
       {&cp.critical_tb_buckets, &cp.path_buckets}) {
    const double diff = std::abs(b->Total().us() - cp.makespan.us());
    if (diff > 1e-9 * std::max(1.0, cp.makespan.us())) {
      std::fprintf(stderr, "self-check FAILED: buckets sum %.9f != makespan "
                           "%.9f\n",
                   b->Total().us(), cp.makespan.us());
      return 1;
    }
  }
  std::printf("  self-check          : buckets sum to makespan (both views)\n");

  if (!timelines.empty()) {
    double avg = 0;
    double peak_frac = 0;
    for (const obs::LinkTimeline& tl : timelines) {
      const double frac = tl.BusyFraction(cp.makespan);
      avg += frac;
      const double cap = tl.capacity.bytes_per_us();
      if (cap > 0) peak_frac = std::max(peak_frac, tl.PeakRate() / cap);
    }
    avg /= static_cast<double>(timelines.size());
    std::printf("  links               : %zu carriers, %.1f%% avg busy, "
                "%.1f%% peak rate\n",
                timelines.size(), avg * 100, peak_frac * 100);
  }
  if (report.fault.faulted) {
    std::printf("  faults              : slowdown %.3fx vs clean, stall "
                "%.3f ms\n",
                report.fault.slowdown_vs_clean, report.fault.total_stall.ms());
  }

  const std::string stem = args.Get("out", "profile");
  {
    std::ofstream out(stem + ".metrics.json");
    out << reg.ToJson() << "\n";
  }
  {
    std::ofstream out(stem + ".timeline.csv");
    out << obs::TimelinesToCsv(timelines);
  }
  {
    TraceOptions options;
    options.topo = &topo;
    options.flow_arrows = true;
    std::ofstream out(stem + ".trace.json");
    out << ExportChromeTrace(prepared.value()->plan, *report.lowered,
                             report.sim, options);
  }
  std::printf("  wrote               : %s.metrics.json, %s.timeline.csv, "
              "%s.trace.json\n",
              stem.c_str(), stem.c_str(), stem.c_str());
  return 0;
}

// Parses --tenants name:weight[,name:weight...] (e.g. alpha:3,beta:1).
std::vector<service::TenantSpec> MakeTenants(const Args& args) {
  std::vector<service::TenantSpec> tenants;
  std::string spec = args.Get("tenants", "alpha:3,beta:2,gamma:1,delta:1");
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto colon = item.find(':');
    service::TenantSpec t;
    t.name = item.substr(0, colon);
    t.weight = colon == std::string::npos
                   ? 1.0
                   : std::atof(item.substr(colon + 1).c_str());
    if (t.weight <= 0) t.weight = 1.0;
    tenants.push_back(std::move(t));
  }
  if (tenants.empty()) tenants.push_back({"default", 1.0});
  return tenants;
}

int CmdServe(const Args& args) {
  auto topo = std::make_shared<const Topology>(MakeSpec(args));

  service::ServiceConfig config;
  config.queue_bound =
      static_cast<std::size_t>(PositiveInt(args, "queue-bound", 64));
  config.max_in_flight = PositiveInt(args, "max-in-flight", 4);
  config.jobs = args.GetInt("jobs", 0);  // 0 -> RESCCL_JOBS
  config.tenants = MakeTenants(args);

  service::WorkloadSpec wl;
  wl.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  wl.requests = PositiveInt(args, "requests", 200);
  wl.mean_interarrival_us =
      std::atof(args.Get("mean-us", "200").c_str());
  wl.distinct_shapes = PositiveInt(args, "shapes", 4);
  wl.tenants = config.tenants;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Enable(true);
  config.metrics = &reg;

  const std::vector<service::Arrival> arrivals =
      service::GenerateWorkload(*topo, wl);
  service::SchedulingService svc(topo, config);
  service::ReplayOpenLoop(svc, arrivals);
  const auto stats = svc.stats();
  const std::vector<service::Response> responses = svc.Drain();

  double wait_sum = 0;
  std::uint64_t served = 0;
  for (const service::Response& r : responses) {
    if (r.outcome != service::Outcome::kServed) continue;
    wait_sum += r.queue_wait_us;
    ++served;
  }
  const PlanCache::Stats cache = svc.plan_cache().stats();

  std::printf("served %d requests on %s (%zu tenants, seed %llu)\n",
              wl.requests, topo->spec().name.c_str(), config.tenants.size(),
              static_cast<unsigned long long>(wl.seed));
  std::printf("  admitted / rejected / shed : %llu / %llu / %llu\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.shed));
  std::printf("  served / failed            : %llu / %llu\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.failed));
  std::printf("  compiles / coalesced       : %llu / %llu (%zu distinct "
              "shapes)\n",
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<std::size_t>(std::min(4, wl.distinct_shapes)));
  std::printf("  queue depth high-water     : %zu (bound %zu)\n",
              stats.max_queue_depth, config.queue_bound);
  std::printf("  mean queue wait            : %.1f us\n",
              served > 0 ? wait_sum / static_cast<double>(served) : 0.0);
  double weight_total = 0;
  std::int64_t bytes_total = 0;
  for (const service::TenantSpec& t : config.tenants) {
    weight_total += t.weight;
    const auto it = stats.served_bytes.find(t.name);
    bytes_total += it == stats.served_bytes.end() ? 0 : it->second;
  }
  for (const service::TenantSpec& t : config.tenants) {
    const auto it = stats.served_bytes.find(t.name);
    const std::int64_t bytes =
        it == stats.served_bytes.end() ? 0 : it->second;
    const double share =
        bytes_total > 0
            ? static_cast<double>(bytes) / static_cast<double>(bytes_total)
            : 0.0;
    std::printf("  tenant %-12s weight %.1f : %8.1f MiB served "
                "(share %.2f, weight share %.2f)\n",
                t.name.c_str(), t.weight,
                static_cast<double>(bytes) / (1024.0 * 1024.0), share,
                t.weight / weight_total);
  }
  if (stats.shed_inversions != 0) {
    std::fprintf(stderr, "self-check FAILED: %llu priority inversions\n",
                 static_cast<unsigned long long>(stats.shed_inversions));
    return 1;
  }
  std::printf("  self-check                 : shedding priority-ordered "
              "(0 inversions)\n");

  if (args.Has("metrics-out")) {
    std::ofstream out(args.Get("metrics-out", "serve.metrics.json"));
    out << reg.ToJson() << "\n";
  }
  return 0;
}

// Subcommand dispatch table: name -> usage line + handler. `resccl <cmd>`
// walks this table; unknown commands print every usage line.
struct Command {
  const char* name;
  const char* usage;
  int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"list", "resccl list", CmdList},
    {"run",
     "resccl run --algo <name> [--topo a100|v100|h100] [--backend "
     "resccl|msccl|nccl] [--verify] [--trace out.json] [--faults s:i]",
     CmdRun},
    {"compile", "resccl compile <program.resccl> [--nodes N] [--gpus G] "
                "[--out stem]",
     CmdCompile},
    {"select", "resccl select --op <collective> [--topo ...] [--backend ...]",
     CmdSelect},
    {"bound",
     "resccl bound --op <collective> [--topo ...] [--buffer-mb N] "
     "[--chunk-kb N] [--protocol simple|ll|ll128|auto] [--chunks N] [--root R] "
     "[--json]",
     CmdBound},
    {"emit", "resccl emit --algo <name> [--nodes N] [--gpus G]", CmdEmit},
    {"lint",
     "resccl lint <plan files...> [--topo a100 --nodes N --gpus G] [--perf] "
     "[--strict-perf] [--json]",
     CmdLint},
    {"profile",
     "resccl profile --algo <name> [--topo ...] [--backend ...] "
     "[--buffer-mb N] [--faults s:i] [--out stem]",
     CmdProfile},
    {"serve",
     "resccl serve [--topo ...] [--requests N] [--seed S] [--tenants "
     "n:w,...] [--queue-bound N] [--max-in-flight N] [--shapes 1..4] "
     "[--mean-us U] [--metrics-out f.json]",
     CmdServe},
};

void PrintUsage() {
  std::fprintf(stderr, "usage:\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  %s\n", c.usage);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  for (const Command& c : kCommands) {
    if (cmd == c.name) {
      try {
        return c.run(args);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    }
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  PrintUsage();
  return 2;
}
