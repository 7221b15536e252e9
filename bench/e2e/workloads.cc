// replay_2x8, faulted_2x8, scale_1024 and prepare_384. serve_live lives in
// serve.cc.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/composition.h"
#include "algorithms/synthesized.h"
#include "common/rng.h"
#include "lang/eval.h"
#include "layers.h"
#include "runtime/communicator.h"
#include "runtime/exec_context.h"
#include "sim/faults.h"
#include "workloads.h"

namespace e2e {

using namespace resccl;

namespace {

constexpr BackendKind kBackend = BackendKind::kResCCL;

// Visits each of `n` items once per round, in a freshly shuffled order every
// round; the order is a pure function of the seed.
class Deck {
 public:
  Deck(std::uint64_t seed, std::size_t n) : rng_(seed), order_(n), pos_(n) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  }

  std::size_t Next() {
    if (pos_ == order_.size()) {
      for (std::size_t i = order_.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng_.NextInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order_[i - 1], order_[j]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_;
};

template <typename T>
T ValueOrThrow(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// replay_2x8 and faulted_2x8: one Communicator on the 2x8 A100 testbed.

enum class Collective : std::uint8_t { kHmAllReduce, kHmAllGather, kTaccl };
constexpr Collective kCollectives[] = {
    Collective::kHmAllReduce, Collective::kHmAllGather, Collective::kTaccl};

// faulted_2x8 replays every (collective, size) under these fault plans. They
// are fixed, not drawn from --seed, so fault_slowdown is one number per
// commit; the seed only orders the calls.
constexpr int kFaultPlans = 8;
constexpr double kFaultIntensity[] = {0.25, 0.5, 1.0};

struct CommState {
  std::unique_ptr<Communicator> comm;
  Algorithm taccl;
  std::vector<Cell> cells;
  std::vector<Collective> collective;  // per cell
  std::size_t per_base = 1;  // cells per (collective, size); contiguous
};

CollectiveReport Call(const CommState& s, std::size_t cell,
                      const RunRequest& request) {
  const Collective c = s.collective[cell];
  if (c == Collective::kHmAllReduce) return s.comm->AllReduce(request);
  if (c == Collective::kHmAllGather) return s.comm->AllGather(request);
  return s.comm->Run(s.taccl, request);
}

std::unique_ptr<CommState> MakeCommState(bool faulted, RunResult& result) {
  auto s = std::make_unique<CommState>();
  s->comm = std::make_unique<Communicator>(presets::A100(2, 8), kBackend);
  const Topology& topo = s->comm->topology();
  s->taccl = algorithms::TacclLikeAllReduce(topo);

  std::vector<FaultPlan> faults(1);  // clean
  std::vector<int> sizes_mib = {8, 32, 128, 512};
  if (faulted) {
    faults.clear();
    for (int k = 0; k < kFaultPlans; ++k) {
      faults.push_back(FaultPlan::Make(static_cast<std::uint64_t>(k + 1),
                                       kFaultIntensity[k % 3], topo));
    }
    sizes_mib.pop_back();
  }
  s->per_base = faults.size();
  for (const int mib : sizes_mib) {
    for (const Collective c : kCollectives) {
      for (const FaultPlan& f : faults) {
        Cell cell;
        cell.request.launch.buffer = Size::MiB(mib);
        cell.request.faults = f;
        s->cells.push_back(std::move(cell));
        s->collective.push_back(c);
      }
    }
  }
  for (std::size_t i = 0; i < s->cells.size(); ++i) {
    RunRequest verified = s->cells[i].request;
    verified.verify = true;
    RecordVerified(s->cells[i], Call(*s, i, verified), result);
  }
  return s;
}

// The prepared plan behind each cell, looked up in the Communicator's own
// cache, so the layer passes run exactly the artifacts the calls ran.
void AttachPlans(CommState& s) {
  const auto topo =
      std::make_shared<const Topology>(s.comm->topology().spec());
  PlanCache& cache = s.comm->plan_cache();
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    const Collective c = s.collective[i];
    const Algorithm algo =
        c == Collective::kTaccl
            ? s.taccl
            : DefaultAlgorithm(kBackend,
                               c == Collective::kHmAllReduce
                                   ? CollectiveOp::kAllReduce
                                   : CollectiveOp::kAllGather,
                               s.comm->topology());
    s.cells[i].plan =
        ValueOrThrow(cache.GetOrPrepare(algo, topo,
                                        DefaultCompileOptions(kBackend),
                                        BackendName(kBackend)),
                     "plan lookup")
            .plan;
  }
}

std::vector<PreparedPlan> DistinctPlans(const std::vector<Cell>& cells) {
  std::vector<PreparedPlan> plans;
  for (const Cell& c : cells) {
    if (std::find(plans.begin(), plans.end(), c.plan) == plans.end()) {
      plans.push_back(c.plan);
    }
  }
  return plans;
}

void RunCommunicator(bool faulted, const Options& opts, Recorder& rec,
                     RunResult& result) {
  const std::unique_ptr<CommState> s = SetUp<CommState>(
      result, opts.trace ? 1 : kSetups,
      [&] { return MakeCommState(faulted, result); });

  // Calls visit the (collective, size) pairs in seeded order; faulted_2x8
  // replays each pair's fault plans back to back, so only the first call of
  // a run of per_base changes the lowering key.
  const std::size_t bases = s->cells.size() / s->per_base;
  Deck deck(opts.seed, bases);
  std::size_t base = 0;
  std::size_t within = s->per_base;
  std::uint64_t relowers = 0;
  std::uint64_t diverged = 0;
  std::vector<std::size_t> cell_of_op;
  const PlanCache::Stats before = s->comm->plan_cache().stats();
  RunTimedRegion(
      opts, rec, result, "op: Communicator call",
      [&](std::uint64_t, Recorder&) {
        if (within == s->per_base) {
          const std::size_t next = deck.Next();
          if (next != base) ++relowers;
          base = next;
          within = 0;
        }
        const std::size_t i = base * s->per_base + within++;
        cell_of_op.push_back(i);
        const Cell& cell = s->cells[i];
        if (!Reproduces(cell, Call(*s, i, cell.request))) ++diverged;
      },
      cell_of_op);
  const PlanCache::Stats after = s->comm->plan_cache().stats();
  result.FailOps(diverged, "call differs from its verified set-up run");
  SetSimMetrics(result, s->cells);
  if (!opts.trace) return;

  SetLayerDefaults(result);
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  result.Set("plan_cache.hit_frac", hits / (hits + misses), "frac");
  result.Set("plan_cache.compiles", static_cast<double>(after.misses),
             "count");
  result.Set("lowering.calls_per_op",
             static_cast<double>(relowers) /
                 static_cast<double>(result.attempted),
             "frac");
  AttachPlans(*s);
  CompileLayers(DistinctPlans(s->cells), rec, result);
  ExecuteLayers(s->cells, /*one_shot=*/false, rec, result);
}

// ---------------------------------------------------------------------------
// scale_1024: the micro_scale shape, 1024 ranks on a rail-aligned Clos.

struct ScaleState {
  Cell cell;
  ExecContext ctx;
};

std::unique_ptr<ScaleState> MakeScaleState(RunResult& result) {
  auto s = std::make_unique<ScaleState>();
  const auto topo = std::make_shared<const Topology>(
      presets::RailClos(/*nodes=*/128, /*gpus_per_node=*/8,
                        /*nics_per_node=*/4, /*racks=*/8));
  algorithms::CompositionSpec spec;
  spec.chunks = 64;
  const Algorithm algo = algorithms::ComposedAllReduce(*topo, spec);
  s->cell.plan = ValueOrThrow(
      Prepare(algo, topo, DefaultCompileOptions(kBackend),
              BackendName(kBackend)),
      "Prepare");
  s->cell.request.launch.buffer = Size::MiB(64);
  RunRequest verified = s->cell.request;
  verified.verify = true;
  RecordVerified(s->cell, s->ctx.Execute(s->cell.plan, verified), result);
  return s;
}

// ---------------------------------------------------------------------------
// prepare_384: the offline pipeline of Fig. 10(a).

// The Fig. 16 HM-AllReduce ResCCLang program for any cluster shape (the
// program bench/fig10_workflow_breakdown.cc compiles).
std::string HmAllReduceSource(int nodes, int gpus) {
  std::ostringstream os;
  os << "def ResCCLAlgo(nRanks=" << nodes * gpus
     << ", AlgoName=\"HM\", OpType=\"Allreduce\"):\n"
     << "    nNodes = " << nodes << "\n"
     << "    nGpus = " << gpus << "\n"
     << "    nChunks = nNodes * nGpus\n"
     << "    for n in range(0, nNodes):\n"
     << "        for r in range(0, nGpus):\n"
     << "            for x in range(0, nNodes):\n"
     << "                for o in range(0, nGpus - 1):\n"
     << "                    src = nGpus * n + r\n"
     << "                    dst = (r + o + 1) % nGpus + nGpus * n\n"
     << "                    transfer(src, dst, x * (nGpus - 1) + o, (dst + x "
        "* nGpus) % nChunks, rrc)\n"
     << "    for c in range(0, nChunks):\n"
     << "        for b in range(0, nNodes - 1):\n"
     << "            transfer((c + (b + 1) * nGpus) % nChunks, (c + (b + 2) * "
        "nGpus) % nChunks, nNodes * (nGpus - 1) + b, c, rrc)\n"
     << "    for c in range(0, nChunks):\n"
     << "        for b in range(0, nNodes - 1):\n"
     << "            transfer((c + b * nGpus) % nChunks, (c + (b + 1) * nGpus) "
        "% nChunks, nNodes * (nGpus - 1) + nNodes - 1 + b, c, recv)\n"
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

constexpr int kPrepareNodes = 48;

struct PrepareState {
  std::string source;
  std::shared_ptr<const Topology> topo;
  CompileOptions options;
  PreparedPlan reference;  // every cold Prepare must reproduce it
};

// Source text to a strictly verified PreparedPlan; null on any error.
PreparedPlan PrepareFromSource(const PrepareState& s, Recorder& rec) {
  std::optional<Algorithm> algo;
  Timed(rec, "lang::CompileSource", [&] {
    Result<Algorithm> parsed = lang::CompileSource(s.source);
    if (parsed.ok()) algo.emplace(std::move(parsed).value());
  });
  if (!algo) return nullptr;
  PreparedPlan plan;
  Timed(rec, "Prepare", [&] {
    Result<PreparedPlan> prepared =
        Prepare(*algo, s.topo, s.options, BackendName(kBackend));
    if (prepared.ok()) plan = std::move(prepared).value();
  });
  return plan;
}

bool SamePlan(const PreparedCollective& a, const PreparedCollective& b) {
  return a.plan.algo.transfers == b.plan.algo.transfers &&
         a.plan.wave_of_task == b.plan.wave_of_task &&
         a.plan.tbs.total_tbs() == b.plan.tbs.total_tbs() &&
         a.plan.tbs.send_tb == b.plan.tbs.send_tb &&
         a.plan.tbs.recv_tb == b.plan.tbs.recv_tb;
}

std::unique_ptr<PrepareState> MakePrepareState(RunResult& result) {
  auto s = std::make_unique<PrepareState>();
  s->source = HmAllReduceSource(kPrepareNodes, 8);
  s->topo = std::make_shared<const Topology>(presets::A100(kPrepareNodes, 8));
  s->options = DefaultCompileOptions(kBackend);
  s->options.strict_verify = true;
  Recorder off(false);
  s->reference = PrepareFromSource(*s, off);
  if (!result.Check(s->reference != nullptr,
                    "reference Prepare of the HM-AllReduce source failed")) {
    throw std::runtime_error("no reference plan");
  }
  return s;
}

}  // namespace

void RunReplay(const Options& opts, Recorder& rec, RunResult& result) {
  RunCommunicator(/*faulted=*/false, opts, rec, result);
}

void RunFaulted(const Options& opts, Recorder& rec, RunResult& result) {
  RunCommunicator(/*faulted=*/true, opts, rec, result);
}

void RunScale(const Options& opts, Recorder& rec, RunResult& result) {
  const std::unique_ptr<ScaleState> s = SetUp<ScaleState>(
      result, opts.trace ? 1 : kSetups,
      [&] { return MakeScaleState(result); });
  std::uint64_t diverged = 0;
  RunTimedRegion(
      opts, rec, result, "op: ExecContext::Execute",
      [&](std::uint64_t, Recorder&) {
        if (!Reproduces(s->cell,
                        s->ctx.Execute(s->cell.plan, s->cell.request))) {
          ++diverged;
        }
      },
      /*cell_of_op=*/{});
  result.FailOps(diverged, "call differs from its verified set-up run");
  SetSimMetrics(result, {s->cell});
  if (!opts.trace) return;

  SetLayerDefaults(result);
  result.Set("lowering.calls_per_op", 0, "frac");  // the key never changes
  CompileLayers({s->cell.plan}, rec, result);
  ExecuteLayers({s->cell}, /*one_shot=*/false, rec, result);
}

void RunPrepare(const Options& opts, Recorder& rec, RunResult& result) {
  const std::unique_ptr<PrepareState> s = SetUp<PrepareState>(
      result, opts.trace ? 1 : kSetups,
      [&] { return MakePrepareState(result); });
  std::uint64_t bad = 0;
  RunTimedRegion(
      opts, rec, result, "op: source to verified plan",
      [&](std::uint64_t, Recorder& loop_rec) {
        PreparedPlan plan = PrepareFromSource(*s, loop_rec);
        if (plan == nullptr || !SamePlan(*plan, *s->reference)) ++bad;
        return plan;
      },
      /*cell_of_op=*/{});
  result.FailOps(bad, "cold Prepare failed or differs from the reference");

  // The pipeline's output must run: one verified Execute of the plan, whose
  // simulated bandwidth is this workload's sim_algbw_gbps. One micro-batch:
  // nchunks (= ranks) chunks of 1 MiB.
  Cell cell;
  cell.plan = s->reference;
  cell.request.launch.buffer = Size::MiB(kPrepareNodes * 8);
  RunRequest verified = cell.request;
  verified.verify = true;
  ExecContext ctx;
  RecordVerified(cell, ctx.Execute(cell.plan, verified), result);
  SetSimMetrics(result, {cell});
  if (!opts.trace) return;

  SetLayerDefaults(result);
  const std::map<std::string, Recorder::Totals> totals = rec.Summarize();
  const Recorder::Totals& parse = totals.at("lang::CompileSource");
  result.Set("lang.tasks", s->reference->plan.algo.ntasks(), "count");
  result.Set("lang.parse_ms",
             parse.total_us / static_cast<double>(parse.count) / 1e3, "ms");
  result.Set("lang.parse_share",
             parse.total_us / totals.at("op: source to verified plan").total_us,
             "frac");
  // Strict verification lowers the plan once (AnalyzePlan's canonical
  // launch) per Prepare.
  result.Set("lowering.calls_per_op", 1, "frac");
  CompileLayers({s->reference}, rec, result);
  ExecuteLayers({cell}, /*one_shot=*/false, rec, result);
}

}  // namespace e2e
