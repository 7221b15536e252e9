#include "runtime/backend.h"

#include <utility>

#include "analysis/analyzer.h"
#include "common/check.h"
#include "obs/publish.h"
#include "runtime/exec_context.h"

namespace resccl {

CompileOptions DefaultCompileOptions(BackendKind kind) {
  CompileOptions opts;
  switch (kind) {
    case BackendKind::kResCCL:
      opts.scheduler = SchedulerKind::kHpds;
      opts.tb_alloc = TbAllocPolicy::kStateBased;
      opts.mode = ExecutionMode::kTaskLevel;
      opts.engine = RuntimeEngine::kGeneratedKernel;
      break;
    case BackendKind::kMscclLike:
      opts.scheduler = SchedulerKind::kStepOrder;  // executes as authored
      opts.tb_alloc = TbAllocPolicy::kConnectionBased;
      opts.mode = ExecutionMode::kStageLevel;
      opts.engine = RuntimeEngine::kInterpreter;
      opts.nstages = 2;
      break;
    case BackendKind::kNcclLike:
      opts.scheduler = SchedulerKind::kStepOrder;  // executes as authored
      opts.tb_alloc = TbAllocPolicy::kConnectionBased;
      opts.mode = ExecutionMode::kAlgorithmLevel;
      opts.engine = RuntimeEngine::kGeneratedKernel;
      break;
  }
  return opts;
}

Result<PreparedPlan> Prepare(const Algorithm& algo,
                             std::shared_ptr<const Topology> topo,
                             const CompileOptions& options,
                             std::string_view backend_name) {
  RESCCL_CHECK(topo != nullptr);
  Result<CompiledCollective> compiled = Compile(algo, *topo, options);
  if (!compiled.ok()) return compiled.status();

  if (options.strict_verify) {
    CompiledCollective& plan = compiled.value();
    const AnalysisReport verdict = AnalyzePlan(plan, topo.get());
    plan.stats.verify_us = verdict.analysis_us;
    if (!verdict.clean()) {
      return Status::FailedPrecondition("strict verify rejected plan '" +
                                        plan.algo.name +
                                        "': " + verdict.Summary());
    }
  }

  auto prepared = std::make_shared<PreparedCollective>();
  prepared->topo = std::move(topo);
  prepared->plan = std::move(compiled).value();
  prepared->backend = std::string(backend_name);
  obs::PublishCompileStats(obs::MetricsRegistry::Global(),
                           prepared->plan.stats);
  return PreparedPlan(std::move(prepared));
}

Result<PreparedPlan> Prepare(const Algorithm& algo, const Topology& topo,
                             const CompileOptions& options,
                             std::string_view backend_name) {
  return Prepare(algo, std::make_shared<const Topology>(topo), options,
                 backend_name);
}

Result<PreparedPlan> Prepare(const Algorithm& algo, const Topology& topo,
                             BackendKind kind) {
  return Prepare(algo, topo, DefaultCompileOptions(kind), BackendName(kind));
}

CollectiveReport Execute(const PreparedCollective& prepared,
                         const RunRequest& request) {
  // One-shot path: a throwaway ExecContext runs the shared implementation.
  // The aliasing shared_ptr is non-owning — safe, because both it and the
  // context die before this call returns, and `prepared` outlives the call.
  ExecContext ctx;
  return ctx.Execute(PreparedPlan(std::shared_ptr<const PreparedCollective>(),
                                  &prepared),
                     request);
}

}  // namespace resccl
