#include "core/plan_io.h"

#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

namespace resccl {

namespace {

constexpr const char* kMagic = "resccl-plan";
constexpr const char* kVersion = "v2";

// Line-scoped reader with positional diagnostics.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  bool NextLine() {
    while (std::getline(in_, line_)) {
      ++lineno_;
      if (!line_.empty()) {
        stream_ = std::istringstream(line_);
        return true;
      }
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("plan line " + std::to_string(lineno_) +
                                   ": " + message);
  }

  template <class T>
  bool Read(T& value) {
    stream_ >> value;
    return !stream_.fail();
  }

 private:
  std::istream& in_;
  std::string line_;
  std::istringstream stream_;
  int lineno_ = 0;
};

}  // namespace

void SavePlan(const CompiledCollective& plan, std::ostream& out) {
  out << kMagic << " " << kVersion << "\n";
  out << "algorithm " << plan.algo.name << " "
      << CollectiveOpTag(plan.algo.collective) << " " << plan.algo.nranks << " "
      << plan.algo.nchunks << " " << plan.algo.root << " "
      << plan.algo.ntasks() << "\n";
  for (const Transfer& t : plan.algo.transfers) {
    out << "t " << t.src << " " << t.dst << " " << t.step << " " << t.chunk
        << " " << (t.op == TransferOp::kRecvReduceCopy ? 1 : 0) << "\n";
  }
  out << "options " << static_cast<int>(plan.options.scheduler) << " "
      << static_cast<int>(plan.options.tb_alloc) << " "
      << static_cast<int>(plan.options.mode) << " "
      << static_cast<int>(plan.options.engine) << " " << plan.options.nstages
      << "\n";
  out << "schedule " << plan.schedule.nwaves() << "\n";
  for (const auto& wave : plan.schedule.sub_pipelines) {
    out << "w " << wave.size();
    for (TaskId t : wave) out << " " << t.value;
    out << "\n";
  }
  for (const auto& preds : plan.preds) {
    out << "p " << preds.size();
    for (int p : preds) out << " " << p;
    out << "\n";
  }
  out << "tbs " << plan.tbs.tbs.size() << "\n";
  for (const TbPlan::Tb& tb : plan.tbs.tbs) {
    out << "tb " << tb.rank << " " << tb.refs.size();
    for (const TbTaskRef& ref : tb.refs) {
      out << " " << ref.task.value << " "
          << (ref.dir == Direction::kSend ? 0 : 1);
    }
    out << "\n";
  }
}

std::string SavePlanToString(const CompiledCollective& plan) {
  std::ostringstream os;
  SavePlan(plan, os);
  return os.str();
}

Result<CompiledCollective> LoadPlan(std::istream& in) {
  Reader reader(in);
  CompiledCollective plan;

  if (!reader.NextLine()) return Status::InvalidArgument("empty plan");
  {
    std::string magic, version;
    if (!reader.Read(magic) || !reader.Read(version) || magic != kMagic) {
      return reader.Error(std::string("bad header (expected '") + kMagic +
                          " " + kVersion + "')");
    }
    if (version != kVersion) {
      return reader.Error("unsupported plan version " + version +
                          "; this build reads only " + kVersion +
                          " (recompile the source with `resccl compile`)");
    }
  }

  int ntasks = 0;
  if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
  {
    std::string keyword, collective;
    if (!reader.Read(keyword) || keyword != "algorithm" ||
        !reader.Read(plan.algo.name) || !reader.Read(collective) ||
        !reader.Read(plan.algo.nranks) || !reader.Read(plan.algo.nchunks) ||
        !reader.Read(plan.algo.root) || !reader.Read(ntasks) || ntasks < 1) {
      return reader.Error("bad algorithm header");
    }
    const std::optional<CollectiveOp> op = ParseCollectiveOpTag(collective);
    if (!op) {
      return Status::InvalidArgument("unknown collective tag '" + collective +
                                     "'");
    }
    plan.algo.collective = *op;
  }

  plan.algo.transfers.reserve(static_cast<std::size_t>(ntasks));
  for (int i = 0; i < ntasks; ++i) {
    if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
    std::string keyword;
    Transfer t;
    int rrc = 0;
    if (!reader.Read(keyword) || keyword != "t" || !reader.Read(t.src) ||
        !reader.Read(t.dst) || !reader.Read(t.step) || !reader.Read(t.chunk) ||
        !reader.Read(rrc)) {
      return reader.Error("bad transfer record");
    }
    t.op = rrc != 0 ? TransferOp::kRecvReduceCopy : TransferOp::kRecv;
    plan.algo.transfers.push_back(t);
  }
  if (Status s = plan.algo.Validate(); !s.ok()) {
    return Status::InvalidArgument("plan algorithm invalid: " + s.message());
  }

  if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
  {
    std::string keyword;
    int scheduler = 0, alloc = 0, mode = 0, engine = 0;
    if (!reader.Read(keyword) || keyword != "options" ||
        !reader.Read(scheduler) || !reader.Read(alloc) || !reader.Read(mode) ||
        !reader.Read(engine) || !reader.Read(plan.options.nstages)) {
      return reader.Error("bad options record");
    }
    if (scheduler < 0 || scheduler > 2 || alloc < 0 || alloc > 1 || mode < 0 ||
        mode > 2 || engine < 0 || engine > 1 || plan.options.nstages < 1) {
      return reader.Error("options out of range");
    }
    plan.options.scheduler = static_cast<SchedulerKind>(scheduler);
    plan.options.tb_alloc = static_cast<TbAllocPolicy>(alloc);
    plan.options.mode = static_cast<ExecutionMode>(mode);
    plan.options.engine = static_cast<RuntimeEngine>(engine);
  }

  int nwaves = 0;
  if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
  {
    std::string keyword;
    if (!reader.Read(keyword) || keyword != "schedule" ||
        !reader.Read(nwaves) || nwaves < 1) {
      return reader.Error("bad schedule header");
    }
  }
  for (int w = 0; w < nwaves; ++w) {
    if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
    std::string keyword;
    std::size_t count = 0;
    if (!reader.Read(keyword) || keyword != "w" || !reader.Read(count)) {
      return reader.Error("bad wave record");
    }
    std::vector<TaskId> wave;
    wave.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      int task = -1;
      if (!reader.Read(task) || task < 0 || task >= ntasks) {
        return reader.Error("wave task id out of range");
      }
      wave.push_back(TaskId(task));
    }
    plan.schedule.sub_pipelines.push_back(std::move(wave));
  }

  // A TB ref's wave and issue order are derived exactly as AllocateTbs
  // numbers them: the task's sub-pipeline and its wave-major position.
  plan.wave_of_task.assign(static_cast<std::size_t>(ntasks), -1);
  std::vector<int> order_of_task(static_cast<std::size_t>(ntasks), -1);
  int order = 0;
  for (int w = 0; w < nwaves; ++w) {
    for (TaskId t : plan.schedule.sub_pipelines[static_cast<std::size_t>(w)]) {
      plan.wave_of_task[static_cast<std::size_t>(t.value)] = w;
      order_of_task[static_cast<std::size_t>(t.value)] = order++;
    }
  }
  for (int t = 0; t < ntasks; ++t) {
    if (plan.wave_of_task[static_cast<std::size_t>(t)] < 0) {
      return Status::InvalidArgument("schedule misses task " +
                                     std::to_string(t));
    }
  }

  plan.preds.resize(static_cast<std::size_t>(ntasks));
  for (int i = 0; i < ntasks; ++i) {
    if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
    std::string keyword;
    std::size_t count = 0;
    if (!reader.Read(keyword) || keyword != "p" || !reader.Read(count)) {
      return reader.Error("bad predecessor record");
    }
    for (std::size_t k = 0; k < count; ++k) {
      int p = -1;
      if (!reader.Read(p) || p < 0 || p >= ntasks || p == i) {
        return reader.Error("predecessor id out of range");
      }
      plan.preds[static_cast<std::size_t>(i)].push_back(p);
    }
  }

  std::size_t ntbs = 0;
  if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
  {
    std::string keyword;
    if (!reader.Read(keyword) || keyword != "tbs" || !reader.Read(ntbs) ||
        ntbs == 0) {
      return reader.Error("bad tbs header");
    }
  }
  plan.tbs.send_tb.assign(static_cast<std::size_t>(ntasks), -1);
  plan.tbs.recv_tb.assign(static_cast<std::size_t>(ntasks), -1);
  for (std::size_t i = 0; i < ntbs; ++i) {
    if (!reader.NextLine()) return Status::InvalidArgument("truncated plan");
    std::string keyword;
    TbPlan::Tb tb;
    std::size_t nrefs = 0;
    if (!reader.Read(keyword) || keyword != "tb" || !reader.Read(tb.rank) ||
        !reader.Read(nrefs)) {
      return reader.Error("bad tb record");
    }
    if (tb.rank < 0 || tb.rank >= plan.algo.nranks) {
      return reader.Error("tb rank out of range");
    }
    for (std::size_t k = 0; k < nrefs; ++k) {
      TbTaskRef ref;
      int task = -1, dir = 0;
      if (!reader.Read(task) || !reader.Read(dir) || task < 0 ||
          task >= ntasks || dir < 0 || dir > 1) {
        return reader.Error("bad tb ref");
      }
      ref.task = TaskId(task);
      ref.wave = plan.wave_of_task[static_cast<std::size_t>(task)];
      ref.order = order_of_task[static_cast<std::size_t>(task)];
      ref.dir = dir == 0 ? Direction::kSend : Direction::kRecv;
      auto& slot = ref.dir == Direction::kSend
                       ? plan.tbs.send_tb[static_cast<std::size_t>(task)]
                       : plan.tbs.recv_tb[static_cast<std::size_t>(task)];
      if (slot != -1) return reader.Error("task assigned to two TBs");
      slot = static_cast<int>(i);
      tb.refs.push_back(ref);
    }
    plan.tbs.tbs.push_back(std::move(tb));
  }
  for (int t = 0; t < ntasks; ++t) {
    if (plan.tbs.send_tb[static_cast<std::size_t>(t)] < 0 ||
        plan.tbs.recv_tb[static_cast<std::size_t>(t)] < 0) {
      return Status::InvalidArgument(
          "plan incomplete: task " + std::to_string(t) +
          " has no TB assignment");
    }
  }
  return plan;
}

Result<CompiledCollective> LoadPlanFromString(const std::string& text) {
  std::istringstream is(text);
  return LoadPlan(is);
}

}  // namespace resccl
