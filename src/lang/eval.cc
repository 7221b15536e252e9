#include "lang/eval.h"

#include <string>
#include <vector>

#include "common/check.h"
#include "lang/parser.h"

namespace resccl::lang {

std::int64_t FloorDiv(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::int64_t FloorMod(std::int64_t a, std::int64_t b) {
  const std::int64_t m = a % b;
  return (m != 0 && (m < 0) != (b < 0)) ? m + b : m;
}

namespace {

struct EvalError {
  Status status;
};

[[noreturn]] void Fail(int line, const std::string& message) {
  throw EvalError{Status::InvalidArgument("line " + std::to_string(line) +
                                          ": " + message)};
}

class Evaluator {
 public:
  Evaluator(const Program& program, const EvalLimits& limits)
      : program_(program),
        limits_(limits),
        env_(static_cast<std::size_t>(program.nslots), 0),
        defined_(static_cast<std::size_t>(program.nslots), false) {}

  Algorithm Run() {
    Algorithm algo;
    algo.name = "resccl_algo";
    algo.collective = CollectiveOp::kAllReduce;

    std::int64_t nranks = 0;
    int nranks_slot = -1;
    for (const Param& p : program_.params) {
      if (p.name == "nRanks") {
        nranks = RequireNumber(p);
        nranks_slot = p.slot;
      } else if (p.name == "AlgoName") {
        RequireString(p);
        algo.name = p.text;
      } else if (p.name == "OpType") {
        RequireString(p);
        if (p.text == "Allgather") {
          algo.collective = CollectiveOp::kAllGather;
        } else if (p.text == "Allreduce") {
          algo.collective = CollectiveOp::kAllReduce;
        } else if (p.text == "Reducescatter") {
          algo.collective = CollectiveOp::kReduceScatter;
        } else if (p.text == "Broadcast") {
          algo.collective = CollectiveOp::kBroadcast;
        } else if (p.text == "Reduce") {
          algo.collective = CollectiveOp::kReduce;
        } else {
          Fail(p.line, "unknown OpType '" + p.text +
                           "' (expected Allgather, Allreduce, "
                           "Reducescatter, Broadcast, or Reduce)");
        }
      } else if (p.name == "Root") {
        algo.root = static_cast<Rank>(RequireNumber(p));
      } else if (p.name == "nChannels" || p.name == "nWarps" ||
                 p.name == "GPUPerNode" || p.name == "NICPerNode") {
        // Accepted for compatibility with the BNF; execution parameters are
        // decided by the ResCCL compiler, not the algorithm (§4.2).
        Define(p.slot, RequireNumber(p));
      } else {
        Fail(p.line, "unknown parameter '" + p.name + "'");
      }
    }
    if (nranks < 2) {
      throw EvalError{Status::InvalidArgument(
          "ResCCLAlgo requires nRanks >= 2 in its parameter list")};
    }
    algo.nranks = static_cast<int>(nranks);
    algo.nchunks = static_cast<int>(nranks);
    Define(nranks_slot, nranks);

    for (const StmtPtr& stmt : program_.body) Exec(*stmt, algo);
    return algo;
  }

 private:
  std::int64_t RequireNumber(const Param& p) {
    if (p.is_string) Fail(p.line, "parameter '" + p.name + "' must be numeric");
    return p.number;
  }
  void RequireString(const Param& p) {
    if (!p.is_string) Fail(p.line, "parameter '" + p.name + "' must be a string");
  }

  void Define(int slot, std::int64_t value) {
    const auto i = static_cast<std::size_t>(slot);
    RESCCL_CHECK_MSG(i < env_.size(), "variable slot " << slot
                                          << " was never resolved");
    env_[i] = value;
    defined_[i] = true;
  }

  void Tick(int line) {
    if (++operations_ > limits_.max_operations) {
      Fail(line, "program exceeded the operation limit");
    }
  }

  std::int64_t Eval(const Expr& e) {
    Tick(e.line);
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return e.number;
      case Expr::Kind::kVariable: {
        const auto i = static_cast<std::size_t>(e.slot);
        if (i >= env_.size() || !defined_[i]) {
          Fail(e.line, "undefined variable '" + e.name + "'");
        }
        return env_[i];
      }
      case Expr::Kind::kBinary: {
        const std::int64_t a = Eval(*e.lhs);
        const std::int64_t b = Eval(*e.rhs);
        switch (e.op) {
          case '+': return a + b;
          case '-': return a - b;
          case '*': return a * b;
          case '/':
            if (b == 0) Fail(e.line, "division by zero");
            return FloorDiv(a, b);
          case '%':
            if (b == 0) Fail(e.line, "modulo by zero");
            return FloorMod(a, b);
          default: Fail(e.line, "unknown operator");
        }
      }
    }
    Fail(e.line, "malformed expression");
  }

  void Exec(const Stmt& s, Algorithm& algo) {
    Tick(s.line);
    switch (s.kind) {
      case Stmt::Kind::kAssign:
        Define(s.slot, Eval(*s.value));
        return;
      case Stmt::Kind::kFor: {
        const std::int64_t begin = Eval(*s.range_begin);
        const std::int64_t end = Eval(*s.range_end);
        for (std::int64_t i = begin; i < end; ++i) {
          Define(s.slot, i);
          for (const StmtPtr& inner : s.body) Exec(*inner, algo);
        }
        return;
      }
      case Stmt::Kind::kTransfer: {
        if (static_cast<std::int64_t>(algo.transfers.size()) >=
            limits_.max_transfers) {
          Fail(s.line, "program exceeded the transfer limit");
        }
        Transfer t;
        const std::int64_t src = Eval(*s.src);
        const std::int64_t dst = Eval(*s.dst);
        const std::int64_t step = Eval(*s.step);
        const std::int64_t chunk = Eval(*s.chunk);
        auto in_range = [&](std::int64_t v, std::int64_t hi) {
          return v >= 0 && v < hi;
        };
        if (!in_range(src, algo.nranks) || !in_range(dst, algo.nranks)) {
          Fail(s.line, "transfer rank out of range [0, " +
                           std::to_string(algo.nranks) + ")");
        }
        if (!in_range(chunk, algo.nchunks)) {
          Fail(s.line, "transfer chunk out of range [0, " +
                           std::to_string(algo.nchunks) + ")");
        }
        if (step < 0 || step > 1'000'000) {
          Fail(s.line, "transfer step out of range");
        }
        t.src = static_cast<Rank>(src);
        t.dst = static_cast<Rank>(dst);
        t.step = static_cast<Step>(step);
        t.chunk = static_cast<ChunkId>(chunk);
        t.op = s.op;
        algo.transfers.push_back(t);
        return;
      }
    }
  }

  const Program& program_;
  const EvalLimits& limits_;
  // Variable values and whether each has been assigned yet, by slot.
  std::vector<std::int64_t> env_;
  std::vector<bool> defined_;
  std::int64_t operations_ = 0;
};

}  // namespace

Result<Algorithm> Evaluate(const Program& program, const EvalLimits& limits) {
  try {
    Evaluator evaluator(program, limits);
    Algorithm algo = evaluator.Run();
    if (Status s = algo.Validate(); !s.ok()) return s;
    return algo;
  } catch (const EvalError& e) {
    return e.status;
  }
}

Result<Algorithm> CompileSource(std::string_view source,
                                const EvalLimits& limits) {
  Result<Program> program = Parse(source);
  if (!program.ok()) return program.status();
  return Evaluate(program.value(), limits);
}

}  // namespace resccl::lang
