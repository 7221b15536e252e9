// ResCCLang abstract syntax tree (Appendix B's BNF).
//
//   def  ::= 'def' ResCCLAlgo '(' paramList ')' ':' suite
//   stat ::= assign | for | transfer
//   assign ::= id '=' exp
//   for ::= 'for' id 'in' 'range' '(' exp [',' exp] ')' ':' suite
//   transfer ::= 'transfer' '(' exp ',' exp ',' exp ',' exp ',' commType ')'
//   exp ::= number | id | exp mop exp | '(' exp ')',  mop ∈ {+ - * / %}
//
// The parser resolves every variable name to a slot, an index into the
// evaluator's variable table in [0, Program::nslots). Header parameters,
// assignment targets, loop variables and variable reads that spell the
// same name share one slot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.h"

namespace resccl::lang {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind : std::uint8_t { kNumber, kVariable, kBinary };
  Kind kind = Kind::kNumber;
  int line = 0;

  std::int64_t number = 0;  // kNumber
  std::string name;         // kVariable
  int slot = -1;            // kVariable
  char op = 0;              // kBinary: one of + - * / %
  ExprPtr lhs, rhs;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind : std::uint8_t { kAssign, kFor, kTransfer };
  Kind kind = Kind::kAssign;
  int line = 0;

  // kAssign: name = value
  std::string name;  // also kFor's loop variable
  int slot = -1;     // name's slot
  ExprPtr value;

  // kFor: for name in range(begin, end): body   (begin defaults to 0)
  ExprPtr range_begin, range_end;
  std::vector<StmtPtr> body;

  // kTransfer: transfer(src, dst, step, chunk, comm_type)
  ExprPtr src, dst, step, chunk;
  TransferOp op = TransferOp::kRecv;  // comm_type: recv | rrc
};

// Header parameters: `name = <number|string>` pairs.
struct Param {
  std::string name;
  bool is_string = false;
  std::int64_t number = 0;
  std::string text;
  int line = 0;
  int slot = -1;  // parameters such as nRanks are readable as variables
};

struct Program {
  std::string func_name;       // must be "ResCCLAlgo"
  std::vector<Param> params;
  std::vector<StmtPtr> body;
  int nslots = 0;  // distinct variable names
};

}  // namespace resccl::lang
