#include "lang/parser.h"

#include <unordered_map>
#include <utility>

#include "lang/lexer.h"

namespace resccl::lang {

namespace {

// Throwing internally keeps the descent simple; the public Parse converts
// to Status at the boundary.
struct ParseError {
  Status status;
};

[[noreturn]] void Fail(const Token& at, const std::string& message) {
  throw ParseError{Status::InvalidArgument(
      "line " + std::to_string(at.line) + ": " + message + " (got " +
      TokenKindName(at.kind) + ")")};
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program ParseProgram() {
    Program prog;
    Expect(TokenKind::kDef, "expected 'def'");
    const Token& name = Expect(TokenKind::kIdentifier, "expected function name");
    prog.func_name = name.text;
    if (prog.func_name != "ResCCLAlgo") {
      Fail(name, "ResCCLang programs must define 'ResCCLAlgo'");
    }
    Expect(TokenKind::kLParen, "expected '('");
    if (!Check(TokenKind::kRParen)) {
      do {
        prog.params.push_back(ParseParam());
      } while (Accept(TokenKind::kComma));
    }
    Expect(TokenKind::kRParen, "expected ')'");
    Expect(TokenKind::kColon, "expected ':'");
    Expect(TokenKind::kNewline, "expected newline after ':'");
    prog.body = ParseSuite();
    if (!Check(TokenKind::kEndOfFile)) {
      Fail(Peek(), "unexpected trailing content");
    }
    prog.nslots = static_cast<int>(slot_of_.size());
    return prog;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Accept(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& Expect(TokenKind kind, const std::string& message) {
    if (!Check(kind)) Fail(Peek(), message);
    return Advance();
  }

  // The slot of `name`, allocated on first sight.
  int SlotOf(const std::string& name) {
    return slot_of_.emplace(name, static_cast<int>(slot_of_.size()))
        .first->second;
  }

  Param ParseParam() {
    Param p;
    const Token& name = Expect(TokenKind::kIdentifier, "expected parameter name");
    p.name = name.text;
    p.slot = SlotOf(p.name);
    p.line = name.line;
    Expect(TokenKind::kAssign, "expected '=' in parameter");
    if (Check(TokenKind::kString)) {
      p.is_string = true;
      p.text = Advance().text;
    } else if (Check(TokenKind::kNumber)) {
      p.number = Advance().number;
    } else {
      Fail(Peek(), "parameter value must be a number or string");
    }
    return p;
  }

  std::vector<StmtPtr> ParseSuite() {
    Expect(TokenKind::kIndent, "expected an indented block");
    std::vector<StmtPtr> stmts;
    while (!Check(TokenKind::kDedent) && !Check(TokenKind::kEndOfFile)) {
      stmts.push_back(ParseStatement());
    }
    Accept(TokenKind::kDedent);
    if (stmts.empty()) Fail(Peek(), "empty block");
    return stmts;
  }

  StmtPtr ParseStatement() {
    if (Check(TokenKind::kFor)) return ParseFor();
    if (Check(TokenKind::kTransfer)) return ParseTransfer();
    if (Check(TokenKind::kIdentifier)) return ParseAssign();
    Fail(Peek(), "expected a statement (assignment, for, or transfer)");
  }

  StmtPtr ParseAssign() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kAssign;
    const Token& name = Expect(TokenKind::kIdentifier, "expected name");
    stmt->name = name.text;
    stmt->slot = SlotOf(stmt->name);
    stmt->line = name.line;
    Expect(TokenKind::kAssign, "expected '='");
    stmt->value = ParseExpr();
    Expect(TokenKind::kNewline, "expected end of line");
    return stmt;
  }

  StmtPtr ParseFor() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kFor;
    stmt->line = Expect(TokenKind::kFor, "expected 'for'").line;
    const Token& var = Expect(TokenKind::kIdentifier, "expected loop variable");
    stmt->name = var.text;
    stmt->slot = SlotOf(stmt->name);
    Expect(TokenKind::kIn, "expected 'in'");
    Expect(TokenKind::kRange, "expected 'range'");
    Expect(TokenKind::kLParen, "expected '('");
    ExprPtr first = ParseExpr();
    if (Accept(TokenKind::kComma)) {
      stmt->range_begin = std::move(first);
      stmt->range_end = ParseExpr();
    } else {
      auto zero = std::make_unique<Expr>();
      zero->kind = Expr::Kind::kNumber;
      zero->number = 0;
      zero->line = stmt->line;
      stmt->range_begin = std::move(zero);
      stmt->range_end = std::move(first);
    }
    Expect(TokenKind::kRParen, "expected ')'");
    Expect(TokenKind::kColon, "expected ':'");
    Expect(TokenKind::kNewline, "expected newline after ':'");
    stmt->body = ParseSuite();
    return stmt;
  }

  StmtPtr ParseTransfer() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kTransfer;
    stmt->line = Expect(TokenKind::kTransfer, "expected 'transfer'").line;
    Expect(TokenKind::kLParen, "expected '('");
    stmt->src = ParseExpr();
    Expect(TokenKind::kComma, "expected ','");
    stmt->dst = ParseExpr();
    Expect(TokenKind::kComma, "expected ','");
    stmt->step = ParseExpr();
    Expect(TokenKind::kComma, "expected ','");
    stmt->chunk = ParseExpr();
    Expect(TokenKind::kComma, "expected ','");
    const Token& comm =
        Expect(TokenKind::kIdentifier, "expected communication type");
    if (comm.text != "recv" && comm.text != "rrc") {
      Fail(comm, "communication type must be 'recv' or 'rrc'");
    }
    stmt->op = comm.text == "rrc" ? TransferOp::kRecvReduceCopy
                                  : TransferOp::kRecv;
    Expect(TokenKind::kRParen, "expected ')'");
    Expect(TokenKind::kNewline, "expected end of line");
    return stmt;
  }

  // exp := term (('+'|'-') term)*       term := unary (('*'|'/'|'%') unary)*
  ExprPtr ParseExpr() {
    ExprPtr lhs = ParseTerm();
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      const Token& op = Advance();
      auto bin = std::make_unique<Expr>();
      bin->kind = Expr::Kind::kBinary;
      bin->line = op.line;
      bin->op = op.kind == TokenKind::kPlus ? '+' : '-';
      bin->lhs = std::move(lhs);
      bin->rhs = ParseTerm();
      lhs = std::move(bin);
    }
    return lhs;
  }

  ExprPtr ParseTerm() {
    ExprPtr lhs = ParseUnary();
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) ||
           Check(TokenKind::kPercent)) {
      const Token& op = Advance();
      auto bin = std::make_unique<Expr>();
      bin->kind = Expr::Kind::kBinary;
      bin->line = op.line;
      bin->op = op.kind == TokenKind::kStar
                    ? '*'
                    : (op.kind == TokenKind::kSlash ? '/' : '%');
      bin->lhs = std::move(lhs);
      bin->rhs = ParseUnary();
      lhs = std::move(bin);
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (Check(TokenKind::kMinus)) {
      const Token& op = Advance();
      auto zero = std::make_unique<Expr>();
      zero->kind = Expr::Kind::kNumber;
      zero->number = 0;
      zero->line = op.line;
      auto bin = std::make_unique<Expr>();
      bin->kind = Expr::Kind::kBinary;
      bin->line = op.line;
      bin->op = '-';
      bin->lhs = std::move(zero);
      bin->rhs = ParseUnary();
      return bin;
    }
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    auto expr = std::make_unique<Expr>();
    if (Check(TokenKind::kNumber)) {
      const Token& t = Advance();
      expr->kind = Expr::Kind::kNumber;
      expr->number = t.number;
      expr->line = t.line;
      return expr;
    }
    if (Check(TokenKind::kIdentifier)) {
      const Token& t = Advance();
      expr->kind = Expr::Kind::kVariable;
      expr->name = t.text;
      expr->slot = SlotOf(expr->name);
      expr->line = t.line;
      return expr;
    }
    if (Accept(TokenKind::kLParen)) {
      ExprPtr inner = ParseExpr();
      Expect(TokenKind::kRParen, "expected ')'");
      return inner;
    }
    Fail(Peek(), "expected an expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::unordered_map<std::string, int> slot_of_;
};

}  // namespace

Result<Program> Parse(std::string_view source) {
  Result<std::vector<Token>> tokens = Lex(source);
  if (!tokens.ok()) return tokens.status();
  try {
    Parser parser(std::move(tokens).value());
    return parser.ParseProgram();
  } catch (const ParseError& e) {
    return e.status;
  }
}

}  // namespace resccl::lang
