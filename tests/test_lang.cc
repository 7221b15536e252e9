// ResCCLang tests: lexer, parser, evaluator — including the paper's Fig. 16
// HM-AllReduce program verbatim.
#include <gtest/gtest.h>

#include <algorithm>

#include "lang/eval.h"
#include "lang/lexer.h"
#include "lang/parser.h"

namespace resccl::lang {
namespace {

// ---------------- Lexer ----------------

TEST(LexerTest, BasicTokens) {
  auto toks = Lex("def ResCCLAlgo(nRanks=4):\n    x = 1 + 2\n");
  ASSERT_TRUE(toks.ok());
  const auto& v = toks.value();
  EXPECT_EQ(v[0].kind, TokenKind::kDef);
  EXPECT_EQ(v[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(v[1].text, "ResCCLAlgo");
  EXPECT_EQ(v[2].kind, TokenKind::kLParen);
  EXPECT_EQ(v.back().kind, TokenKind::kEndOfFile);
}

TEST(LexerTest, IndentDedentEmission) {
  auto toks = Lex("def f():\n  a = 1\n  b = 2\nc = 3\n");
  ASSERT_TRUE(toks.ok());
  int indents = 0, dedents = 0;
  for (const Token& t : toks.value()) {
    indents += t.kind == TokenKind::kIndent;
    dedents += t.kind == TokenKind::kDedent;
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(LexerTest, CommentsAndBlankLinesSkipped) {
  auto toks = Lex("# leading comment\n\n  \nx = 1  # trailing\n");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks.value().size(), 4u);
  EXPECT_EQ(toks.value()[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks.value()[0].line, 4);
}

TEST(LexerTest, StringsAndNumbers) {
  auto toks = Lex("name = \"HM\"\nother = 'x'\nn = 12345\n");
  ASSERT_TRUE(toks.ok());
  const auto& v = toks.value();
  EXPECT_EQ(v[2].kind, TokenKind::kString);
  EXPECT_EQ(v[2].text, "HM");
  EXPECT_EQ(v[6].text, "x");
  EXPECT_EQ(v[10].number, 12345);
}

TEST(LexerTest, TabsCountAsFourColumns) {
  auto algo = CompileSource(
      "def ResCCLAlgo(nRanks=4):\n"
      "\ttransfer(0, 1, 0, 0, recv)\n"
      "\ttransfer(1, 2, 1, 0, recv)\n");
  ASSERT_TRUE(algo.ok()) << algo.status().ToString();
  EXPECT_EQ(algo.value().transfers.size(), 2u);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("x = @\n").ok());
  EXPECT_FALSE(Lex("s = \"unterminated\n").ok());
  auto r = Lex("def f():\n   a = 1\n b = 2\n");  // inconsistent dedent
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("indentation"), std::string::npos);
  EXPECT_FALSE(Lex("n = 99999999999999999999\n").ok());  // overflow
}

// ---------------- Parser ----------------

constexpr const char* kRingAg = R"(
# Fig. 5(a): 4-rank ring AllGather
def ResCCLAlgo(nRanks=4, AlgoName="ring", OpType="Allgather"):
    N = 4
    for r in range(0, N):
        offset = r
        peer = (r+1)%N
        for step in range(0, N-1):
            transfer(r, peer, step, (offset-step)%N, recv)
)";

TEST(ParserTest, ParsesRingProgram) {
  auto prog = Parse(kRingAg);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const Program& p = prog.value();
  EXPECT_EQ(p.func_name, "ResCCLAlgo");
  ASSERT_EQ(p.params.size(), 3u);
  EXPECT_EQ(p.params[0].name, "nRanks");
  EXPECT_EQ(p.params[0].number, 4);
  EXPECT_TRUE(p.params[1].is_string);
  ASSERT_EQ(p.body.size(), 2u);
  EXPECT_EQ(p.body[0]->kind, Stmt::Kind::kAssign);
  EXPECT_EQ(p.body[1]->kind, Stmt::Kind::kFor);
  const Stmt& outer = *p.body[1];
  ASSERT_EQ(outer.body.size(), 3u);
  EXPECT_EQ(outer.body[2]->kind, Stmt::Kind::kFor);
  EXPECT_EQ(outer.body[2]->body[0]->kind, Stmt::Kind::kTransfer);
  EXPECT_EQ(outer.body[2]->body[0]->op, TransferOp::kRecv);
}

TEST(ParserTest, OperatorPrecedence) {
  auto prog = Parse("def ResCCLAlgo(nRanks=2):\n    x = 1 + 2 * 3\n");
  ASSERT_TRUE(prog.ok());
  const Expr& e = *prog.value().body[0]->value;
  ASSERT_EQ(e.kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.op, '+');
  EXPECT_EQ(e.rhs->op, '*');
}

TEST(ParserTest, SingleArgRangeDefaultsToZeroBase) {
  auto prog =
      Parse("def ResCCLAlgo(nRanks=2):\n    for i in range(5):\n        x = i\n");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const Stmt& loop = *prog.value().body[0];
  EXPECT_EQ(loop.range_begin->number, 0);
  EXPECT_EQ(loop.range_end->number, 5);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto r = Parse("def ResCCLAlgo(nRanks=2):\n    transfer(0, 1, 0)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsWrongFunctionName) {
  auto r = Parse("def SomethingElse(nRanks=2):\n    x = 1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ResCCLAlgo"), std::string::npos);
}

TEST(ParserTest, RejectsBadCommType) {
  auto r = Parse(
      "def ResCCLAlgo(nRanks=2):\n    transfer(0, 1, 0, 0, sendrecv)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("'recv' or 'rrc'"), std::string::npos);
}

TEST(ParserTest, RejectsEmptyBlockAndTrailingGarbage) {
  EXPECT_FALSE(Parse("def ResCCLAlgo(nRanks=2):\n").ok());
  EXPECT_FALSE(
      Parse("def ResCCLAlgo(nRanks=2):\n    x = 1\n)\n").ok());
}

// ---------------- Evaluator ----------------

TEST(EvalTest, FloorSemanticsMatchPython) {
  EXPECT_EQ(FloorMod(-1, 4), 3);
  EXPECT_EQ(FloorMod(-5, 4), 3);
  EXPECT_EQ(FloorMod(5, 4), 1);
  EXPECT_EQ(FloorMod(-4, 4), 0);
  EXPECT_EQ(FloorDiv(-1, 4), -1);
  EXPECT_EQ(FloorDiv(7, 2), 3);
  EXPECT_EQ(FloorDiv(-7, 2), -4);
}

TEST(EvalTest, RingProgramMatchesLibraryRing) {
  auto algo = CompileSource(kRingAg);
  ASSERT_TRUE(algo.ok()) << algo.status().ToString();
  const Algorithm& a = algo.value();
  EXPECT_EQ(a.nranks, 4);
  EXPECT_EQ(a.collective, CollectiveOp::kAllGather);
  EXPECT_EQ(a.name, "ring");
  EXPECT_EQ(a.transfers.size(), 12u);  // 4 ranks × 3 steps
  // Spot-check the (offset-step)%N chunk math, which needs floor-mod.
  const Transfer want{0, 1, 2, 2, TransferOp::kRecv};  // r=0, step=2: (0-2)%4=2
  EXPECT_NE(std::find(a.transfers.begin(), a.transfers.end(), want),
            a.transfers.end());
  EXPECT_TRUE(a.Validate().ok());
}

// The paper's Fig. 16 HM-AllReduce program, verbatim modulo whitespace.
constexpr const char* kFig16 = R"(
def ResCCLAlgo(nRanks=32, nChannels=4, nWarps=16, AlgoName="HM", OpType="Allreduce", GPUPerNode=8, NICPerNode=8):
    nNodes = 4
    nGpusperNode = 8
    nChunks = nNodes * nGpusperNode
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = baseStep * (nGpusperNode - 1) + offset
                    transfer(srcRank, dstRank, step, (dstRank + baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + baseStep
                transfer(srcRank, dstRank, step, (srcRank + nChunks - baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + nNodes - 1 + baseStep
                chunkId = (srcRank + nChunks - (baseStep + nNodes - 1) * nGpusperNode) % nChunks
                transfer(srcRank, dstRank, step, chunkId, recv)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = nNodes * (nGpusperNode - 1) + 2 * nNodes - 2 + baseStep
                    transfer(srcRank, dstRank, step, (srcRank + baseStep * nGpusperNode) % nChunks, recv)
)";

TEST(EvalTest, Fig16ProgramCompiles) {
  auto algo = CompileSource(kFig16);
  ASSERT_TRUE(algo.ok()) << algo.status().ToString();
  const Algorithm& a = algo.value();
  EXPECT_EQ(a.nranks, 32);
  EXPECT_EQ(a.collective, CollectiveOp::kAllReduce);
  // 4 stages: 32·4·7 + 32·3 + 32·3 + 32·4·7 transfers.
  EXPECT_EQ(a.transfers.size(), 896u + 96 + 96 + 896);
  EXPECT_TRUE(a.Validate().ok());
  int rrc = 0;
  for (const Transfer& t : a.transfers) {
    rrc += t.op == TransferOp::kRecvReduceCopy;
  }
  EXPECT_EQ(rrc, 896 + 96);  // the two ReduceScatter stages
}

TEST(EvalTest, UnknownOpTypeRejected) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=2, OpType=\"Gather\"):\n"
      "    transfer(0, 1, 0, 0, recv)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("OpType"), std::string::npos);
}

TEST(EvalTest, MissingNRanksRejected) {
  auto r = CompileSource(
      "def ResCCLAlgo(AlgoName=\"x\"):\n    transfer(0, 1, 0, 0, recv)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("nRanks"), std::string::npos);
}

TEST(EvalTest, UndefinedVariable) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=2):\n    transfer(bogus, 1, 0, 0, recv)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bogus"), std::string::npos);
}

// Variables resolve to slots before evaluation; a slot still reads as
// undefined until an executed statement assigns it.
TEST(EvalTest, ReadBeforeLaterAssignmentIsUndefined) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=2):\n"
      "    transfer(0, x, 0, 0, recv)\n"
      "    x = 1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("undefined variable 'x'"),
            std::string::npos)
      << r.status().ToString();
}

TEST(EvalTest, LoopVariableDefinedOnlyByExecutedIterations) {
  auto empty = CompileSource(
      "def ResCCLAlgo(nRanks=4):\n"
      "    for i in range(0, 0):\n"
      "        transfer(0, 1, 0, 0, recv)\n"
      "    transfer(i, 1, 0, 0, recv)\n");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("undefined variable 'i'"),
            std::string::npos)
      << empty.status().ToString();

  auto ran = CompileSource(
      "def ResCCLAlgo(nRanks=4):\n"
      "    for i in range(0, 3):\n"
      "        transfer(0, 1, i, 0, recv)\n"
      "    transfer(i, 0, 0, 0, recv)\n");
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_EQ(ran.value().transfers.back().src, 2);  // the last value, not 3
}

TEST(EvalTest, HeaderParametersReadAsVariables) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=4, nChannels=3):\n"
      "    transfer(0, nChannels, nRanks, 0, recv)\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().transfers[0].dst, 3);
  EXPECT_EQ(r.value().transfers[0].step, 4);
}

TEST(EvalTest, OperationCountIsExact) {
  // Every executed statement and every evaluated expression node is one
  // operation: 4 for the assignment, 3 for the loop header, 7 for each of
  // the 3 transfers (the statement plus 6 expression nodes) -- 28 in all.
  constexpr const char* kProgram =
      "def ResCCLAlgo(nRanks=4):\n"
      "    x = 1 + 2\n"
      "    for i in range(0, 3):\n"
      "        transfer(i, i + 1, x, 0, recv)\n";
  EvalLimits limits;
  limits.max_operations = 28;
  EXPECT_TRUE(CompileSource(kProgram, limits).ok());
  limits.max_operations = 27;
  const auto r = CompileSource(kProgram, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("operation limit"), std::string::npos);
}

// Steps 0 and 65536 are distinct tasks; only the full (src, dst, step,
// chunk) tuple makes a duplicate.
TEST(EvalTest, StepsBeyondSixteenBitsAreDistinctTasks) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=2):\n"
      "    transfer(0, 1, 0, 0, recv)\n"
      "    transfer(0, 1, 65536, 0, recv)\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().transfers.size(), 2u);

  auto dup = CompileSource(
      "def ResCCLAlgo(nRanks=2):\n"
      "    transfer(0, 1, 65536, 0, recv)\n"
      "    transfer(0, 1, 65536, 0, rrc)\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("transfer #1 (r0->r1, step 65536, "
                                        "chunk 0, rrc): duplicate task"),
            std::string::npos)
      << dup.status().ToString();
}

TEST(EvalTest, DivisionAndModuloByZero) {
  EXPECT_FALSE(CompileSource("def ResCCLAlgo(nRanks=2):\n    x = 1 / 0\n"
                             "    transfer(0, 1, 0, 0, recv)\n")
                   .ok());
  EXPECT_FALSE(CompileSource("def ResCCLAlgo(nRanks=2):\n    x = 1 % 0\n"
                             "    transfer(0, 1, 0, 0, recv)\n")
                   .ok());
}

TEST(EvalTest, OutOfRangeTransferRejectedWithLine) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=4):\n    transfer(0, 9, 0, 0, recv)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("rank out of range"), std::string::npos);
}

TEST(EvalTest, SelfTransferRejectedByValidation) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=4):\n    transfer(1, 1, 0, 0, recv)\n");
  EXPECT_FALSE(r.ok());
}

TEST(EvalTest, OperationLimitStopsRunaway) {
  EvalLimits limits;
  limits.max_operations = 1000;
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=2):\n"
      "    for i in range(0, 1000000):\n"
      "        x = i\n"
      "    transfer(0, 1, 0, 0, recv)\n",
      limits);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("operation limit"), std::string::npos);
}

TEST(EvalTest, NegativeRangeIsEmpty) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=2):\n"
      "    for i in range(5, 2):\n"
      "        transfer(0, 1, i, 0, recv)\n"
      "    transfer(0, 1, 0, 0, recv)\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().transfers.size(), 1u);
}

TEST(EvalTest, UnaryMinusAndParens) {
  auto r = CompileSource(
      "def ResCCLAlgo(nRanks=4):\n"
      "    x = -(1 - 2) * 3\n"
      "    transfer(0, x, 0, 0, recv)\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().transfers[0].dst, 3);
}

}  // namespace
}  // namespace resccl::lang
