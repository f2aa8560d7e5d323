// LP-format writer and reader tests.
#include <gtest/gtest.h>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::lp {
namespace {

Problem sample() {
  Problem p;
  const int x = p.addVar("x1");
  const int y = p.addVar("f.x2[f1]");
  LinearExpr obj;
  obj.add(x, 3.0);
  obj.add(y, 1.0);
  p.setObjective(obj, Sense::Maximize);
  LinearExpr c1;
  c1.add(x, 1.0);
  c1.add(y, -2.0);
  p.addConstraint(std::move(c1), Relation::LessEq, 5.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  p.addConstraint(std::move(c2), Relation::Equal, 2.0);
  return p;
}

TEST(LpFormat, HasAllSections) {
  const std::string text = toLpFormat(sample());
  EXPECT_NE(text.find("Maximize"), std::string::npos);
  EXPECT_NE(text.find("Subject To"), std::string::npos);
  EXPECT_NE(text.find("General"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

TEST(LpFormat, WritesObjectiveAndConstraints) {
  const std::string text = toLpFormat(sample());
  EXPECT_NE(text.find("obj: 3 x1 + f.x2[f1]"), std::string::npos);
  EXPECT_NE(text.find("c0: x1 - 2 f.x2[f1] <= 5"), std::string::npos);
  EXPECT_NE(text.find("c1: x1 = 2"), std::string::npos);
}

TEST(LpFormat, ContinuousModeOmitsGeneral) {
  LpFormatOptions options;
  options.integer = false;
  const std::string text = toLpFormat(sample(), options);
  EXPECT_EQ(text.find("General"), std::string::npos);
}

TEST(LpFormat, SanitizesHostileNames) {
  Problem p;
  const int a = p.addVar("1bad name");
  LinearExpr obj;
  obj.add(a, 1.0);
  p.setObjective(obj, Sense::Minimize);
  const std::string text = toLpFormat(p);
  EXPECT_NE(text.find("v1bad_name"), std::string::npos);
}

TEST(LpFormat, MinimizationHeader) {
  Problem p;
  const int a = p.addVar("a");
  LinearExpr obj;
  obj.add(a, 1.0);
  p.setObjective(obj, Sense::Minimize);
  EXPECT_NE(toLpFormat(p).find("Minimize"), std::string::npos);
}

TEST(LpFormat, EmptyObjectiveRendersZero) {
  Problem p;
  (void)p.addVar("a");
  p.setObjective(LinearExpr{}, Sense::Maximize);
  EXPECT_NE(toLpFormat(p).find("obj: 0"), std::string::npos);
}

// --- Reader. ---------------------------------------------------------------

TEST(LpParse, WriterOutputRoundTripsExactly) {
  // write -> parse -> write must reproduce the text: the parser numbers
  // the General section's variables first, in the writer's index order.
  const std::string text = toLpFormat(sample());
  const Problem parsed = parseLpFormat(text);
  EXPECT_EQ(toLpFormat(parsed), text);
}

TEST(LpParse, ParsedProblemStructure) {
  const Problem p = parseLpFormat(toLpFormat(sample()));
  EXPECT_EQ(p.numVars(), 2);
  EXPECT_EQ(p.varName(0), "x1");
  EXPECT_EQ(p.varName(1), "f.x2[f1]");
  EXPECT_EQ(p.sense(), Sense::Maximize);
  ASSERT_EQ(p.constraints().size(), 2u);
  EXPECT_EQ(p.constraints()[0].rel, Relation::LessEq);
  EXPECT_EQ(p.constraints()[0].rhs, 5.0);
  EXPECT_EQ(p.constraints()[1].rel, Relation::Equal);
  EXPECT_EQ(p.constraints()[1].rhs, 2.0);
}

TEST(LpParse, AcceptsVariablesOnBothSidesAndConstantsOnTheLeft) {
  const Problem p = parseLpFormat(
      "Minimize\n obj: x + y\nSubject To\n"
      " r0: 2 x + 3 <= 5 + y\n"
      " r1: - x >= -4\n"
      "End\n");
  EXPECT_EQ(p.sense(), Sense::Minimize);
  ASSERT_EQ(p.constraints().size(), 2u);
  // 2x + 3 <= 5 + y  =>  2x - y <= 2
  EXPECT_EQ(p.constraints()[0].rhs, 2.0);
  ASSERT_EQ(p.constraints()[0].expr.terms().size(), 2u);
  EXPECT_EQ(p.constraints()[0].expr.terms()[0].coeff, 2.0);
  EXPECT_EQ(p.constraints()[0].expr.terms()[1].coeff, -1.0);
  EXPECT_EQ(p.constraints()[1].rhs, -4.0);
  EXPECT_EQ(p.constraints()[1].rel, Relation::GreaterEq);
}

TEST(LpParse, AcceptsCommentsMixedCaseAndUnlabelledRows) {
  const Problem p = parseLpFormat(
      "\\ a comment line\n"
      "MAXIMIZE\n 3 a + 2 b\n"
      "subject to\n a + b <= 7 \\ trailing comment\n"
      "Integer\n a\n b\nEnd\n");
  EXPECT_EQ(p.numVars(), 2);
  ASSERT_EQ(p.constraints().size(), 1u);
  EXPECT_EQ(p.constraints()[0].rhs, 7.0);
}

TEST(LpParse, GeneralSectionDeclaresUnreferencedVariables) {
  const Problem p = parseLpFormat(
      "Maximize\n obj: x\nSubject To\n c0: x <= 3\n"
      "General\n x\n unused\nEnd\n");
  EXPECT_EQ(p.numVars(), 2);
  EXPECT_EQ(p.varName(1), "unused");
}

TEST(LpParse, IntegralitySectionFixesTheVariableOrder) {
  // The objective names b first, but General lists a first: the
  // General order wins, and unlisted names follow by first appearance.
  const Problem p = parseLpFormat(
      "Maximize\n obj: 2 b + a + c\nSubject To\n c0: a + b + c <= 3\n"
      "General\n a\n b\nEnd\n");
  ASSERT_EQ(p.numVars(), 3);
  EXPECT_EQ(p.varName(0), "a");
  EXPECT_EQ(p.varName(1), "b");
  EXPECT_EQ(p.varName(2), "c");
  ASSERT_EQ(p.objective().terms().size(), 3u);
  EXPECT_EQ(p.objective().terms()[0].var, 0);
  EXPECT_EQ(p.objective().terms()[0].coeff, 1.0);
  EXPECT_EQ(p.objective().terms()[1].var, 1);
  EXPECT_EQ(p.objective().terms()[1].coeff, 2.0);
}

TEST(LpParse, ReingestedIpetIlpBranchesLikeTheAnalyzer) {
  // Branch-and-bound branches on the lowest-index fractional variable,
  // and the analyzer numbers flow counts before cache variables.  An
  // exported ILP read back keeps that order, so it expands the same
  // tree as the analyzer's own worst-case solve (recon/ccg has a
  // fractional root).
  const suite::Benchmark& bench = suite::benchmarkByName("recon");
  const auto compiled = codegen::compileSource(bench.source);
  ipet::AnalyzerOptions options;
  options.cacheMode = ipet::CacheMode::ConflictGraph;
  ipet::Analyzer analyzer(compiled, bench.rootFunction, options);
  for (const auto& c : bench.constraints) analyzer.addConstraint(c.text, c.scope);
  const ipet::Estimate estimate = analyzer.estimate();
  const std::vector<Problem> problems =
      parseLpFormatAll(analyzer.exportWorstCaseIlp());
  ASSERT_EQ(problems.size(), estimate.setRecords.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    SCOPED_TRACE(i);
    const ipet::IlpSolveRecord& worst = estimate.setRecords[i].worst;
    ASSERT_TRUE(worst.solved);
    EXPECT_FALSE(worst.firstRelaxationIntegral);
    const ilp::IlpSolution reread = ilp::solve(problems[i]);
    ASSERT_EQ(reread.status, ilp::IlpStatus::Optimal);
    EXPECT_EQ(reread.objectiveExact, worst.objective);
    EXPECT_EQ(reread.stats.nodesExpanded, worst.counters.nodesExpanded);
  }
}

TEST(LpParse, ParsesConcatenatedProblems) {
  const std::string text =
      "\\ constraint set 0 of 2\n"
      "Maximize\n obj: x\nSubject To\n c0: x <= 3\nEnd\n"
      "\\ constraint set 1 of 2\n"
      "Maximize\n obj: y\nSubject To\n c0: y <= 4\nEnd\n";
  const std::vector<Problem> problems = parseLpFormatAll(text);
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_EQ(problems[0].constraints()[0].rhs, 3.0);
  EXPECT_EQ(problems[1].constraints()[0].rhs, 4.0);
}

TEST(LpParse, RejectsMalformedInput) {
  EXPECT_THROW((void)parseLpFormat(""), ParseError);
  EXPECT_THROW((void)parseLpFormat("Frobnicate\n obj: x\nEnd\n"), ParseError);
  EXPECT_THROW((void)parseLpFormat("Maximize\n obj: x\nSubject To\n x <= 3\n"),
               ParseError);  // missing End
  EXPECT_THROW(
      (void)parseLpFormat("Maximize\n obj: x\nSubject To\n x ? 3\nEnd\n"),
      ParseError);
  EXPECT_THROW((void)parseLpFormat("Maximize\n obj: x\nSubject To\n"
                                   " x <= 3\nBounds\n x <= 9\nEnd\n"),
               ParseError);  // Bounds unsupported
  // One problem per parseLpFormat call.
  EXPECT_THROW(
      (void)parseLpFormat("Maximize\n obj: x\nSubject To\n x <= 1\nEnd\n"
                          "Maximize\n obj: y\nSubject To\n y <= 1\nEnd\n"),
      ParseError);
  EXPECT_THROW((void)parseLpFormatAll("\\ only a comment\n"), ParseError);
}

TEST(LpParse, ParsedProblemSolvesLikeTheOriginal) {
  // sample() is unbounded (nothing caps f.x2[f1] from above), so cap it to
  // get a problem both sides can solve to optimality.
  Problem original = sample();
  LinearExpr cap;
  cap.add(1, 1.0);
  original.addConstraint(std::move(cap), Relation::LessEq, 10.0);
  const Problem parsed = parseLpFormat(toLpFormat(original));
  const Solution a = solve(original);
  const Solution b = solve(parsed);
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_EQ(b.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

}  // namespace
}  // namespace cinderella::lp
