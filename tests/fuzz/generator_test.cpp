// Generator validity: every generated program must be well-formed by
// construction — sema-clean, simulator-safe, deterministic per seed.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/sim/simulator.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::fuzz {
namespace {

TEST(DeriveSeedTest, MixesAndNeverReturnsZero) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 4; ++base) {
    for (std::uint64_t run = 0; run < 64; ++run) {
      const std::uint64_t s = deriveSeed(base, run);
      EXPECT_NE(s, 0u);
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);  // no collisions on a small grid
}

TEST(GeneratorTest, DeterministicPerSeed) {
  GeneratorOptions options;
  options.emitConstraints = true;
  ProgramGenerator a(options);
  ProgramGenerator b(options);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const GeneratedProgram pa = a.generate(seed);
    const GeneratedProgram pb = b.generate(seed);
    EXPECT_EQ(pa.source, pb.source) << "seed " << seed;
    EXPECT_EQ(pa.constraints, pb.constraints) << "seed " << seed;
  }
  // Reusing one generator instance must not leak state across calls.
  const GeneratedProgram first = a.generate(7);
  (void)a.generate(8);
  EXPECT_EQ(a.generate(7).source, first.source);
}

TEST(GeneratorTest, SeedsProduceDistinctPrograms) {
  ProgramGenerator gen;
  EXPECT_NE(gen.generate(1).source, gen.generate(2).source);
}

TEST(GeneratorTest, RespectsMaxLoopBound) {
  GeneratorOptions options;
  options.maxLoopBound = 2;
  ProgramGenerator gen(options);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const GeneratedProgram program = gen.generate(seed);
    for (const auto& line : splitLines(program.source)) {
      const auto pos = line.find("__loopbound(");
      if (pos == std::string::npos) continue;
      const char digit = line[pos + std::string("__loopbound(").size()];
      EXPECT_TRUE(digit == '0' || digit == '1' || digit == '2')
          << line << " (seed " << seed << ")";
    }
  }
}

// The 1k-program validity sweep: every generated program passes the
// full frontend (lexer, parser, sema, codegen) and runs on the
// simulator without faulting.  Failures print the offending source.
TEST(GeneratorTest, OneThousandProgramsCompileAndSimulate) {
  GeneratorOptions options;
  options.emitConstraints = true;
  ProgramGenerator gen(options);
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const GeneratedProgram program = gen.generate(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + program.source);
    codegen::CompileResult compiled;
    ASSERT_NO_THROW(compiled = codegen::compileSource(program.source));
    const auto fn = compiled.module.findFunction(program.root);
    ASSERT_TRUE(fn.has_value());

    sim::Simulator simulator(compiled.module);
    Xorshift64 rng(seed * 1234567 + 89);
    const std::vector<std::int64_t> args = {rng.range(-20, 20),
                                            rng.range(-20, 20)};
    sim::SimOptions simOptions;
    std::vector<std::uint64_t> data(
        static_cast<std::size_t>(options.arrayWords));
    for (auto& w : data) w = sim::encodeInt(rng.range(-50, 50));
    simOptions.patches.push_back({"t", std::move(data)});
    ASSERT_NO_THROW((void)simulator.run(*fn, args, simOptions));
  }
}

TEST(GeneratorProfile, BranchingProfileLeavesConstraintsToTheCaller) {
  // BranchingCorpus's node ceiling was measured on exactly this shape.
  const GeneratorOptions profile = branchingProfile();
  EXPECT_EQ(profile.maxLoopBound, 12);
  EXPECT_EQ(profile.maxLoopDepth, 3);
  EXPECT_EQ(profile.maxTopStatements, 12);
  EXPECT_EQ(profile.maxExprDepth, 3);
  EXPECT_EQ(profile.arrayWords, 64);
  EXPECT_EQ(profile.maxHelpers, 4);
  EXPECT_FALSE(profile.emitConstraints);
}

}  // namespace
}  // namespace cinderella::fuzz
