#include "cinderella/fuzz/generator.hpp"

#include <utility>

#include "cinderella/support/error.hpp"

namespace cinderella::fuzz {

std::uint64_t deriveSeed(std::uint64_t baseSeed, std::uint64_t run) {
  // splitmix64: every (baseSeed, run) pair lands on a well-mixed,
  // nonzero stream even for small sequential inputs.
  std::uint64_t z = baseSeed + 0x9E3779B97F4A7C15ULL * (run + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z ? z : 1;
}

GeneratorOptions branchingProfile() {
  GeneratorOptions options;
  options.maxLoopBound = 12;
  options.maxLoopDepth = 3;
  options.maxTopStatements = 12;
  options.maxExprDepth = 3;
  options.arrayWords = 64;
  options.maxHelpers = 4;
  return options;
}

ProgramGenerator::ProgramGenerator(GeneratorOptions options)
    : options_(options) {
  CIN_REQUIRE(options_.maxLoopBound >= 1);
  CIN_REQUIRE(options_.arrayWords >= 2 &&
              (options_.arrayWords & (options_.arrayWords - 1)) == 0);
  CIN_REQUIRE(options_.maxTopStatements >= 2);
}

void ProgramGenerator::emit(std::string line) {
  body_.push_back(std::move(line));
}

std::string ProgramGenerator::indent(int depth) const {
  return std::string(static_cast<std::size_t>(depth) * 2, ' ');
}

std::string ProgramGenerator::var() {
  switch (rng_.range(0, 2)) {
    case 0: return "x0";
    case 1: return "x1";
    default: return "acc";
  }
}

std::string ProgramGenerator::expr(int depth) {
  const int mask = options_.arrayWords - 1;
  if (depth <= 0 || rng_.range(0, 2) == 0) {
    if (rng_.range(0, 1) == 0) return var();
    return std::to_string(rng_.range(-9, 9));
  }
  // Calls appear only in the root function, keeping the call graph a
  // depth-1 DAG that sema's recursion check always accepts.
  const bool canCall = !inHelper_ && numHelpers_ > 0 && depth >= 2;
  switch (rng_.range(0, canCall ? 5 : 4)) {
    case 0: return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
    case 1: return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
    case 2: return "(" + expr(depth - 1) + " * " + expr(depth - 1) + ")";
    case 3: return "(" + expr(depth - 1) + " ^ " + expr(depth - 1) + ")";
    case 4:
      return "t[(" + expr(depth - 1) + ") & " + std::to_string(mask) + "]";
    default:
      return "g" + std::to_string(rng_.range(0, numHelpers_ - 1)) + "(" +
             expr(1) + ", " + expr(1) + ")";
  }
}

std::string ProgramGenerator::condition() {
  static constexpr const char* kRel[] = {"<", "<=", ">", ">=", "==", "!="};
  return expr(1) + " " + kRel[rng_.range(0, 5)] + " " + expr(1);
}

void ProgramGenerator::genLoop(int depth, int loopBudget) {
  const auto trips = rng_.range(0, options_.maxLoopBound);
  tripProduct_ *= trips > 0 ? trips : 1;
  const std::string bound = std::to_string(trips);
  const bool useWhile = options_.whileLoops && rng_.range(0, 2) == 0;
  const std::string iv =
      (useWhile ? "w" : "i") + std::to_string(nextLocal_++);
  emit(indent(depth) + "int " + iv + ";");
  if (useWhile) {
    emit(indent(depth) + iv + " = 0;");
    emit(indent(depth) + "while (" + iv + " < " + bound + ") {");
  } else {
    emit(indent(depth) + "for (" + iv + " = 0; " + iv + " < " + bound +
         "; " + iv + " = " + iv + " + 1) {");
  }
  emit(indent(depth + 1) + "__loopbound(" + bound + ", " + bound + ");");
  genStatement(depth + 1, loopBudget - 1);
  if (useWhile) emit(indent(depth + 1) + iv + " = " + iv + " + 1;");
  emit(indent(depth) + "}");
}

void ProgramGenerator::genStatement(int depth, int loopBudget) {
  const int mask = options_.arrayWords - 1;
  const int kind = static_cast<int>(rng_.range(0, 5));
  if (kind <= 2) {  // assignment (scalar or array element)
    if (rng_.range(0, 3) == 0) {
      emit(indent(depth) + "t[(" + expr(1) + ") & " + std::to_string(mask) +
           "] = " + expr(options_.maxExprDepth) + ";");
    } else {
      emit(indent(depth) + var() + " = " + expr(options_.maxExprDepth) + ";");
    }
    return;
  }
  if (kind == 3) {  // if / if-else on a data-dependent condition
    emit(indent(depth) + "if (" + condition() + ") {");
    genStatement(depth + 1, loopBudget);
    if (rng_.range(0, 1)) {
      emit(indent(depth) + "} else {");
      genStatement(depth + 1, loopBudget);
    }
    emit(indent(depth) + "}");
    return;
  }
  if (loopBudget <= 0) {
    emit(indent(depth) + "acc = acc + 1;");
    return;
  }
  genLoop(depth, loopBudget);
}

void ProgramGenerator::genHelper(int index) {
  inHelper_ = true;
  emit("int g" + std::to_string(index) + "(int x0, int x1) {");
  emit("  int acc; acc = x1;");
  const int statements = static_cast<int>(rng_.range(1, 3));
  // A helper may carry at most one shallow loop so call costs stay small
  // relative to the root's own path structure.
  for (int i = 0; i < statements; ++i) genStatement(1, 1);
  emit("  return acc;");
  emit("}");
  inHelper_ = false;
}

GeneratedProgram ProgramGenerator::generate(std::uint64_t seed) {
  rng_ = Xorshift64(seed);
  body_.clear();
  nextLocal_ = 0;
  tripProduct_ = 1;
  numHelpers_ = 0;

  GeneratedProgram out;
  out.seed = seed;

  emit("int t[" + std::to_string(options_.arrayWords) + "];");
  const int helpers =
      options_.maxHelpers > 0
          ? static_cast<int>(rng_.range(0, options_.maxHelpers))
          : 0;
  for (int h = 0; h < helpers; ++h) genHelper(h);
  numHelpers_ = helpers;

  emit("int f(int x0, int x1) {");
  emit("  int acc; acc = x0;");
  const int statements =
      static_cast<int>(rng_.range(2, options_.maxTopStatements));
  for (int i = 0; i < statements; ++i) {
    genStatement(1, options_.maxLoopDepth);
  }
  emit("  return acc;");
  emit("}");

  for (const auto& line : body_) out.source += line + "\n";
  out.maxTotalTrips = tripProduct_;

  // Redundant-by-construction constraints (see header).  Each one is
  // implied by the structural constraints — block 0 of the root executes
  // exactly once — so the bound must not move, but the constraint
  // machinery (parsing, DNF expansion, null-set pruning, per-set
  // solving) is exercised on every shape.
  if (options_.emitConstraints && rng_.range(0, 1) == 0) {
    switch (rng_.range(0, 5)) {
      case 0: out.constraints.push_back("x0 = 1"); break;
      case 1: out.constraints.push_back("x0 = 1 | x0 = 0"); break;
      case 2: out.constraints.push_back("x0 >= 1 & 2 x0 <= 2"); break;
      // Overlapping disjuncts: after DNF expansion the sets below are
      // duplicates or supersets of each other, exercising the
      // incremental engine's canonicalization, dedup, and domination
      // pruning (the bound still must not move).
      case 3: out.constraints.push_back("x0 = 1 | x0 = 1"); break;
      default:
        out.constraints.push_back("x0 = 1 | (x0 = 1 & x0 <= 1)");
        break;
    }
  }
  return out;
}

}  // namespace cinderella::fuzz
