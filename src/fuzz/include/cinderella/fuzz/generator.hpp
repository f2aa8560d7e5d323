// Seeded random MiniC program generation for differential testing.
//
// The generator produces well-formed programs by construction: every
// loop is counted with an exact `__loopbound(t, t)` annotation, every
// array access is masked into range, division never appears (no fault
// paths), helper calls form a DAG (no recursion), and loop induction
// variables are never touched by generated statements.  A generated
// program therefore always passes `lang` sema and always terminates on
// the simulator, so any failure downstream is a bug in the analyzers,
// not in the input.
//
// Optional functionality constraints are *redundant by construction*:
// each emitted constraint (or disjunction of constraints) is implied by
// the structural flow equations, e.g. `x0 = 1` for the root entry block
// or `x0 = 1 | x0 = 0` (whose second disjunct is a null set the pruner
// must eliminate).  Redundancy is what keeps both oracles applicable:
// the constrained IPET bound must equal the unconstrained one, and
// exact agreement with explicit enumeration still holds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cinderella/support/text.hpp"

namespace cinderella::fuzz {

struct GeneratorOptions {
  /// Maximum exact trip count of a generated counted loop (>= 1).
  int maxLoopBound = 4;
  /// Maximum loop nesting per statement tree.
  int maxLoopDepth = 2;
  /// Statements in the root function body (uniform in [2, this]).
  int maxTopStatements = 6;
  /// Maximum expression tree depth.
  int maxExprDepth = 2;
  /// Global scratch array size in words (power of two; accesses are
  /// masked with `& (arrayWords - 1)`).
  int arrayWords = 8;
  /// Maximum helper functions callable from the root (0 disables calls).
  int maxHelpers = 2;
  /// Generate counted `while` loops in addition to `for` loops.
  bool whileLoops = true;
  /// Emit redundant-by-construction functionality constraints (see file
  /// comment) for roughly half the generated programs.
  bool emitConstraints = false;
};

/// The `branching` profile: deeper loop nests with larger trip counts,
/// longer bodies, a 64-word array and up to four helpers.  Under the
/// conflict-graph cache mode a share of these programs has a fractional
/// root relaxation, so branch-and-bound really branches; the default
/// options almost never get there.  emitConstraints is left off.
[[nodiscard]] GeneratorOptions branchingProfile();

/// One generated program plus everything an oracle needs to drive it.
struct GeneratedProgram {
  std::uint64_t seed = 0;
  std::string source;
  /// Root function to analyse/simulate; takes two int parameters.
  std::string root = "f";
  /// Redundant functionality constraints (scope = root); may be empty.
  std::vector<std::string> constraints;
  /// Static upper bound on loop trips, used to size enumeration caps.
  std::int64_t maxTotalTrips = 1;
};

/// Deterministic program generator: the same (options, seed) pair always
/// produces the same GeneratedProgram, byte for byte.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(GeneratorOptions options = {});

  [[nodiscard]] GeneratedProgram generate(std::uint64_t seed);

 private:
  void emit(std::string line);
  [[nodiscard]] std::string indent(int depth) const;
  [[nodiscard]] std::string var();
  [[nodiscard]] std::string expr(int depth);
  [[nodiscard]] std::string condition();
  void genStatement(int depth, int loopBudget);
  void genLoop(int depth, int loopBudget);
  void genHelper(int index);

  GeneratorOptions options_;
  Xorshift64 rng_{1};
  std::vector<std::string> body_;
  int nextLocal_ = 0;
  int numHelpers_ = 0;
  /// True while generating a helper body (calls are then forbidden,
  /// keeping the call graph a DAG of depth 1).
  bool inHelper_ = false;
  std::int64_t tripProduct_ = 1;
};

/// Splitmix64 seed derivation: the per-run program seed for run `run` of
/// a campaign seeded with `baseSeed`.  Shared by the fuzzer, the CLI and
/// the tests so a failing run can be reproduced from (baseSeed, run).
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t baseSeed,
                                       std::uint64_t run);

}  // namespace cinderella::fuzz
