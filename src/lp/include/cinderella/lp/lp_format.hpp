// CPLEX-LP-format writer and reader.
//
// The paper's tool handed its constraint systems to an off-the-shelf
// ILP package; this writer provides the same interop: any Problem can be
// exported and solved/inspected with lp_solve, CBC, glpsol, CPLEX, or
// Gurobi (all read this format).  The reader closes the loop: an
// exported system (or one written by another tool) can be re-ingested
// and solved with this repository's own lp::solve / ilp::solve.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cinderella/lp/problem.hpp"

namespace cinderella::lp {

struct LpFormatOptions {
  /// Declare every variable integral (the IPET use case).
  bool integer = true;
  /// Emit a comment header naming the producer.
  bool header = true;
};

/// Renders `problem` in LP format.  Variable names are sanitized to the
/// format's identifier rules (alphanumeric plus _ . [] are kept; other
/// characters become '_'; a leading digit gets a 'v' prefix).
[[nodiscard]] std::string toLpFormat(const Problem& problem,
                                     const LpFormatOptions& options = {});

/// Parses one LP-format problem (`Maximize`/`Minimize` … `End`).
/// Variables listed in a `General`/`Integer` section are numbered first,
/// in the order listed, so a problem written by toLpFormat keeps its
/// variable order; any other variable follows in order of first
/// appearance (objective, then constraints).  Supported grammar is the
/// subset this library writes — objective, `Subject To` rows with
/// `<=`/`>=`/`=`, an optional `General`/`Integer` section, `\`-comments —
/// which is also what lp_solve/CBC emit for pure-integer programs.
/// Integrality markers are accepted and ignored: the caller chooses the
/// solver (lp::solve vs ilp::solve).  Throws ParseError on malformed
/// input or trailing text.
[[nodiscard]] Problem parseLpFormat(std::string_view text);

/// Parses a concatenation of LP-format problems, e.g. the output of
/// ipet::Analyzer::exportWorstCaseIlp() (one problem per constraint
/// set).  Throws ParseError when the text contains no problem at all.
[[nodiscard]] std::vector<Problem> parseLpFormatAll(std::string_view text);

}  // namespace cinderella::lp
