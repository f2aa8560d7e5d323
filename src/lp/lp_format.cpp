#include "cinderella/lp/lp_format.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "cinderella/support/error.hpp"

namespace cinderella::lp {

namespace {

std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
        c == '[' || c == ']') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'v');
  }
  return out;
}

void writeExpr(std::ostringstream& out, const LinearExpr& expr,
               const Problem& p) {
  bool first = true;
  for (const auto& t : expr.terms()) {
    if (t.coeff >= 0) {
      if (!first) out << " + ";
    } else {
      out << (first ? "- " : " - ");
    }
    const double mag = t.coeff < 0 ? -t.coeff : t.coeff;
    if (mag != 1.0) out << mag << " ";
    out << sanitize(p.varName(t.var));
    first = false;
  }
  if (first) out << "0";
}

}  // namespace

std::string toLpFormat(const Problem& problem, const LpFormatOptions& options) {
  std::ostringstream out;
  if (options.header) {
    out << "\\ generated by cinderella-ipet\n";
  }
  out << (problem.sense() == Sense::Maximize ? "Maximize\n" : "Minimize\n");
  out << " obj: ";
  writeExpr(out, problem.objective(), problem);
  out << "\nSubject To\n";
  int index = 0;
  for (const auto& c : problem.constraints()) {
    out << " c" << index++ << ": ";
    writeExpr(out, c.expr, problem);
    switch (c.rel) {
      case Relation::LessEq:
        out << " <= ";
        break;
      case Relation::GreaterEq:
        out << " >= ";
        break;
      case Relation::Equal:
        out << " = ";
        break;
    }
    out << c.rhs << "\n";
  }
  // All variables are nonnegative, which is the LP-format default; only
  // the integrality section is needed.
  if (options.integer && problem.numVars() > 0) {
    out << "General\n";
    for (int v = 0; v < problem.numVars(); ++v) {
      out << " " << sanitize(problem.varName(v)) << "\n";
    }
  }
  out << "End\n";
  return out.str();
}

// --- Reader. ---------------------------------------------------------------

namespace {

/// Identifier characters match the writer's sanitizer output.
bool isNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '[' || c == ']';
}

bool isNumberStart(char c, char next) {
  return std::isdigit(static_cast<unsigned char>(c)) ||
         (c == '.' && std::isdigit(static_cast<unsigned char>(next)));
}

/// Case-insensitive ASCII comparison for section keywords.
bool keywordEq(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Tokenizer over the LP text.  `\` comments run to end of line.
class LpLexer {
 public:
  explicit LpLexer(std::string_view text) : text_(text) {}

  [[nodiscard]] bool atEnd() {
    skipSpace();
    return pos_ >= text_.size();
  }

  /// Peeks the next token without consuming it ("" at end of input).
  [[nodiscard]] std::string_view peek() {
    skipSpace();
    const std::size_t start = pos_;
    const std::string_view token = lex();
    pos_ = start;
    return token;
  }

  std::string_view next() {
    skipSpace();
    return lex();
  }

  [[noreturn]] void fail(const std::string& message) const {
    int line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError("LP format, line " + std::to_string(line) + ": " +
                     message);
  }

 private:
  void skipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {  // comment to end of line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view lex() {
    if (pos_ >= text_.size()) return {};
    const std::size_t start = pos_;
    const char c = text_[pos_];
    const char lookahead = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
    if (isNumberStart(c, lookahead)) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              ((text_[pos_] == '+' || text_[pos_] == '-') &&
               (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
    } else if (isNameChar(c)) {
      ++pos_;
      while (pos_ < text_.size() && isNameChar(text_[pos_])) ++pos_;
    } else if (c == '<' || c == '>' || c == '=') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == '=') ++pos_;
    } else if (c == '+' || c == '-' || c == ':') {
      ++pos_;
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    return text_.substr(start, pos_ - start);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool isNumberToken(std::string_view token) {
  return !token.empty() && isNumberStart(token[0], token.size() > 1
                                                       ? token[1]
                                                       : '\0');
}

bool isNameToken(std::string_view token) {
  return !token.empty() && isNameChar(token[0]) && !isNumberToken(token);
}

/// General/Integer/Binary: the sections that only mark integrality.
bool isIntegralitySection(std::string_view token) {
  return keywordEq(token, "general") || keywordEq(token, "generals") ||
         keywordEq(token, "gen") || keywordEq(token, "integer") ||
         keywordEq(token, "integers") || keywordEq(token, "int") ||
         keywordEq(token, "binary") || keywordEq(token, "binaries") ||
         keywordEq(token, "bin");
}

bool isSectionKeyword(std::string_view token) {
  return keywordEq(token, "subject") || keywordEq(token, "st") ||
         keywordEq(token, "s.t.") || isIntegralitySection(token) ||
         keywordEq(token, "bounds") || keywordEq(token, "bound") ||
         keywordEq(token, "end");
}

class LpParser {
 public:
  explicit LpParser(LpLexer* lexer) : lexer_(*lexer) {}

  Problem parse() {
    Problem problem;
    declareIntegralityNames(&problem);
    const std::string_view senseToken = lexer_.next();
    Sense sense;
    if (keywordEq(senseToken, "maximize") || keywordEq(senseToken, "max") ||
        keywordEq(senseToken, "maximise")) {
      sense = Sense::Maximize;
    } else if (keywordEq(senseToken, "minimize") ||
               keywordEq(senseToken, "min") ||
               keywordEq(senseToken, "minimise")) {
      sense = Sense::Minimize;
    } else {
      lexer_.fail("expected Maximize or Minimize, got '" +
                  std::string(senseToken) + "'");
    }
    problem.setObjective(parseExpr(&problem).first, sense);

    expectSubjectTo();
    while (!atSectionBoundary()) {
      auto [expr, rel, rhs] = parseConstraintRow(&problem);
      problem.addConstraint(std::move(expr), rel, rhs);
    }

    // Optional variable-marker sections.  Integrality is implied for the
    // IPET use case (the caller picks lp::solve or ilp::solve); Bounds
    // rows would change the feasible region, so they are rejected rather
    // than silently dropped.
    for (;;) {
      const std::string_view token = lexer_.peek();
      if (keywordEq(token, "end")) {
        lexer_.next();
        return problem;
      }
      if (keywordEq(token, "bounds") || keywordEq(token, "bound")) {
        lexer_.fail("Bounds sections are not supported (all variables are "
                    "implicitly >= 0 in this library)");
      }
      if (isIntegralitySection(token)) {
        lexer_.next();
        while (isNameToken(lexer_.peek()) && !isSectionKeyword(lexer_.peek())) {
          varOf(&problem, lexer_.next());
        }
        continue;
      }
      lexer_.fail("expected a section keyword or End, got '" +
                  std::string(token) + "'");
    }
  }

 private:
  void expectSubjectTo() {
    const std::string_view first = lexer_.next();
    if (keywordEq(first, "st") || keywordEq(first, "s.t.")) return;
    if (keywordEq(first, "subject") || keywordEq(first, "such")) {
      const std::string_view second = lexer_.next();
      if (keywordEq(second, "to") || keywordEq(second, "that")) return;
    }
    lexer_.fail("expected 'Subject To', got '" + std::string(first) + "'");
  }

  [[nodiscard]] bool atSectionBoundary() {
    const std::string_view token = lexer_.peek();
    if (token.empty()) lexer_.fail("unexpected end of input (missing End)");
    // A row label ("c0:") keeps a keyword-looking name from ending the
    // section; only a bare keyword does.
    return isSectionKeyword(token) && !rowHasLabelAhead();
  }

  /// True when the upcoming tokens look like "name :" (a row label).
  [[nodiscard]] bool rowHasLabelAhead() {
    LpLexer probe = lexer_;
    const std::string_view name = probe.next();
    if (!isNameToken(name)) return false;
    return probe.peek() == ":";
  }

  /// Numbers the integrality sections' names first, in the order
  /// listed (toLpFormat lists every variable there by index, and B&B
  /// branches by index).  Scans a copy of the lexer up to End; malformed
  /// text is left for the parse proper to report.
  void declareIntegralityNames(Problem* problem) {
    LpLexer scan = lexer_;
    try {
      for (std::string_view token = scan.next(); !token.empty();
           token = scan.next()) {
        const bool label = scan.peek() == ":";
        if (keywordEq(token, "end") && !label) return;
        if (!isIntegralitySection(token) || label) continue;
        while (isNameToken(scan.peek()) && !isSectionKeyword(scan.peek())) {
          varOf(problem, scan.next());
        }
      }
    } catch (const ParseError&) {
    }
  }

  int varOf(Problem* problem, std::string_view name) {
    const auto it = varIndex_.find(std::string(name));
    if (it != varIndex_.end()) return it->second;
    const int var = problem->addVar(std::string(name));
    varIndex_.emplace(std::string(name), var);
    return var;
  }

  double parseNumber(std::string_view token) {
    const std::string text(token);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
      lexer_.fail("malformed number '" + text + "'");
    }
    if (!std::isfinite(value)) lexer_.fail("non-finite number '" + text + "'");
    return value;
  }

  /// Parses `[label:] term (+|- term)*`; returns the expression and the
  /// sum of its constant terms.  Terms are always joined by an explicit
  /// sign, so the first name/number not preceded by one ends the
  /// expression (it belongs to the next row or section).
  std::pair<LinearExpr, double> parseExpr(Problem* problem) {
    if (rowHasLabelAhead()) {
      lexer_.next();  // label
      lexer_.next();  // ':'
    }
    LinearExpr expr;
    double constant = 0.0;
    bool expectTerm = true;  // a leading sign/term must follow
    double sign = 1.0;
    for (;;) {
      const std::string_view token = lexer_.peek();
      if (token == "+" || token == "-") {
        lexer_.next();
        sign *= (token == "-") ? -1.0 : 1.0;
        expectTerm = true;
        continue;
      }
      if (!expectTerm) break;
      if (isNumberToken(token)) {
        lexer_.next();
        const double value = parseNumber(token);
        if (variableFollows()) {
          expr.add(varOf(problem, lexer_.next()), sign * value);
        } else {
          constant += sign * value;
        }
      } else if (isNameToken(token) && !isSectionKeyword(token)) {
        lexer_.next();
        expr.add(varOf(problem, token), sign);
      } else {
        lexer_.fail("expected a term, got '" + std::string(token) + "'");
      }
      sign = 1.0;
      expectTerm = false;
    }
    expr.canonicalize();
    return {std::move(expr), constant};
  }

  /// True when the next token is a variable name — not a section
  /// keyword and not a `label:` of the following row.
  [[nodiscard]] bool variableFollows() {
    const std::string_view token = lexer_.peek();
    return isNameToken(token) && !isSectionKeyword(token) &&
           !rowHasLabelAhead();
  }

  std::tuple<LinearExpr, Relation, double> parseConstraintRow(
      Problem* problem) {
    auto [lhs, lhsConst] = parseExpr(problem);
    const std::string_view relToken = lexer_.next();
    Relation rel;
    if (relToken == "<=" || relToken == "<") {
      rel = Relation::LessEq;
    } else if (relToken == ">=" || relToken == ">") {
      rel = Relation::GreaterEq;
    } else if (relToken == "=" || relToken == "==") {
      rel = Relation::Equal;
    } else {
      lexer_.fail("expected <=, >= or =, got '" + std::string(relToken) +
                  "'");
    }
    auto [rhs, rhsConst] = parseExpr(problem);
    // Fold right-hand-side variables and left-hand-side constants over.
    for (const auto& t : rhs.terms()) lhs.add(t.var, -t.coeff);
    lhs.canonicalize();
    return {std::move(lhs), rel, rhsConst - lhsConst};
  }

  LpLexer& lexer_;
  std::map<std::string, int> varIndex_;
};

}  // namespace

Problem parseLpFormat(std::string_view text) {
  LpLexer lexer(text);
  LpParser parser(&lexer);
  Problem problem = parser.parse();
  if (!lexer.atEnd()) {
    lexer.fail("trailing text after End (use parseLpFormatAll for "
               "concatenated problems)");
  }
  return problem;
}

std::vector<Problem> parseLpFormatAll(std::string_view text) {
  std::vector<Problem> problems;
  LpLexer lexer(text);
  while (!lexer.atEnd()) {
    LpParser parser(&lexer);
    problems.push_back(parser.parse());
  }
  if (problems.empty()) {
    throw ParseError("LP format: input contains no problem");
  }
  return problems;
}

}  // namespace cinderella::lp
