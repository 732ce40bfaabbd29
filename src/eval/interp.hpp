// Expression interpreter — the "math system" of Sec. IV-A.
//
// Evaluates Tydi-lang expressions to Values at elaboration time (there is no
// runtime: hardware is static). Supports the builtin math library the paper
// demonstrates (e.g. `Bit(ceil(log2(10 ** 15 - 1)))`), ranges for the
// generative `for`, and array operations.
#pragma once

#include <stdexcept>

#include "src/ast/ast.hpp"
#include "src/eval/scope.hpp"
#include "src/eval/value.hpp"
#include "src/support/source.hpp"

namespace tydi::eval {

/// Raised on evaluation failure (unknown identifier, type mismatch, division
/// by zero, ...). Carries the source location of the failing subexpression.
class EvalError : public std::runtime_error {
 public:
  EvalError(std::string message, support::Loc loc)
      : std::runtime_error(std::move(message)), loc_(loc) {}

  [[nodiscard]] support::Loc loc() const { return loc_; }

 private:
  support::Loc loc_;
};

/// Evaluates `expr` in `scope`. Throws EvalError on failure.
[[nodiscard]] Value evaluate(const lang::Expr& expr, const Scope& scope);

/// Evaluates and requires an int (floats with integral value are accepted,
/// e.g. `ceil(...)` results).
[[nodiscard]] std::int64_t evaluate_int(const lang::Expr& expr,
                                        const Scope& scope);

/// Evaluates and requires a bool.
[[nodiscard]] bool evaluate_bool(const lang::Expr& expr, const Scope& scope);

/// Evaluates and requires a number, widened to double.
[[nodiscard]] double evaluate_number(const lang::Expr& expr,
                                     const Scope& scope);

/// The names of all builtin functions (for diagnostics/tests).
[[nodiscard]] const std::vector<std::string>& builtin_function_names();

}  // namespace tydi::eval
