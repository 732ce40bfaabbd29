#include "src/eval/interp.hpp"

#include <cmath>
#include <limits>

// GCC's -Wmaybe-uninitialized fires a known false positive on std::variant
// copies under optimization (PR105593 family); the Value variant returned
// from eval_binary trips it. Silenced here so -Werror builds stay clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace tydi::eval {

namespace {

using lang::BinaryOp;
using lang::Expr;
using lang::UnaryOp;

[[noreturn]] void fail(const std::string& message, support::Loc loc) {
  throw EvalError(message, loc);
}

Value numeric_result(double value, bool prefer_int) {
  if (prefer_int && std::floor(value) == value &&
      std::abs(value) < 9.0e18) {
    return Value(static_cast<std::int64_t>(value));
  }
  return Value(value);
}

Value eval_binary(const lang::Binary& bin, const Scope& scope,
                  support::Loc loc) {
  // Short-circuit logicals evaluate lazily.
  if (bin.op == BinaryOp::kAnd || bin.op == BinaryOp::kOr) {
    Value lhs = evaluate(*bin.lhs, scope);
    if (!lhs.is_bool()) {
      fail(std::string("left operand of '") +
               std::string(to_string(bin.op)) + "' must be bool, got " +
               std::string(lhs.type_name()),
           bin.lhs->loc);
    }
    if (bin.op == BinaryOp::kAnd && !lhs.as_bool()) return Value(false);
    if (bin.op == BinaryOp::kOr && lhs.as_bool()) return Value(true);
    Value rhs = evaluate(*bin.rhs, scope);
    if (!rhs.is_bool()) {
      fail(std::string("right operand of '") +
               std::string(to_string(bin.op)) + "' must be bool, got " +
               std::string(rhs.type_name()),
           bin.rhs->loc);
    }
    return rhs;
  }

  Value lhs = evaluate(*bin.lhs, scope);
  Value rhs = evaluate(*bin.rhs, scope);

  switch (bin.op) {
    case BinaryOp::kRange: {
      // Half-open integer range [lhs, rhs), the paper's `0-1->channel`
      // iteration domain.
      if (!lhs.is_int() || !rhs.is_int()) {
        fail("range bounds must be integers, got " +
                 std::string(lhs.type_name()) + " and " +
                 std::string(rhs.type_name()),
             loc);
      }
      Array arr;
      for (std::int64_t i = lhs.as_int(); i < rhs.as_int(); ++i) {
        arr.push_back(Value(i));
      }
      return Value(std::move(arr));
    }
    case BinaryOp::kAdd:
      if (lhs.is_string() && rhs.is_string()) {
        return Value(lhs.as_string() + rhs.as_string());
      }
      if (lhs.is_array() && rhs.is_array()) {
        Array joined = lhs.as_array();
        for (const Value& v : rhs.as_array()) joined.push_back(v);
        return Value(std::move(joined));
      }
      if (lhs.is_numeric() && rhs.is_numeric()) {
        return numeric_result(lhs.as_number() + rhs.as_number(),
                              lhs.is_int() && rhs.is_int());
      }
      fail("'+' requires numbers, strings or arrays", loc);
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
    case BinaryOp::kPow: {
      if (!lhs.is_numeric() || !rhs.is_numeric()) {
        fail(std::string("'") + std::string(to_string(bin.op)) +
                 "' requires numeric operands, got " +
                 std::string(lhs.type_name()) + " and " +
                 std::string(rhs.type_name()),
             loc);
      }
      bool both_int = lhs.is_int() && rhs.is_int();
      switch (bin.op) {
        case BinaryOp::kSub:
          return numeric_result(lhs.as_number() - rhs.as_number(), both_int);
        case BinaryOp::kMul:
          return numeric_result(lhs.as_number() * rhs.as_number(), both_int);
        case BinaryOp::kDiv:
          if (both_int) {
            if (rhs.as_int() == 0) fail("integer division by zero", loc);
            return Value(lhs.as_int() / rhs.as_int());
          }
          if (rhs.as_number() == 0.0) fail("division by zero", loc);
          return Value(lhs.as_number() / rhs.as_number());
        case BinaryOp::kMod:
          if (!both_int) fail("'%' requires integer operands", loc);
          if (rhs.as_int() == 0) fail("modulo by zero", loc);
          return Value(lhs.as_int() % rhs.as_int());
        case BinaryOp::kPow: {
          double result = std::pow(lhs.as_number(), rhs.as_number());
          bool int_result =
              both_int && rhs.as_int() >= 0 && std::floor(result) == result &&
              std::abs(result) < 9.0e18;
          return numeric_result(result, int_result);
        }
        default:
          break;
      }
      fail("unreachable arithmetic case", loc);
    }
    case BinaryOp::kEq:
      return Value(lhs == rhs);
    case BinaryOp::kNe:
      return Value(!(lhs == rhs));
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      double cmp;
      if (lhs.is_numeric() && rhs.is_numeric()) {
        cmp = lhs.as_number() - rhs.as_number();
      } else if (lhs.is_string() && rhs.is_string()) {
        cmp = static_cast<double>(lhs.as_string().compare(rhs.as_string()));
      } else {
        fail("comparison requires two numbers or two strings", loc);
      }
      switch (bin.op) {
        case BinaryOp::kLt: return Value(cmp < 0);
        case BinaryOp::kLe: return Value(cmp <= 0);
        case BinaryOp::kGt: return Value(cmp > 0);
        default: return Value(cmp >= 0);
      }
    }
    default:
      fail("unhandled binary operator", loc);
  }
}

Value eval_call(const lang::Call& call, const Scope& scope,
                support::Loc loc) {
  std::vector<Value> args;
  args.reserve(call.args.size());
  for (const auto& a : call.args) args.push_back(evaluate(*a, scope));

  auto require_arity = [&](std::size_t n) {
    if (args.size() != n) {
      fail(call.callee.str() + "() expects " + std::to_string(n) +
               " argument(s), got " + std::to_string(args.size()),
           loc);
    }
  };
  auto num = [&](std::size_t i) -> double {
    if (!args[i].is_numeric()) {
      fail(call.callee.str() + "() argument " + std::to_string(i + 1) +
               " must be numeric, got " + std::string(args[i].type_name()),
           loc);
    }
    return args[i].as_number();
  };

  const std::string& f = call.callee.str();
  if (f == "ceil") {
    require_arity(1);
    return Value(static_cast<std::int64_t>(std::ceil(num(0))));
  }
  if (f == "floor") {
    require_arity(1);
    return Value(static_cast<std::int64_t>(std::floor(num(0))));
  }
  if (f == "round") {
    require_arity(1);
    return Value(static_cast<std::int64_t>(std::llround(num(0))));
  }
  if (f == "abs") {
    require_arity(1);
    if (args[0].is_int()) return Value(std::abs(args[0].as_int()));
    return Value(std::abs(num(0)));
  }
  if (f == "min" || f == "max") {
    if (args.size() < 2) fail(f + "() expects at least 2 arguments", loc);
    bool all_int = true;
    for (const Value& v : args) {
      if (!v.is_numeric()) fail(f + "() arguments must be numeric", loc);
      all_int = all_int && v.is_int();
    }
    double best = args[0].as_number();
    for (std::size_t i = 1; i < args.size(); ++i) {
      double x = args[i].as_number();
      best = (f == "min") ? std::min(best, x) : std::max(best, x);
    }
    return numeric_result(best, all_int);
  }
  if (f == "pow") {
    require_arity(2);
    double result = std::pow(num(0), num(1));
    bool int_result = args[0].is_int() && args[1].is_int() &&
                      args[1].as_int() >= 0 &&
                      std::floor(result) == result && std::abs(result) < 9.0e18;
    return numeric_result(result, int_result);
  }
  if (f == "log2") {
    require_arity(1);
    double x = num(0);
    if (x <= 0) fail("log2() requires a positive argument", loc);
    return Value(std::log2(x));
  }
  if (f == "log10") {
    require_arity(1);
    double x = num(0);
    if (x <= 0) fail("log10() requires a positive argument", loc);
    return Value(std::log10(x));
  }
  if (f == "ln") {
    require_arity(1);
    double x = num(0);
    if (x <= 0) fail("ln() requires a positive argument", loc);
    return Value(std::log(x));
  }
  if (f == "len") {
    require_arity(1);
    if (args[0].is_array()) {
      return Value(static_cast<std::int64_t>(args[0].as_array().size()));
    }
    if (args[0].is_string()) {
      return Value(static_cast<std::int64_t>(args[0].as_string().size()));
    }
    fail("len() expects an array or string", loc);
  }
  if (f == "clockdomain") {
    // clockdomain("name") or clockdomain("name", freq_mhz)
    if (args.empty() || args.size() > 2 || !args[0].is_string()) {
      fail("clockdomain() expects (string name [, numeric MHz])", loc);
    }
    ClockDomain cd;
    cd.name = args[0].as_string();
    if (args.size() == 2) cd.frequency_mhz = num(1);
    return Value(std::move(cd));
  }
  fail("unknown function '" + f + "'", loc);
}

}  // namespace

Value evaluate(const Expr& expr, const Scope& scope) {
  return std::visit(
      [&](const auto& n) -> Value {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, lang::IntLit>) {
          return Value(n.value);
        } else if constexpr (std::is_same_v<T, lang::FloatLit>) {
          return Value(n.value);
        } else if constexpr (std::is_same_v<T, lang::StringLit>) {
          return Value(n.value);
        } else if constexpr (std::is_same_v<T, lang::BoolLit>) {
          return Value(n.value);
        } else if constexpr (std::is_same_v<T, lang::Ident>) {
          if (const Value* v = scope.lookup_ptr(n.name.sym)) return *v;
          fail("unknown identifier '" + n.name.str() + "'", expr.loc);
        } else if constexpr (std::is_same_v<T, lang::Binary>) {
          return eval_binary(n, scope, expr.loc);
        } else if constexpr (std::is_same_v<T, lang::Unary>) {
          Value v = evaluate(*n.operand, scope);
          if (n.op == UnaryOp::kNeg) {
            if (v.is_int()) return Value(-v.as_int());
            if (v.is_float()) return Value(-v.as_float());
            fail("unary '-' requires a number", expr.loc);
          }
          if (!v.is_bool()) fail("unary '!' requires a bool", expr.loc);
          return Value(!v.as_bool());
        } else if constexpr (std::is_same_v<T, lang::Call>) {
          return eval_call(n, scope, expr.loc);
        } else if constexpr (std::is_same_v<T, lang::ArrayLit>) {
          Array arr;
          arr.reserve(n.elems.size());
          for (const auto& el : n.elems) arr.push_back(evaluate(*el, scope));
          return Value(std::move(arr));
        } else {  // IndexExpr
          Value base = evaluate(*n.base, scope);
          Value index = evaluate(*n.index, scope);
          if (!base.is_array()) fail("indexing requires an array", expr.loc);
          if (!index.is_int()) fail("array index must be an int", expr.loc);
          std::int64_t i = index.as_int();
          const Array& arr = base.as_array();
          if (i < 0 || static_cast<std::size_t>(i) >= arr.size()) {
            fail("array index " + std::to_string(i) +
                     " out of bounds (size " + std::to_string(arr.size()) +
                     ")",
                 expr.loc);
          }
          return arr[static_cast<std::size_t>(i)];
        }
      },
      expr.node);
}

std::int64_t evaluate_int(const Expr& expr, const Scope& scope) {
  Value v = evaluate(expr, scope);
  if (v.is_int()) return v.as_int();
  if (v.is_float() && std::floor(v.as_float()) == v.as_float()) {
    return static_cast<std::int64_t>(v.as_float());
  }
  throw EvalError("expected an integer, got " + std::string(v.type_name()) +
                      " (" + v.to_display() + ")",
                  expr.loc);
}

bool evaluate_bool(const Expr& expr, const Scope& scope) {
  Value v = evaluate(expr, scope);
  if (v.is_bool()) return v.as_bool();
  throw EvalError("expected a bool, got " + std::string(v.type_name()),
                  expr.loc);
}

double evaluate_number(const Expr& expr, const Scope& scope) {
  Value v = evaluate(expr, scope);
  if (v.is_numeric()) return v.as_number();
  throw EvalError("expected a number, got " + std::string(v.type_name()),
                  expr.loc);
}

const std::vector<std::string>& builtin_function_names() {
  static const std::vector<std::string> names = {
      "ceil", "floor", "round", "abs",  "min",   "max",
      "pow",  "log2",  "log10", "ln",   "len",   "clockdomain"};
  return names;
}

}  // namespace tydi::eval
