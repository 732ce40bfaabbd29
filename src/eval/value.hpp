// Runtime values of the Tydi-lang variable system (Sec. IV-A).
//
// The five variable types of the paper — integer, floating-point number,
// string, boolean and clock domain — plus arrays ("array" concept used by
// the generative `for` syntax). Values are immutable once bound in a scope.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace tydi::eval {

/// A clock domain value: identity is the name; the frequency only matters to
/// the simulator (mapping clock domain → physical time, Sec. V-B).
struct ClockDomain {
  std::string name;
  double frequency_mhz = 100.0;

  friend bool operator==(const ClockDomain& a, const ClockDomain& b) {
    return a.name == b.name;
  }
};

class Value;
using Array = std::vector<Value>;

class Value {
 public:
  using Storage = std::variant<std::monostate, std::int64_t, double,
                               std::string, bool, ClockDomain, Array>;

  Value() = default;
  explicit Value(std::int64_t v) : storage_(v) {}
  explicit Value(double v) : storage_(v) {}
  explicit Value(std::string v) : storage_(std::move(v)) {}
  explicit Value(bool v) : storage_(v) {}
  explicit Value(ClockDomain v) : storage_(std::move(v)) {}
  explicit Value(Array v) : storage_(std::move(v)) {}

  [[nodiscard]] bool is_int() const {
    return std::holds_alternative<std::int64_t>(storage_);
  }
  [[nodiscard]] bool is_float() const {
    return std::holds_alternative<double>(storage_);
  }
  [[nodiscard]] bool is_numeric() const { return is_int() || is_float(); }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(storage_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(storage_);
  }
  [[nodiscard]] bool is_clock() const {
    return std::holds_alternative<ClockDomain>(storage_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(storage_);
  }

  [[nodiscard]] std::int64_t as_int() const {
    return std::get<std::int64_t>(storage_);
  }
  [[nodiscard]] double as_float() const { return std::get<double>(storage_); }
  /// Numeric value widened to double (int or float).
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(storage_);
  }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(storage_); }
  [[nodiscard]] const ClockDomain& as_clock() const {
    return std::get<ClockDomain>(storage_);
  }
  [[nodiscard]] const Array& as_array() const {
    return std::get<Array>(storage_);
  }

  /// Type name for diagnostics: "int", "float", "string", ...
  [[nodiscard]] std::string_view type_name() const;

  /// Display form for diagnostics and name mangling, e.g. `8`, `"MED BAG"`.
  [[nodiscard]] std::string to_display() const;
  /// Appends the display form to `out` (no stream, no per-level temporary).
  void append_display(std::string& out) const;

  /// Structural equality; int/float compare numerically.
  friend bool operator==(const Value& a, const Value& b);

 private:
  Storage storage_;
};

}  // namespace tydi::eval
