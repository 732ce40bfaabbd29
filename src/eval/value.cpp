#include "src/eval/value.hpp"

#include "src/support/text.hpp"

namespace tydi::eval {

double Value::as_number() const {
  if (is_int()) return static_cast<double>(as_int());
  return as_float();
}

std::string_view Value::type_name() const {
  return std::visit(
      [](const auto& v) -> std::string_view {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) return "none";
        else if constexpr (std::is_same_v<T, std::int64_t>) return "int";
        else if constexpr (std::is_same_v<T, double>) return "float";
        else if constexpr (std::is_same_v<T, std::string>) return "string";
        else if constexpr (std::is_same_v<T, bool>) return "bool";
        else if constexpr (std::is_same_v<T, ClockDomain>) return "clockdomain";
        else return "array";
      },
      storage_);
}

std::string Value::to_display() const {
  std::string out;
  append_display(out);
  return out;
}

void Value::append_display(std::string& out) const {
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          out += "<none>";
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          out += std::to_string(v);
        } else if constexpr (std::is_same_v<T, double>) {
          support::append_general(out, v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          out += '"';
          out += v;
          out += '"';
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, ClockDomain>) {
          out += "clockdomain(";
          out += v.name;
          out += ')';
        } else {
          out += '[';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) out += ", ";
            v[i].append_display(out);
          }
          out += ']';
        }
      },
      storage_);
}

bool operator==(const Value& a, const Value& b) {
  // Numeric cross-type comparison (1 == 1.0).
  if (a.is_numeric() && b.is_numeric()) {
    return a.as_number() == b.as_number();
  }
  return a.storage_ == b.storage_;
}

}  // namespace tydi::eval
