#include "src/types/logical_type.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "src/support/text.hpp"

namespace tydi::types {

bool operator==(const StreamParams& a, const StreamParams& b) {
  bool user_equal =
      (a.user == nullptr && b.user == nullptr) ||
      (a.user != nullptr && b.user != nullptr &&
       structural_equal(*a.user, *b.user));
  return a.throughput == b.throughput && a.dimension == b.dimension &&
         a.complexity == b.complexity &&
         a.synchronicity == b.synchronicity && a.direction == b.direction &&
         user_equal;
}

std::int64_t LogicalType::bit_width() const {
  return std::visit(
      [](const auto& n) -> std::int64_t {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, NullT>) {
          return 0;
        } else if constexpr (std::is_same_v<T, BitT>) {
          return n.width;
        } else if constexpr (std::is_same_v<T, GroupT>) {
          std::int64_t sum = 0;
          for (const Field& f : n.fields) sum += f.type->bit_width();
          return sum;
        } else if constexpr (std::is_same_v<T, UnionT>) {
          std::int64_t best = 0;
          for (const Field& f : n.fields) {
            best = std::max(best, f.type->bit_width());
          }
          return best;
        } else {  // StreamT: carried in stream space, not in parent data
          return 0;
        }
      },
      node_);
}

std::string LogicalType::to_display() const {
  std::string out;
  append_display(out);
  return out;
}

void LogicalType::append_display(std::string& out) const {
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, NullT>) {
          out += "Null";
        } else if constexpr (std::is_same_v<T, BitT>) {
          out += "Bit(";
          out += std::to_string(n.width);
          out += ')';
        } else if constexpr (std::is_same_v<T, GroupT> ||
                             std::is_same_v<T, UnionT>) {
          out += std::is_same_v<T, GroupT> ? "Group{" : "Union{";
          for (std::size_t i = 0; i < n.fields.size(); ++i) {
            if (i > 0) out += ", ";
            out += n.fields[i].name;
            out += ": ";
            n.fields[i].type->append_display(out);
          }
          out += '}';
        } else {  // StreamT
          out += "Stream(";
          n.element->append_display(out);
          if (n.params.throughput != 1.0) {
            out += ", t=";
            support::append_general(out, n.params.throughput);
          }
          if (n.params.dimension != 0) {
            out += ", d=";
            out += std::to_string(n.params.dimension);
          }
          if (n.params.complexity != 1) {
            out += ", c=";
            out += std::to_string(n.params.complexity);
          }
          if (n.params.synchronicity != Synchronicity::kSync) {
            out += ", s=";
            out += lang::to_string(n.params.synchronicity);
          }
          if (n.params.direction != StreamDir::kForward) {
            out += ", r=";
            out += lang::to_string(n.params.direction);
          }
          if (n.params.user) {
            out += ", u=";
            n.params.user->append_display(out);
          }
          out += ')';
        }
      },
      node_);
  if (!origin_.empty()) {
    out += " [";
    out += origin_;
    out += ']';
  }
}

TypeRef make_null() {
  static const TypeRef singleton =
      std::make_shared<LogicalType>(NullT{}, std::string{});
  return singleton;
}

TypeRef make_bit(std::int64_t width, std::string origin) {
  return std::make_shared<LogicalType>(BitT{width}, std::move(origin));
}

TypeRef make_group(std::vector<Field> fields, std::string origin) {
  return std::make_shared<LogicalType>(GroupT{std::move(fields)},
                                       std::move(origin));
}

TypeRef make_union(std::vector<Field> fields, std::string origin) {
  return std::make_shared<LogicalType>(UnionT{std::move(fields)},
                                       std::move(origin));
}

TypeRef make_stream(TypeRef element, StreamParams params, std::string origin) {
  return std::make_shared<LogicalType>(
      StreamT{std::move(element), std::move(params)}, std::move(origin));
}

TypeRef with_origin(const TypeRef& base, std::string origin) {
  return std::make_shared<LogicalType>(base->node(), std::move(origin));
}

std::int64_t union_tag_bits(std::size_t variant_count) {
  if (variant_count <= 1) return 0;
  return static_cast<std::int64_t>(
      std::ceil(std::log2(static_cast<double>(variant_count))));
}

namespace {

bool fields_equal(const std::vector<Field>& a, const std::vector<Field>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name) return false;
    if (!structural_equal(*a[i].type, *b[i].type)) return false;
  }
  return true;
}

}  // namespace

bool structural_equal(const LogicalType& a, const LogicalType& b) {
  if (a.node().index() != b.node().index()) return false;
  return std::visit(
      [&b](const auto& na) -> bool {
        using T = std::decay_t<decltype(na)>;
        if constexpr (std::is_same_v<T, NullT>) {
          return true;
        } else if constexpr (std::is_same_v<T, BitT>) {
          return na.width == std::get<BitT>(b.node()).width;
        } else if constexpr (std::is_same_v<T, GroupT>) {
          return fields_equal(na.fields, std::get<GroupT>(b.node()).fields);
        } else if constexpr (std::is_same_v<T, UnionT>) {
          return fields_equal(na.fields, std::get<UnionT>(b.node()).fields);
        } else {  // StreamT
          const auto& nb = std::get<StreamT>(b.node());
          return structural_equal(*na.element, *nb.element) &&
                 na.params == nb.params;
        }
      },
      a.node());
}

bool strict_equal(const LogicalType& a, const LogicalType& b) {
  // "DRC will check the strict type equality (two ports must be defined with
  // the same logical type variable)" — named types compare by declaration
  // identity; anonymous types fall back to structure.
  if (!a.origin().empty() && !b.origin().empty()) {
    return a.origin() == b.origin() && structural_equal(a, b);
  }
  if (a.origin().empty() != b.origin().empty()) return false;
  return structural_equal(a, b);
}

namespace {

/// One FNV-1a step over a whole word, folded so high input bits reach the
/// low bits of the state too.
void mix(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 1099511628211ULL;
  h ^= h >> 32;
}

void mix(std::uint64_t& h, std::string_view text) {
  mix(h, text.size());
  for (char c : text) mix(h, static_cast<std::uint8_t>(c));
}

void hash_into(std::uint64_t& h, const LogicalType& t) {
  mix(h, t.node().index());
  std::visit(
      [&h](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, BitT>) {
          mix(h, static_cast<std::uint64_t>(n.width));
        } else if constexpr (std::is_same_v<T, GroupT> ||
                             std::is_same_v<T, UnionT>) {
          mix(h, n.fields.size());
          for (const Field& f : n.fields) {
            mix(h, f.name);
            hash_into(h, *f.type);
          }
        } else if constexpr (std::is_same_v<T, StreamT>) {
          hash_into(h, *n.element);
          std::uint64_t throughput = 0;
          std::memcpy(&throughput, &n.params.throughput, sizeof(throughput));
          mix(h, throughput);
          mix(h, static_cast<std::uint64_t>(n.params.dimension));
          mix(h, static_cast<std::uint64_t>(n.params.complexity));
          mix(h, static_cast<std::uint64_t>(n.params.synchronicity));
          mix(h, static_cast<std::uint64_t>(n.params.direction));
          mix(h, n.params.user != nullptr);
          if (n.params.user) hash_into(h, *n.params.user);
        }
      },
      t.node());
  mix(h, t.origin());
}

}  // namespace

std::uint64_t display_hash(const LogicalType& t) {
  std::uint64_t h = 1469598103934665603ULL;
  hash_into(h, t);
  return h;
}

}  // namespace tydi::types
