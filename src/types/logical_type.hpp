// Resolved Tydi logical types (Tydi-spec, Sec. II and Table I of the paper).
//
// These are the *concrete* types produced by elaboration (all widths are
// evaluated integers), distinct from the syntactic `lang::TypeExpr`. A
// LogicalType is immutable and shared via TypeRef.
//
// Bit-width algebra (Table I):
//   Null        -> 0 bits (streams of Null are optimized out)
//   Bit(x)      -> x bits
//   Group(a,b)  -> |a| + |b|
//   Union(a,b)  -> max(|a|, |b|)   [the paper's rule; the full Tydi-spec adds
//                  a ceil(log2(n)) tag which we expose via union_tag_bits()]
//   Stream(x)   -> carries x in stream space; contributes 0 bits to an
//                  enclosing Group/Union (nested streams are split into
//                  secondary physical streams, see physical.hpp)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/ast/ast.hpp"

namespace tydi::types {

using lang::StreamDir;
using lang::Synchronicity;

class LogicalType;
using TypeRef = std::shared_ptr<const LogicalType>;

struct NullT {};

struct BitT {
  std::int64_t width = 1;
};

struct Field {
  std::string name;
  TypeRef type;
};

struct GroupT {
  std::vector<Field> fields;
};

struct UnionT {
  std::vector<Field> fields;
};

/// Stream-space parameters (Tydi-spec). Defaults match the spec: one lane,
/// dimension 0, complexity 1, Sync, Forward, no user signal.
struct StreamParams {
  double throughput = 1.0;  ///< element lanes = ceil(throughput)
  int dimension = 0;        ///< nesting depth of variable-length sequences
  int complexity = 1;       ///< protocol complexity C1..C8
  Synchronicity synchronicity = Synchronicity::kSync;
  StreamDir direction = StreamDir::kForward;
  TypeRef user;  ///< optional user-signal type (may be null)

  friend bool operator==(const StreamParams& a, const StreamParams& b);
};

struct StreamT {
  TypeRef element;
  StreamParams params;
};

class LogicalType {
 public:
  using Node = std::variant<NullT, BitT, GroupT, UnionT, StreamT>;

  LogicalType(Node node, std::string origin)
      : node_(std::move(node)), origin_(std::move(origin)) {}

  [[nodiscard]] const Node& node() const { return node_; }

  /// The declaration identity used for *strict* type equality (Sec. IV-B):
  /// the name of the Group/Union/type-alias this type was resolved from,
  /// qualified by template context. Empty for anonymous (inline) types.
  [[nodiscard]] const std::string& origin() const { return origin_; }

  [[nodiscard]] bool is_group() const {
    return std::holds_alternative<GroupT>(node_);
  }
  [[nodiscard]] bool is_union() const {
    return std::holds_alternative<UnionT>(node_);
  }
  [[nodiscard]] bool is_stream() const {
    return std::holds_alternative<StreamT>(node_);
  }

  [[nodiscard]] const StreamT& as_stream() const {
    return std::get<StreamT>(node_);
  }
  [[nodiscard]] const GroupT& as_group() const {
    return std::get<GroupT>(node_);
  }
  [[nodiscard]] const UnionT& as_union() const {
    return std::get<UnionT>(node_);
  }

  /// Data bits this type contributes to an enclosing element (Table I rules;
  /// nested Streams contribute 0).
  [[nodiscard]] std::int64_t bit_width() const;

  /// Display form, e.g. `Group{data: Bit(32), ok: Bit(1)}` or
  /// `Stream(Bit(8), t=2, d=1, c=7)`.
  [[nodiscard]] std::string to_display() const;
  /// Appends the display form to `out` (no stream, no per-level temporary).
  void append_display(std::string& out) const;

 private:
  Node node_;
  std::string origin_;
};

// --- Constructors -----------------------------------------------------------

[[nodiscard]] TypeRef make_null();
[[nodiscard]] TypeRef make_bit(std::int64_t width, std::string origin = {});
[[nodiscard]] TypeRef make_group(std::vector<Field> fields,
                                 std::string origin = {});
[[nodiscard]] TypeRef make_union(std::vector<Field> fields,
                                 std::string origin = {});
[[nodiscard]] TypeRef make_stream(TypeRef element, StreamParams params = {},
                                  std::string origin = {});

/// Re-tags `base` with a new origin (used when a type alias names an
/// anonymous type: `type Input = Stream(...)` gives the stream the origin
/// "Input" for strict equality).
[[nodiscard]] TypeRef with_origin(const TypeRef& base, std::string origin);

/// Tag bits a full Tydi-spec union would carry: ceil(log2(n)) for n variants
/// (0 for n <= 1). Exposed for the physical layer and tests.
[[nodiscard]] std::int64_t union_tag_bits(std::size_t variant_count);

/// Deep structural equality, ignoring origins (used by `@structural`
/// connections and by strict equality on anonymous types).
[[nodiscard]] bool structural_equal(const LogicalType& a,
                                    const LogicalType& b);

/// Strict equality per Sec. IV-B: same named origin when both are named;
/// structural otherwise.
[[nodiscard]] bool strict_equal(const LogicalType& a, const LogicalType& b);

/// 64-bit hash of everything `to_display()` shows — structure, stream
/// parameters and the origin at every level — without building the string.
[[nodiscard]] std::uint64_t display_hash(const LogicalType& t);

}  // namespace tydi::types
