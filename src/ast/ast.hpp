// Abstract syntax tree for Tydi-lang ("code structure #1" in Fig. 3 of the
// paper). Nodes are variant-based value types owned through unique_ptr; the
// tree is immutable after parsing — elaboration produces a separate
// `elab::Design` rather than mutating the AST.
//
// Every name in the tree is a `Name`, interned once by the parser. A cached
// tree is shared by later compiles and outlives the source text it was
// parsed from, so it holds symbols and owned strings, never views.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/support/intern.hpp"
#include "src/support/source.hpp"

namespace tydi::lang {

using support::Loc;

/// An interned name. An unset name (absent, or lost to a parse error)
/// spells "".
struct Name {
  support::Symbol sym = support::kNoSymbol;

  [[nodiscard]] bool empty() const { return sym == support::kNoSymbol; }
  [[nodiscard]] const std::string& str() const;
  friend bool operator==(Name, Name) = default;
};

std::ostream& operator<<(std::ostream& out, Name name);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kPow,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kRange,  // a -> b and a .. b: half-open integer range [a, b)
};

enum class UnaryOp : std::uint8_t { kNeg, kNot };

[[nodiscard]] std::string_view to_string(BinaryOp op);
[[nodiscard]] std::string_view to_string(UnaryOp op);

struct IntLit { std::int64_t value = 0; };
struct FloatLit { double value = 0.0; };
struct StringLit { std::string value; };
struct BoolLit { bool value = false; };
struct Ident { Name name; };
struct Binary {
  BinaryOp op{};
  ExprPtr lhs;
  ExprPtr rhs;
};
struct Unary {
  UnaryOp op{};
  ExprPtr operand;
};
struct Call {
  Name callee;  // builtin math functions: ceil, log2, pow, len, ...
  std::vector<ExprPtr> args;
};
struct ArrayLit { std::vector<ExprPtr> elems; };
struct IndexExpr {
  ExprPtr base;
  ExprPtr index;
};

struct Expr {
  Loc loc;
  std::variant<IntLit, FloatLit, StringLit, BoolLit, Ident, Binary, Unary,
               Call, ArrayLit, IndexExpr>
      node;
};

[[nodiscard]] ExprPtr make_expr(Loc loc,
                                std::variant<IntLit, FloatLit, StringLit,
                                             BoolLit, Ident, Binary, Unary,
                                             Call, ArrayLit, IndexExpr>
                                    node);

/// Deep copy (template bodies are re-elaborated per instantiation).
[[nodiscard]] ExprPtr clone(const Expr& e);

// ---------------------------------------------------------------------------
// Type expressions
// ---------------------------------------------------------------------------

struct TypeExpr;
using TypeExprPtr = std::unique_ptr<TypeExpr>;

/// Stream synchronicity per Tydi-spec.
enum class Synchronicity : std::uint8_t { kSync, kFlatten, kDesync, kFlatDesync };
/// Stream direction per Tydi-spec (Reverse models response channels).
enum class StreamDir : std::uint8_t { kForward, kReverse };

[[nodiscard]] std::string_view to_string(Synchronicity s);
[[nodiscard]] std::string_view to_string(StreamDir d);

struct NullTypeExpr {};
struct BitTypeExpr { ExprPtr width; };
/// Reference to a named Group/Union/type alias or a `type` template param.
struct NamedTypeExpr { Name name; };
struct StreamTypeExpr {
  TypeExprPtr element;
  ExprPtr throughput;             // optional; default 1.0
  ExprPtr dimension;              // optional; default 0
  ExprPtr complexity;             // optional; default 1 (C1..C8)
  std::optional<Synchronicity> synchronicity;  // default Sync
  std::optional<StreamDir> direction;          // default Forward
  TypeExprPtr user;               // optional user signal type
};

struct TypeExpr {
  Loc loc;
  std::variant<NullTypeExpr, BitTypeExpr, NamedTypeExpr, StreamTypeExpr> node;
};

[[nodiscard]] TypeExprPtr make_type(Loc loc,
                                    std::variant<NullTypeExpr, BitTypeExpr,
                                                 NamedTypeExpr, StreamTypeExpr>
                                        node);
[[nodiscard]] TypeExprPtr clone(const TypeExpr& t);

// ---------------------------------------------------------------------------
// Template parameters and arguments
// ---------------------------------------------------------------------------

/// Kind of a value-level binding: the five variable types of Sec. IV-A plus
/// the two meta kinds (`type`, `impl of <streamlet>`).
enum class ParamKind : std::uint8_t {
  kInt, kFloat, kString, kBool, kClockdomain, kType, kImpl,
};

[[nodiscard]] std::string_view to_string(ParamKind k);

struct TemplateArg;

struct TemplateParam {
  Name name;
  ParamKind kind = ParamKind::kInt;
  // For kImpl: the streamlet the supplied impl must derive from, e.g.
  // `pu_instance: impl of process_unit_s<type in_t, type out_t>`.
  Name impl_of_streamlet;
  std::vector<TemplateArg> impl_of_args;
  Loc loc;
};

struct TemplateArg {
  enum class Kind : std::uint8_t { kExpr, kType, kImpl };
  Kind kind = Kind::kExpr;
  ExprPtr expr;          // kExpr
  TypeExprPtr type;      // kType
  Name impl_name;        // kImpl: name of an impl or an impl-typed param
  Loc loc;

  TemplateArg() = default;
  TemplateArg(const TemplateArg& other);
  TemplateArg& operator=(const TemplateArg& other);
  TemplateArg(TemplateArg&&) = default;
  TemplateArg& operator=(TemplateArg&&) = default;
};

// ---------------------------------------------------------------------------
// Hardware declarations
// ---------------------------------------------------------------------------

enum class PortDir : std::uint8_t { kIn, kOut };
[[nodiscard]] std::string_view to_string(PortDir d);

struct PortDecl {
  Name name;
  TypeExprPtr type;
  PortDir dir = PortDir::kIn;
  ExprPtr array_size;               // optional: port array `name: T in [n]`
  Name clock_domain;                // optional: `@ clk_name`
  Loc loc;
};

struct StreamletDecl {
  Name name;
  std::vector<TemplateParam> params;
  std::vector<PortDecl> ports;
  Loc loc;
};

// --- Implementation body statements ---

struct ImplStmt;

struct InstanceStmt {
  Name name;
  /// Optional explicit index: `instance cmp[i](...)` inside a `for` loop
  /// declares one instance per iteration, named `cmp_<i>` (the paper's
  /// "use the for statement to declare four instances of a comparator
  /// template" pattern, where each instance takes a different argument).
  ExprPtr name_index;
  Name impl_name;
  std::vector<TemplateArg> args;
  ExprPtr array_size;  // optional: `instance pu(x) [channel]`
  Loc loc;
};

/// One endpoint of a connection: `port`, `port[i]`, `inst.port`,
/// `inst[i].port` or `inst.port[i]`.
struct PortRef {
  Name instance;           // unset: a port of the impl itself
  ExprPtr instance_index;  // optional index on the instance array
  Name port;
  ExprPtr port_index;      // optional index on a port array
  Loc loc;
};

struct ConnectStmt {
  PortRef src;
  PortRef dst;
  /// `@structural`: relax strict (named) type equality to structural
  /// equality, per Sec. IV-B ("Adding an extra attribute can disable the
  /// strict type equality checking").
  bool structural = false;
  Loc loc;
};

struct ForStmt {
  Name var;
  ExprPtr iterable;  // array value or range expression
  std::vector<ImplStmt> body;
  Loc loc;
};

struct IfStmt {
  ExprPtr cond;
  std::vector<ImplStmt> then_body;
  std::vector<ImplStmt> else_body;
  Loc loc;
};

struct AssertStmt {
  ExprPtr cond;
  std::string message;  // optional explanatory text
  Loc loc;
};

struct LocalConst {
  Name name;
  std::optional<ParamKind> declared_kind;  // `const x: int = ...`
  ExprPtr init;
  Loc loc;
};

struct ImplStmt {
  std::variant<InstanceStmt, ConnectStmt, ForStmt, IfStmt, AssertStmt,
               LocalConst>
      node;
};

// --- Simulation syntax (Sec. V-A) ---

struct SimAction;

struct ActAck { Name port; };
/// `send(port)` resends the triggering payload; `send(port, expr)` sends the
/// evaluated expression as payload.
struct ActSend {
  Name port;
  ExprPtr payload;  // optional
};
struct ActDelay { ExprPtr cycles; };
struct ActSet {
  Name state_var;
  ExprPtr value;
};
struct ActIf {
  ExprPtr cond;
  std::vector<SimAction> then_body;
  std::vector<SimAction> else_body;
};

/// `for v in expr { ... }` inside a handler. The iterable must be
/// evaluable from compile-time constants (template parameters and local
/// consts); the body is unrolled with `v` bound per iteration.
struct ActFor {
  Name var;
  ExprPtr iterable;
  std::vector<SimAction> body;
};

struct SimAction {
  Loc loc;
  std::variant<ActAck, ActSend, ActDelay, ActSet, ActIf, ActFor> node;
};

/// `state name = "initial";`
struct SimStateDecl {
  Name name;
  std::string initial;
  Loc loc;
};

/// `on a.receive && b.receive { ... }`. An empty port list means the special
/// `start` event fired once at time zero.
struct SimHandler {
  std::vector<Name> wait_ports;
  std::vector<SimAction> actions;
  Loc loc;
};

struct SimBlock {
  std::vector<SimStateDecl> states;
  std::vector<SimHandler> handlers;
  Loc loc;
};

struct ImplDecl {
  Name name;
  std::vector<TemplateParam> params;
  Name of_streamlet;
  std::vector<TemplateArg> of_args;
  bool external = false;
  std::vector<ImplStmt> body;
  std::optional<SimBlock> sim;
  Loc loc;
};

// --- Top-level declarations ---

struct ConstDecl {
  Name name;
  std::optional<ParamKind> declared_kind;
  ExprPtr init;
  Loc loc;
};

struct TypeAliasDecl {
  Name name;
  TypeExprPtr type;
  Loc loc;
};

struct FieldDecl {
  Name name;
  TypeExprPtr type;
  Loc loc;
};

struct GroupDecl {
  Name name;
  bool is_union = false;  // `Union` shares the syntax of `Group`
  std::vector<FieldDecl> fields;
  Loc loc;
};

struct Decl {
  std::variant<ConstDecl, TypeAliasDecl, GroupDecl, StreamletDecl, ImplDecl>
      node;
};

struct SourceFile {
  Name package;  // optional `package name;`
  std::vector<Decl> decls;
};

// ---------------------------------------------------------------------------
// Pretty printer — emits parseable Tydi-lang (used by round-trip tests).
// ---------------------------------------------------------------------------

[[nodiscard]] std::string to_source(const Expr& e);
[[nodiscard]] std::string to_source(const TypeExpr& t);
[[nodiscard]] std::string to_source(const SourceFile& file);
[[nodiscard]] std::string to_source(const TemplateArg& arg);

}  // namespace tydi::lang
