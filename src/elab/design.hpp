// Elaborated design — "code structure #3/#4" of Fig. 3.
//
// The elaborator monomorphises templates, expands `for`/`if` generative
// statements and instance/port arrays, and evaluates every expression, so a
// Design contains only concrete streamlets, implementations, instances and
// connections. This is the form the sugaring pass, the DRC, the Tydi-IR
// emitter and the simulator all operate on.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/ast.hpp"
#include "src/eval/value.hpp"
#include "src/support/intern.hpp"
#include "src/support/source.hpp"
#include "src/types/logical_type.hpp"

namespace tydi::elab {

using support::Symbol;

/// The parsed program (all source files of a compilation: standard library,
/// Fletcher interfaces, user code), in FileId order: `files[i]` is the AST
/// of FileId i + 1. The Design keeps it alive because simulation programs
/// point into the AST. Files are held by shared_ptr so a
/// driver::CompileSession can reuse a parsed file across compiles (the
/// standard library parses once per session, not once per compile) and so
/// the template memo can pin the ASTs its cached impls point into.
struct Program {
  std::vector<std::shared_ptr<const lang::SourceFile>> files;
};
using ProgramRef = std::shared_ptr<const Program>;

/// A concrete scalar port. Port arrays `p: T in [n]` are expanded to
/// `p_0 .. p_{n-1}` during elaboration.
struct Port {
  std::string name;
  types::TypeRef type;
  lang::PortDir dir = lang::PortDir::kIn;
  std::string clock_domain = "default";
  support::Loc loc;
  /// Interned `name`; assigned by Design::add_streamlet so the simulator can
  /// match ports by integer symbol.
  Symbol sym = support::kNoSymbol;
};

/// A concrete streamlet (port map). Template instances carry a mangled
/// `name`; `display_name` keeps the human-readable template spelling.
struct Streamlet {
  std::string name;
  std::string display_name;
  std::vector<Port> ports;
  support::Loc loc;
  /// Interned `name`; assigned by Design::add_streamlet.
  Symbol sym = support::kNoSymbol;
  /// Fingerprint of the template-argument structure the mangled name does
  /// not spell out (see Elaborator::arg_shape); 0 when there is none.
  std::uint64_t arg_shape = 0;

  [[nodiscard]] const Port* find_port(std::string_view port_name) const;
  /// Index of the port with symbol `port_sym` in `ports`, or -1.
  [[nodiscard]] int port_index(Symbol port_sym) const;
};

/// One endpoint of an elaborated connection. `instance` is empty for the
/// implementation's own ports.
struct Endpoint {
  std::string instance;
  std::string port;
  support::Loc loc;

  [[nodiscard]] std::string display() const {
    return instance.empty() ? port : instance + "." + port;
  }
  friend bool operator==(const Endpoint& a, const Endpoint& b) {
    return a.instance == b.instance && a.port == b.port;
  }
};

struct Connection {
  Endpoint src;
  Endpoint dst;
  bool structural = false;  ///< relax strict type equality (`@structural`)
  support::Loc loc;
};

/// A nested implementation instance. Instance arrays are expanded like port
/// arrays.
struct Instance {
  std::string name;
  std::string impl_name;  ///< mangled name of the elaborated implementation
  support::Loc loc;
};

/// An evaluated template argument, recorded for diagnostics, mangling and
/// the standard-library RTL generator.
struct TemplateArgValue {
  enum class Kind { kValue, kType, kImpl };
  Kind kind = Kind::kValue;
  eval::Value value;       // kValue
  types::TypeRef type;     // kType
  std::string impl_name;   // kImpl (mangled)

  [[nodiscard]] std::string display() const;
};

/// Simulation program attached to an external implementation: a pointer into
/// the AST (kept alive via Program) plus the constants captured from the
/// elaboration scope, so the simulator can evaluate expressions.
struct SimProgram {
  const lang::SimBlock* block = nullptr;
  std::map<std::string, eval::Value> captured;
};

struct Impl {
  std::string name;          ///< mangled
  /// Interned `name`; assigned by Design::add_impl.
  Symbol sym = support::kNoSymbol;
  std::string display_name;  ///< original spelling with arguments
  std::string streamlet_name;
  /// The *family* name of the streamlet this impl derives from (the
  /// unmangled declaration name), used to check `impl of <streamlet>`
  /// template-argument constraints.
  std::string streamlet_family;
  bool external = false;
  /// The declaration this was instantiated from (for the stdlib RTL
  /// generator, which is keyed by template family per Sec. IV-C).
  std::string template_name;
  std::vector<TemplateArgValue> template_args;
  std::vector<Instance> instances;
  std::vector<Connection> connections;
  std::optional<SimProgram> sim;
  support::Loc loc;
  /// See Streamlet::arg_shape.
  std::uint64_t arg_shape = 0;

  [[nodiscard]] const Instance* find_instance(
      std::string_view instance_name) const;
};

/// Lightweight deref view over a vector of shared payload slots: iterates
/// and indexes as `const T&`, so consumers read shared-storage designs with
/// the same syntax as the old by-value vectors.
template <typename T>
class SharedView {
 public:
  using Slots = std::vector<std::shared_ptr<const T>>;

  explicit SharedView(const Slots& slots) : slots_(&slots) {}

  class iterator {
   public:
    explicit iterator(typename Slots::const_iterator it) : it_(it) {}
    const T& operator*() const { return **it_; }
    const T* operator->() const { return it_->get(); }
    iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator==(const iterator& other) const { return it_ == other.it_; }
    bool operator!=(const iterator& other) const { return it_ != other.it_; }

   private:
    typename Slots::const_iterator it_;
  };

  [[nodiscard]] iterator begin() const { return iterator(slots_->begin()); }
  [[nodiscard]] iterator end() const { return iterator(slots_->end()); }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return *(*slots_)[i];
  }
  /// The shared payload handle behind element `i`.
  [[nodiscard]] const std::shared_ptr<const T>& slot(std::size_t i) const {
    return (*slots_)[i];
  }
  [[nodiscard]] std::size_t size() const { return slots_->size(); }
  [[nodiscard]] bool empty() const { return slots_->empty(); }

 private:
  const Slots* slots_;
};

/// A fresh shared payload with its name (and port) symbols interned — what
/// the by-value Design::add_* overloads insert, for passes that build
/// payloads before inserting them (the sugaring memo).
[[nodiscard]] std::shared_ptr<const Streamlet> make_streamlet(Streamlet s);
[[nodiscard]] std::shared_ptr<const Impl> make_impl(Impl i);

/// The fully elaborated design. Insertion order is preserved so emitted IR /
/// VHDL is deterministic (children appear before their parents).
///
/// Streamlet/Impl payloads live behind shared_ptr slots so the template
/// memo can *share* them across warm compiles instead of value-copying the
/// whole standard library into every Design (see elab::TemplateMemo).
/// Payloads are immutable once inserted: the sugaring pass rewrites an impl
/// by building a new payload and swapping it into the slot
/// (`replace_impl`), so a memo always holds the pristine pre-sugar payload.
/// Payload addresses are stable under insertion, and the back-end memo keys
/// on them (src/support/identity_cache.hpp).
class Design {
 public:
  explicit Design(ProgramRef program = nullptr)
      : program_(std::move(program)) {}

  /// Interns the name/port symbols and takes ownership of a fresh payload.
  const Streamlet& add_streamlet(Streamlet s);
  const Impl& add_impl(Impl i);
  /// Shared insert (memo replay): indexes the payload without copying.
  /// Symbols must already be interned (true for any payload that has been
  /// through the by-value overload in a previous compile).
  const Streamlet& add_streamlet(std::shared_ptr<const Streamlet> s);
  const Impl& add_impl(std::shared_ptr<const Impl> i);

  [[nodiscard]] const Streamlet* find_streamlet(std::string_view name) const;
  [[nodiscard]] const Streamlet* find_streamlet(Symbol sym) const;
  [[nodiscard]] const Impl* find_impl(std::string_view name) const;
  [[nodiscard]] const Impl* find_impl(Symbol sym) const;

  /// Shared handles for memoization (nullptr when absent).
  [[nodiscard]] std::shared_ptr<const Streamlet> share_streamlet(
      Symbol sym) const;
  [[nodiscard]] std::shared_ptr<const Impl> share_impl(Symbol sym) const;

  /// Keeps `ast` alive as long as this design: a memo-replayed impl's sim
  /// block points into the AST of the compile that elaborated it (null and
  /// repeated pins are ignored).
  void pin(std::shared_ptr<const void> ast);

  /// Swaps the payload of impl slot `index` for `impl` (same name): how the
  /// sugaring pass installs a rewritten impl.
  void replace_impl(std::size_t index, std::shared_ptr<const Impl> impl);

  [[nodiscard]] SharedView<Streamlet> streamlets() const {
    return SharedView<Streamlet>(streamlets_);
  }
  [[nodiscard]] SharedView<Impl> impls() const {
    return SharedView<Impl>(impls_);
  }

  /// Name of the top-level implementation (set by the elaborator).
  [[nodiscard]] const std::string& top() const { return top_; }
  void set_top(std::string name) { top_ = std::move(name); }

  /// Resolves the streamlet of `impl`, or nullptr.
  [[nodiscard]] const Streamlet* streamlet_of(const Impl& impl) const;

  /// Human-readable inventory (streamlets, impls, instance/connection
  /// counts) for debugging and the quickstart example.
  [[nodiscard]] std::string summary() const;

 private:
  ProgramRef program_;
  std::vector<std::shared_ptr<const void>> pins_;
  std::vector<std::shared_ptr<const Streamlet>> streamlets_;
  std::vector<std::shared_ptr<const Impl>> impls_;
  // Flat symbol-keyed indexes: lookups intern once and hash an integer
  // instead of walking a string-keyed tree.
  std::unordered_map<Symbol, std::size_t> streamlet_index_;
  std::unordered_map<Symbol, std::size_t> impl_index_;
  std::string top_;
};

}  // namespace tydi::elab
