// The elaborator: AST -> Design (Fig. 3 "evaluation" + "code expansion &
// evaluation" stages).
//
// Responsibilities:
//  - evaluate global constants (immutable, in declaration order)
//  - resolve logical types (Group/Union/alias/Bit/Stream) to types::TypeRef
//  - monomorphise streamlet/impl templates (name mangling per argument list)
//  - check template argument kinds, including `impl of <streamlet>`
//    constraints (Sec. IV-B)
//  - expand generative `for`/`if`, evaluate `assert`
//  - expand port/instance arrays to scalars
//  - capture simulation programs of external impls
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/elab/design.hpp"
#include "src/elab/memo.hpp"
#include "src/eval/scope.hpp"
#include "src/support/counters.hpp"
#include "src/support/diagnostic.hpp"
#include "src/support/intern.hpp"

namespace tydi::elab {

/// Counters of the template-instantiation cache: monomorphisation is
/// memoized on the mangled name's interned symbol (a repeated
/// streamlet/impl instantiation with identical evaluated arguments is an
/// integer-keyed lookup, not a re-elaboration). Reported per compile by
/// driver::CompileResult and by `bench_compile_perf --json`. Hits served by
/// a session's process-wide TemplateMemo (instead of the per-compile Design
/// cache) are additionally counted in the session_* fields.
///
/// The counters are relaxed atomics (support::RelaxedCounter): each
/// Elaborator is single-threaded, but aggregate stats structs (batch
/// results, bench accumulators) are summed from concurrent compiles, and
/// atomics keep every such accumulation TSan-clean without a lock.
struct InstantiationStats {
  support::RelaxedCounter streamlet_hits;
  support::RelaxedCounter streamlet_misses;
  support::RelaxedCounter impl_hits;
  support::RelaxedCounter impl_misses;
  /// Subset of *_hits that came from the cross-compile TemplateMemo.
  support::RelaxedCounter session_streamlet_hits;
  support::RelaxedCounter session_impl_hits;

  [[nodiscard]] std::uint64_t hits() const {
    return streamlet_hits + impl_hits;
  }
  [[nodiscard]] std::uint64_t misses() const {
    return streamlet_misses + impl_misses;
  }
  [[nodiscard]] std::uint64_t session_hits() const {
    return session_streamlet_hits + session_impl_hits;
  }
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits() + misses();
    return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
  }

  InstantiationStats& operator+=(const InstantiationStats& o) {
    streamlet_hits += o.streamlet_hits;
    streamlet_misses += o.streamlet_misses;
    impl_hits += o.impl_hits;
    impl_misses += o.impl_misses;
    session_streamlet_hits += o.session_streamlet_hits;
    session_impl_hits += o.session_impl_hits;
    return *this;
  }
};

class Elaborator {
 public:
  /// `memo` (optional) connects this compile to a session's process-wide
  /// template memo; see elab::MemoHook.
  Elaborator(ProgramRef program, support::DiagnosticEngine& diags,
             MemoHook memo = {});

  /// Elaborates the design rooted at `top_impl` (must name a non-template
  /// impl). On errors a partial Design is returned; check diags.
  [[nodiscard]] Design run(const std::string& top_impl);

  /// Elaborates every non-template impl in the program (used by tests and
  /// by library-wide checks); top is left empty unless `top_impl` is given.
  [[nodiscard]] Design run_all();

  /// Template-instantiation cache counters accumulated by this elaborator.
  [[nodiscard]] const InstantiationStats& stats() const { return stats_; }

 private:
  struct Context {
    eval::Scope* scope = nullptr;
    const std::map<Symbol, types::TypeRef>* type_bindings = nullptr;
    const std::map<Symbol, std::string>* impl_bindings = nullptr;
  };

  ProgramRef program_;
  support::DiagnosticEngine& diags_;
  Design design_;
  eval::Scope global_scope_;

  // Declaration registries and caches keyed by interned symbol: name
  // resolution interns once and then does integer-hash lookups instead of
  // string-keyed tree walks (the monomorphiser hits these per instantiation).
  std::unordered_map<Symbol, const lang::ConstDecl*> const_decls_;
  std::unordered_map<Symbol, const lang::TypeAliasDecl*> alias_decls_;
  std::unordered_map<Symbol, const lang::GroupDecl*> group_decls_;
  std::unordered_map<Symbol, const lang::StreamletDecl*> streamlet_decls_;
  std::unordered_map<Symbol, const lang::ImplDecl*> impl_decls_;
  /// Impl declarations in source order (run_all must elaborate
  /// deterministically; the symbol-keyed map above is hash-ordered).
  std::vector<const lang::ImplDecl*> impl_decl_order_;

  std::unordered_map<Symbol, types::TypeRef> named_type_cache_;
  std::unordered_set<Symbol> resolving_types_;
  std::unordered_set<Symbol> impls_in_progress_;
  InstantiationStats stats_;
  MemoHook memo_;

  void build_registries();
  void evaluate_global_consts();
  void evaluate_global_const(const lang::ConstDecl& c);

  /// Validity stamp of a decl's defining file, or an invalid stamp when the
  /// file is unknown to the current compile (memoization is then skipped).
  [[nodiscard]] SourceStamp stamp_for(support::Loc loc) const;
  /// The parsed file `file` refers to (Program::files is in FileId order),
  /// or the whole program when the id is not one of its files.
  [[nodiscard]] std::shared_ptr<const void> ast_of(support::FileId file) const;
  /// Replays a memoized impl's insertion window into the design. Validates
  /// every window member first; returns false (inserting nothing) when any
  /// member is stale, so the caller re-elaborates normally.
  [[nodiscard]] bool materialize_memo_impl(const TemplateMemo::ImplEntry& e);

  // Dependency recording for the cross-compile memo: while an entry
  // elaborates (one frame per active elaborate_streamlet/impl miss or
  // named-type resolution), the defining files of every global type/const
  // resolved — transitively, via the per-type and per-const dependency
  // closures below — plus every already-elaborated entity referenced are
  // recorded into the top frame; frames merge into their parent on pop so
  // dependencies propagate to enclosing entries.
  struct DepFrameData {
    std::vector<SourceStamp> sources;
    std::vector<Symbol> ref_streamlets;  ///< design-cache hits (pre-window)
    std::vector<Symbol> ref_impls;
  };
  std::vector<DepFrameData> dep_stack_;
  /// Transitive file deps of each evaluated global constant (its own file
  /// plus the files of every constant its initializer read).
  std::unordered_map<Symbol, std::vector<SourceStamp>> const_deps_;
  /// Transitive file deps of each resolved global named type.
  std::unordered_map<Symbol, std::vector<SourceStamp>> type_deps_;
  void record_stamp(SourceStamp stamp);
  void record_source_dep(support::Loc loc);
  void record_const_dep(Symbol name_sym);
  void record_named_type_dep(Symbol name_sym);
  void record_ref_streamlet(Symbol sym);
  void record_ref_impl(Symbol sym);
  void push_dep_frame() { dep_stack_.emplace_back(); }
  /// Pops the top frame, merges it into the parent (if any) and returns it.
  DepFrameData pop_dep_frame();
  /// RAII frame, exception/early-return safe; inactive when memo disabled.
  struct DepFrame {
    Elaborator* e = nullptr;
    explicit DepFrame(Elaborator* elab) {
      if (elab->memo_.enabled()) {
        e = elab;
        e->push_dep_frame();
      }
    }
    ~DepFrame() {
      if (e != nullptr) e->pop_dep_frame();
    }
    DepFrame(const DepFrame&) = delete;
    DepFrame& operator=(const DepFrame&) = delete;
  };

  [[nodiscard]] types::TypeRef resolve_type(const lang::TypeExpr& type,
                                            const Context& ctx);
  [[nodiscard]] types::TypeRef resolve_named_type(lang::Name name,
                                                  support::Loc loc,
                                                  const Context& ctx);

  [[nodiscard]] std::vector<TemplateArgValue> evaluate_args(
      const std::vector<lang::TemplateArg>& args, const Context& ctx);

  /// Returns the mangled name ("" on failure).
  std::string elaborate_streamlet(const lang::StreamletDecl& decl,
                                  const std::vector<TemplateArgValue>& args,
                                  support::Loc use_loc);
  std::string elaborate_impl(const lang::ImplDecl& decl,
                             const std::vector<TemplateArgValue>& args,
                             support::Loc use_loc);

  /// Resolves an impl name appearing as an instance target or an `impl`
  /// template argument: either an impl-parameter binding or a global impl
  /// declaration (elaborated with `args`). Returns mangled name or "".
  std::string resolve_impl_ref(lang::Name name,
                               const std::vector<lang::TemplateArg>& args,
                               const Context& ctx, support::Loc loc);

  bool check_param_binding(const lang::TemplateParam& param,
                           const TemplateArgValue& arg, const Context& ctx,
                           support::Loc loc);

  void walk_stmts(const std::vector<lang::ImplStmt>& stmts, Impl& impl,
                  eval::Scope& scope, const Context& parent_ctx,
                  std::map<std::string, eval::Value>& captured);

  [[nodiscard]] Endpoint resolve_port_ref(const lang::PortRef& ref,
                                          const Context& ctx);

  [[nodiscard]] static std::string mangle(
      const std::string& base, const std::vector<TemplateArgValue>& args);
  /// Fingerprint of what `mangle` leaves out: the full structure of every
  /// named type argument (mangled by name only) and the shape and source of
  /// every impl argument. 0 when the arguments are spelled out in full.
  /// The memo matches entries on it (see elab::TemplateMemo).
  [[nodiscard]] std::uint64_t arg_shape(
      const std::vector<TemplateArgValue>& args) const;
};

}  // namespace tydi::elab
