#include "src/elab/elaborator.hpp"

#include <algorithm>
#include <cassert>

#include "src/eval/interp.hpp"
#include "src/support/hash.hpp"
#include "src/support/text.hpp"

namespace tydi::elab {

using eval::EvalError;
using eval::Value;
using support::Loc;

namespace {

/// FNV-1a 64-bit, rendered as 8 hex chars — disambiguates mangled names whose
/// sanitized argument spellings collide (e.g. "MED BAG" vs "MED_BAG").
std::string short_hash(std::string_view text) {
  const std::uint64_t h = support::fnv1a64(text);
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 0; i < 8; ++i) {
    out[i] = digits[(h >> (i * 4)) & 0xF];
  }
  return out;
}

std::string display_args(const std::vector<TemplateArgValue>& args) {
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const TemplateArgValue& a : args) parts.push_back(a.display());
  return support::join(parts, ", ");
}

}  // namespace

Elaborator::Elaborator(ProgramRef program, support::DiagnosticEngine& diags,
                       MemoHook memo)
    : program_(std::move(program)),
      diags_(diags),
      design_(program_),
      memo_(memo) {
  build_registries();
  if (memo_.enabled()) {
    // Record every global-constant read as a dependency of the entry (or
    // constant/type) being elaborated. Installed before the global consts
    // evaluate so const-to-const reads build the transitive closure.
    global_scope_.set_lookup_observer(
        [](Symbol name, void* ctx) {
          static_cast<Elaborator*>(ctx)->record_const_dep(name);
        },
        this);
  }
  evaluate_global_consts();
}

void Elaborator::record_stamp(SourceStamp stamp) {
  if (dep_stack_.empty() || !stamp.file.valid()) return;
  std::vector<SourceStamp>& sources = dep_stack_.back().sources;
  for (const SourceStamp& existing : sources) {
    if (existing.file == stamp.file) return;
  }
  sources.push_back(stamp);
}

void Elaborator::record_source_dep(support::Loc loc) {
  if (dep_stack_.empty()) return;
  record_stamp(stamp_for(loc));
}

void Elaborator::record_const_dep(Symbol name_sym) {
  if (dep_stack_.empty()) return;
  // A constant's value may have been baked from other files' constants
  // during evaluate_global_consts; replay its full transitive closure.
  if (auto it = const_deps_.find(name_sym); it != const_deps_.end()) {
    for (const SourceStamp& stamp : it->second) record_stamp(stamp);
    return;
  }
  if (auto it = const_decls_.find(name_sym); it != const_decls_.end()) {
    record_source_dep(it->second->loc);
  }
}

void Elaborator::record_named_type_dep(Symbol name_sym) {
  if (dep_stack_.empty()) return;
  // First resolution stored the transitive closure (nested aliases/groups
  // may live in other files); cache hits replay it in full.
  if (auto it = type_deps_.find(name_sym); it != type_deps_.end()) {
    for (const SourceStamp& stamp : it->second) record_stamp(stamp);
    return;
  }
  if (auto it = alias_decls_.find(name_sym); it != alias_decls_.end()) {
    record_source_dep(it->second->loc);
  } else if (auto git = group_decls_.find(name_sym);
             git != group_decls_.end()) {
    record_source_dep(git->second->loc);
  }
}

void Elaborator::record_ref_streamlet(Symbol sym) {
  if (dep_stack_.empty()) return;
  std::vector<Symbol>& refs = dep_stack_.back().ref_streamlets;
  if (std::find(refs.begin(), refs.end(), sym) == refs.end()) {
    refs.push_back(sym);
  }
}

void Elaborator::record_ref_impl(Symbol sym) {
  if (dep_stack_.empty()) return;
  std::vector<Symbol>& refs = dep_stack_.back().ref_impls;
  if (std::find(refs.begin(), refs.end(), sym) == refs.end()) {
    refs.push_back(sym);
  }
}

Elaborator::DepFrameData Elaborator::pop_dep_frame() {
  DepFrameData frame = std::move(dep_stack_.back());
  dep_stack_.pop_back();
  if (!dep_stack_.empty()) {
    DepFrameData& parent = dep_stack_.back();
    for (const SourceStamp& dep : frame.sources) {
      bool seen = false;
      for (const SourceStamp& existing : parent.sources) {
        if (existing.file == dep.file) {
          seen = true;
          break;
        }
      }
      if (!seen) parent.sources.push_back(dep);
    }
    for (Symbol sym : frame.ref_streamlets) {
      if (std::find(parent.ref_streamlets.begin(),
                    parent.ref_streamlets.end(),
                    sym) == parent.ref_streamlets.end()) {
        parent.ref_streamlets.push_back(sym);
      }
    }
    for (Symbol sym : frame.ref_impls) {
      if (std::find(parent.ref_impls.begin(), parent.ref_impls.end(), sym) ==
          parent.ref_impls.end()) {
        parent.ref_impls.push_back(sym);
      }
    }
  }
  return frame;
}

SourceStamp Elaborator::stamp_for(support::Loc loc) const {
  SourceStamp stamp;
  if (memo_.enabled() && loc.file.valid() &&
      loc.file.value < memo_.hashes->size()) {
    stamp.file = loc.file;
    stamp.hash = (*memo_.hashes)[loc.file.value];
  }
  return stamp;
}

std::shared_ptr<const void> Elaborator::ast_of(support::FileId file) const {
  if (file.valid() && file.value <= program_->files.size()) {
    return program_->files[file.value - 1];
  }
  return program_;
}

bool Elaborator::materialize_memo_impl(const TemplateMemo::ImplEntry& e) {
  // Entities the original elaboration referenced but did not insert must
  // already be present; otherwise re-elaborate so the current compile's
  // insertion order matches its own cold order (per-child memo hits still
  // apply during that re-elaboration).
  for (Symbol sym : e.required_streamlets) {
    if (design_.find_streamlet(sym) == nullptr) return false;
  }
  for (Symbol sym : e.required_impls) {
    if (design_.find_impl(sym) == nullptr) return false;
  }
  // Validate the whole window before touching the design: a member already
  // elaborated in this compile is satisfied by the design itself, anything
  // else must have a stamp-current memo entry. Payload handles are captured
  // here, *before* any insertion, so a concurrent invalidate()/upsert
  // between validation and replay cannot leave a half-replayed window — the
  // snapshot below is inserted wholesale or not at all.
  std::vector<std::pair<Symbol, std::shared_ptr<const Streamlet>>>
      streamlet_window;
  for (MemoRef ref : e.dep_streamlets) {
    if (design_.find_streamlet(ref.sym) != nullptr) continue;
    std::shared_ptr<const Streamlet> payload = memo_.valid_streamlet(ref);
    if (payload == nullptr) return false;
    streamlet_window.emplace_back(ref.sym, std::move(payload));
  }
  std::vector<std::shared_ptr<const TemplateMemo::ImplEntry>> impl_window;
  for (MemoRef ref : e.dep_impls) {
    if (design_.find_impl(ref.sym) != nullptr) continue;
    std::shared_ptr<const TemplateMemo::ImplEntry> entry =
        memo_.valid_impl(ref);
    if (entry == nullptr) return false;
    impl_window.push_back(std::move(entry));
  }
  // Replay in recorded insertion order (skipping already-present members)
  // so a warm compile reproduces the cold compile's emission order exactly.
  // Payloads are shared, not copied — the design references the memo's
  // objects until something (the sugaring pass) copies-on-write.
  for (auto& [sym, payload] : streamlet_window) {
    if (design_.find_streamlet(sym) == nullptr) {
      design_.add_streamlet(std::move(payload));
    }
  }
  // Replayed payloads with sim blocks point into the ASTs of the compiles
  // that elaborated them; the design pins those ASTs.
  for (const auto& entry : impl_window) {
    if (design_.find_impl(entry->payload->sym) == nullptr) {
      design_.add_impl(entry->payload);
      design_.pin(entry->sim_ast);
    }
  }
  design_.add_impl(e.payload);
  design_.pin(e.sim_ast);
  return true;
}

void Elaborator::build_registries() {
  assert(program_ != nullptr);
  for (const auto& file_ptr : program_->files) {
    const lang::SourceFile& file = *file_ptr;
    for (const lang::Decl& d : file.decls) {
      std::visit(
          [this](const auto& n) {
            using T = std::decay_t<decltype(n)>;
            auto check_dup = [this, &n](const auto& map) {
              if (map.contains(n.name.sym)) {
                diags_.error("elab",
                             "duplicate declaration of '" + n.name.str() + "'",
                             n.loc);
                return true;
              }
              return false;
            };
            if constexpr (std::is_same_v<T, lang::ConstDecl>) {
              if (!check_dup(const_decls_)) {
                const_decls_[n.name.sym] = &n;
              }
            } else if constexpr (std::is_same_v<T, lang::TypeAliasDecl>) {
              if (!check_dup(alias_decls_)) {
                alias_decls_[n.name.sym] = &n;
              }
            } else if constexpr (std::is_same_v<T, lang::GroupDecl>) {
              if (!check_dup(group_decls_)) {
                group_decls_[n.name.sym] = &n;
              }
            } else if constexpr (std::is_same_v<T, lang::StreamletDecl>) {
              if (!check_dup(streamlet_decls_)) {
                streamlet_decls_[n.name.sym] = &n;
              }
            } else if constexpr (std::is_same_v<T, lang::ImplDecl>) {
              if (!check_dup(impl_decls_)) {
                impl_decls_[n.name.sym] = &n;
                impl_decl_order_.push_back(&n);
              }
            }
          },
          d.node);
    }
  }
}

void Elaborator::evaluate_global_consts() {
  // Declaration order across files: stdlib sources come first by convention
  // (driver concatenates them first), so user constants may reference them.
  for (const auto& file_ptr : program_->files) {
    const lang::SourceFile& file = *file_ptr;
    for (const lang::Decl& d : file.decls) {
      const auto* c = std::get_if<lang::ConstDecl>(&d.node);
      if (c == nullptr) continue;
      if (!memo_.enabled()) {
        evaluate_global_const(*c);
        continue;
      }
      // With a memo, collect the transitive file deps of this constant
      // (its own file + the files of every constant its initializer read)
      // so entries reading it later can stamp the full closure.
      push_dep_frame();
      evaluate_global_const(*c);
      DepFrameData frame = pop_dep_frame();
      SourceStamp own = stamp_for(c->loc);
      if (own.file.valid()) {
        bool seen = false;
        for (const SourceStamp& s : frame.sources) {
          if (s.file == own.file) {
            seen = true;
            break;
          }
        }
        if (!seen) frame.sources.push_back(own);
      }
      const_deps_[c->name.sym] = std::move(frame.sources);
    }
  }
}

void Elaborator::evaluate_global_const(const lang::ConstDecl& c) {
  try {
    Value v = eval::evaluate(*c.init, global_scope_);
    if (c.declared_kind) {
      bool matches = false;
      switch (*c.declared_kind) {
        case lang::ParamKind::kInt: matches = v.is_int(); break;
        case lang::ParamKind::kFloat: matches = v.is_numeric(); break;
        case lang::ParamKind::kString: matches = v.is_string(); break;
        case lang::ParamKind::kBool: matches = v.is_bool(); break;
        case lang::ParamKind::kClockdomain: matches = v.is_clock(); break;
        default: matches = false; break;
      }
      if (!matches) {
        diags_.error("elab",
                     "constant '" + c.name.str() + "' declared as " +
                         std::string(lang::to_string(*c.declared_kind)) +
                         " but initialized with " +
                         std::string(v.type_name()),
                     c.loc);
        return;
      }
    }
    if (!global_scope_.define(c.name.sym, std::move(v))) {
      diags_.error("elab",
                   "constant '" + c.name.str() +
                       "' is already defined (variables are immutable)",
                   c.loc);
    }
  } catch (const EvalError& e) {
    diags_.error("elab", e.what(), e.loc());
  }
}

std::string Elaborator::mangle(const std::string& base,
                               const std::vector<TemplateArgValue>& args) {
  if (args.empty()) return base;
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const TemplateArgValue& a : args) {
    parts.push_back(support::sanitize_identifier(a.display()));
  }
  std::string raw = display_args(args);
  return base + "__" + support::join(parts, "_") + "_" + short_hash(raw);
}

std::uint64_t Elaborator::arg_shape(
    const std::vector<TemplateArgValue>& args) const {
  // One fixed-width part per argument; 0 for arguments the mangled name
  // already spells out in full.
  std::string parts;
  bool any = false;
  for (const TemplateArgValue& a : args) {
    std::uint64_t part = 0;
    if (a.kind == TemplateArgValue::Kind::kType && a.type != nullptr &&
        !a.type->origin().empty()) {
      part = types::display_hash(*a.type);
    } else if (a.kind == TemplateArgValue::Kind::kImpl) {
      if (const Impl* impl = design_.find_impl(a.impl_name)) {
        part = source_hash(std::to_string(impl->arg_shape) + ' ' +
                           std::to_string(stamp_for(impl->loc).hash));
      }
    }
    any = any || part != 0;
    parts.append(reinterpret_cast<const char*>(&part), sizeof(part));
  }
  return any ? source_hash(parts) : 0;
}

types::TypeRef Elaborator::resolve_named_type(lang::Name name, Loc loc,
                                              const Context& ctx) {
  const Symbol name_sym = name.sym;
  // 1. Template `type` parameter binding.
  if (ctx.type_bindings != nullptr) {
    auto it = ctx.type_bindings->find(name_sym);
    if (it != ctx.type_bindings->end()) return it->second;
  }
  // 2. Cached global named type. A cache hit replays the type's stored
  // transitive file-dependency closure into the active memo frame; a fresh
  // resolution collects that closure in its own frame below.
  auto cached = named_type_cache_.find(name_sym);
  if (cached != named_type_cache_.end()) {
    record_named_type_dep(name_sym);
    return cached->second;
  }

  if (resolving_types_.contains(name_sym)) {
    diags_.error("elab",
                 "recursive type definition involving '" + name.str() + "'",
                 loc);
    return nullptr;
  }
  resolving_types_.insert(name_sym);
  const bool track_deps = memo_.enabled();
  if (track_deps) {
    push_dep_frame();
    if (auto it = alias_decls_.find(name_sym); it != alias_decls_.end()) {
      record_source_dep(it->second->loc);
    } else if (auto git = group_decls_.find(name_sym);
               git != group_decls_.end()) {
      record_source_dep(git->second->loc);
    }
  }
  types::TypeRef result;

  // Global types resolve in the *global* context only (logical types cannot
  // be templates, Sec. IV-B, so their definitions may not capture params).
  Context global_ctx;
  global_ctx.scope = &global_scope_;

  if (auto it = alias_decls_.find(name_sym); it != alias_decls_.end()) {
    types::TypeRef base = resolve_type(*it->second->type, global_ctx);
    if (base != nullptr) result = types::with_origin(base, name.str());
  } else if (auto git = group_decls_.find(name_sym);
             git != group_decls_.end()) {
    const lang::GroupDecl& g = *git->second;
    std::vector<types::Field> fields;
    bool ok = true;
    for (const lang::FieldDecl& f : g.fields) {
      types::TypeRef ft = resolve_type(*f.type, global_ctx);
      if (ft == nullptr) {
        ok = false;
        break;
      }
      fields.push_back(types::Field{f.name.str(), std::move(ft)});
    }
    if (ok) {
      result = g.is_union ? types::make_union(std::move(fields), name.str())
                          : types::make_group(std::move(fields), name.str());
    }
  } else {
    diags_.error("elab", "unknown type '" + name.str() + "'", loc);
  }
  resolving_types_.erase(name_sym);
  if (track_deps) {
    // Store the closure (own file + nested types' files + consts read) for
    // cache-hit replay, and merge it into the enclosing frame.
    DepFrameData frame = pop_dep_frame();
    if (result != nullptr) type_deps_[name_sym] = std::move(frame.sources);
  }
  if (result != nullptr) named_type_cache_[name_sym] = result;
  return result;
}

types::TypeRef Elaborator::resolve_type(const lang::TypeExpr& type,
                                        const Context& ctx) {
  try {
    return std::visit(
        [&](const auto& n) -> types::TypeRef {
          using T = std::decay_t<decltype(n)>;
          if constexpr (std::is_same_v<T, lang::NullTypeExpr>) {
            return types::make_null();
          } else if constexpr (std::is_same_v<T, lang::BitTypeExpr>) {
            std::int64_t width = eval::evaluate_int(*n.width, *ctx.scope);
            if (width < 0) {
              diags_.error("elab",
                           "Bit width must be non-negative, got " +
                               std::to_string(width),
                           type.loc);
              return nullptr;
            }
            return types::make_bit(width);
          } else if constexpr (std::is_same_v<T, lang::NamedTypeExpr>) {
            return resolve_named_type(n.name, type.loc, ctx);
          } else {  // StreamTypeExpr
            types::TypeRef element = resolve_type(*n.element, ctx);
            if (element == nullptr) return nullptr;
            types::StreamParams params;
            if (n.throughput) {
              params.throughput = eval::evaluate_number(*n.throughput,
                                                        *ctx.scope);
              if (params.throughput <= 0) {
                diags_.error("elab", "stream throughput must be positive",
                             type.loc);
                return nullptr;
              }
            }
            if (n.dimension) {
              std::int64_t d = eval::evaluate_int(*n.dimension, *ctx.scope);
              if (d < 0) {
                diags_.error("elab", "stream dimension must be >= 0",
                             type.loc);
                return nullptr;
              }
              params.dimension = static_cast<int>(d);
            }
            if (n.complexity) {
              std::int64_t c = eval::evaluate_int(*n.complexity, *ctx.scope);
              if (c < 1 || c > 8) {
                diags_.error("elab",
                             "stream complexity must be in 1..8, got " +
                                 std::to_string(c),
                             type.loc);
                return nullptr;
              }
              params.complexity = static_cast<int>(c);
            }
            if (n.synchronicity) params.synchronicity = *n.synchronicity;
            if (n.direction) params.direction = *n.direction;
            if (n.user) {
              params.user = resolve_type(*n.user, ctx);
              if (params.user == nullptr) return nullptr;
            }
            return types::make_stream(std::move(element), std::move(params));
          }
        },
        type.node);
  } catch (const EvalError& e) {
    diags_.error("elab", e.what(), e.loc());
    return nullptr;
  }
}

std::vector<TemplateArgValue> Elaborator::evaluate_args(
    const std::vector<lang::TemplateArg>& args, const Context& ctx) {
  std::vector<TemplateArgValue> out;
  out.reserve(args.size());
  for (const lang::TemplateArg& a : args) {
    TemplateArgValue v;
    switch (a.kind) {
      case lang::TemplateArg::Kind::kExpr:
        v.kind = TemplateArgValue::Kind::kValue;
        try {
          v.value = eval::evaluate(*a.expr, *ctx.scope);
        } catch (const EvalError& e) {
          diags_.error("elab", e.what(), e.loc());
        }
        break;
      case lang::TemplateArg::Kind::kType:
        v.kind = TemplateArgValue::Kind::kType;
        v.type = resolve_type(*a.type, ctx);
        break;
      case lang::TemplateArg::Kind::kImpl:
        v.kind = TemplateArgValue::Kind::kImpl;
        v.impl_name = resolve_impl_ref(a.impl_name, {}, ctx, a.loc);
        break;
    }
    out.push_back(std::move(v));
  }
  return out;
}

bool Elaborator::check_param_binding(const lang::TemplateParam& param,
                                     const TemplateArgValue& arg,
                                     const Context& ctx, Loc loc) {
  using PK = lang::ParamKind;
  auto mismatch = [&](std::string_view got) {
    diags_.error("elab",
                 "template parameter '" + param.name.str() + "' expects " +
                     std::string(lang::to_string(param.kind)) + ", got " +
                     std::string(got),
                 loc);
    return false;
  };
  switch (param.kind) {
    case PK::kInt:
      if (arg.kind != TemplateArgValue::Kind::kValue || !arg.value.is_int()) {
        return mismatch(arg.display());
      }
      return true;
    case PK::kFloat:
      if (arg.kind != TemplateArgValue::Kind::kValue ||
          !arg.value.is_numeric()) {
        return mismatch(arg.display());
      }
      return true;
    case PK::kString:
      if (arg.kind != TemplateArgValue::Kind::kValue ||
          !arg.value.is_string()) {
        return mismatch(arg.display());
      }
      return true;
    case PK::kBool:
      if (arg.kind != TemplateArgValue::Kind::kValue || !arg.value.is_bool()) {
        return mismatch(arg.display());
      }
      return true;
    case PK::kClockdomain:
      if (arg.kind != TemplateArgValue::Kind::kValue ||
          !arg.value.is_clock()) {
        return mismatch(arg.display());
      }
      return true;
    case PK::kType:
      if (arg.kind != TemplateArgValue::Kind::kType || arg.type == nullptr) {
        return mismatch(arg.display());
      }
      return true;
    case PK::kImpl: {
      if (arg.kind != TemplateArgValue::Kind::kImpl || arg.impl_name.empty()) {
        return mismatch(arg.display());
      }
      const Impl* supplied = design_.find_impl(arg.impl_name);
      if (supplied == nullptr) {
        return mismatch("unresolved impl '" + arg.impl_name + "'");
      }
      // The entry under elaboration references this impl without inserting
      // it — record as a memo-hit precondition (see elaborate_streamlet).
      record_ref_impl(supplied->sym);
      // `impl of <streamlet>` constraint: family must match; if the
      // constraint supplies arguments, the exact streamlet instance must
      // match (Sec. IV-B: "the streamlet template only accepts
      // implementations derived from that streamlet").
      if (supplied->streamlet_family != param.impl_of_streamlet.str()) {
        diags_.error("elab",
                     "impl '" + supplied->display_name + "' derives from '" +
                         supplied->streamlet_family +
                         "' but template parameter '" + param.name.str() +
                         "' requires an impl of '" +
                         param.impl_of_streamlet.str() + "'",
                     loc);
        return false;
      }
      if (!param.impl_of_args.empty()) {
        auto sit = streamlet_decls_.find(param.impl_of_streamlet.sym);
        if (sit == streamlet_decls_.end()) {
          diags_.error("elab",
                       "unknown streamlet '" + param.impl_of_streamlet.str() +
                           "' in impl constraint",
                       param.loc);
          return false;
        }
        std::vector<TemplateArgValue> cargs =
            evaluate_args(param.impl_of_args, ctx);
        std::string expected =
            elaborate_streamlet(*sit->second, cargs, param.loc);
        if (!expected.empty() && supplied->streamlet_name != expected) {
          diags_.error(
              "elab",
              "impl '" + supplied->display_name + "' implements streamlet '" +
                  supplied->streamlet_name + "' but parameter '" +
                  param.name.str() +
                  "' requires '" + expected + "'",
              loc);
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

std::string Elaborator::elaborate_streamlet(
    const lang::StreamletDecl& decl, const std::vector<TemplateArgValue>& args,
    Loc use_loc) {
  std::string mangled = mangle(decl.name.str(), args);
  const Symbol mangled_sym = support::intern(mangled);
  // Template-instantiation cache: monomorphisation is keyed by the mangled
  // name's symbol; a hit skips re-elaboration entirely.
  if (design_.find_streamlet(mangled_sym) != nullptr) {
    ++stats_.streamlet_hits;
    // A reference to an entity elaborated before the enclosing entry's
    // window opened becomes a hit precondition of that entry (filtered
    // against the window at memoization time).
    record_ref_streamlet(mangled_sym);
    return mangled;
  }
  // Cross-compile memo: a prior compile of this session already
  // monomorphised this streamlet from byte-identical source. The payload is
  // shared into this design, not copied.
  const std::uint64_t shape = memo_.enabled() ? arg_shape(args) : 0;
  if (memo_.enabled()) {
    if (std::shared_ptr<const Streamlet> cached =
            memo_.find_streamlet({mangled_sym, shape})) {
      design_.add_streamlet(std::move(cached));
      ++stats_.streamlet_hits;
      ++stats_.session_streamlet_hits;
      return mangled;
    }
  }
  ++stats_.streamlet_misses;
  const std::size_t errors_before = diags_.error_count();
  DepFrame dep_frame(this);

  if (args.size() != decl.params.size()) {
    diags_.error("elab",
                 "streamlet '" + decl.name.str() + "' expects " +
                     std::to_string(decl.params.size()) + " argument(s), got " +
                     std::to_string(args.size()),
                 use_loc);
    return {};
  }

  eval::Scope scope(&global_scope_);
  std::map<Symbol, types::TypeRef> type_bindings;
  Context ctx;
  ctx.scope = &scope;
  ctx.type_bindings = &type_bindings;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const lang::TemplateParam& p = decl.params[i];
    if (p.kind == lang::ParamKind::kImpl) {
      diags_.error("elab",
                   "streamlet templates cannot take impl parameters ('" +
                       p.name.str() + "' in '" + decl.name.str() + "')",
                   p.loc);
      return {};
    }
    if (!check_param_binding(p, args[i], ctx, use_loc)) return {};
    if (p.kind == lang::ParamKind::kType) {
      type_bindings[p.name.sym] = args[i].type;
    } else {
      scope.define(p.name.sym, args[i].value);
    }
  }

  Streamlet s;
  s.name = mangled;
  s.arg_shape = shape;
  s.display_name = args.empty()
                       ? decl.name.str()
                       : decl.name.str() + "<" + display_args(args) + ">";
  s.loc = decl.loc;

  for (const lang::PortDecl& pd : decl.ports) {
    types::TypeRef t = resolve_type(*pd.type, ctx);
    if (t == nullptr) continue;
    if (!t->is_stream()) {
      diags_.error("elab",
                   "port '" + pd.name.str() + "' of streamlet '" +
                       decl.name.str() +
                       "' must bind to a Stream type, got " + t->to_display(),
                   pd.loc);
      continue;
    }
    std::string clock = "default";
    if (!pd.clock_domain.empty()) {
      if (auto v = scope.lookup(pd.clock_domain.sym)) {
        if (v->is_clock()) {
          clock = v->as_clock().name;
        } else {
          diags_.error("elab",
                       "'" + pd.clock_domain.str() +
                           "' used as clock domain but has type " +
                           std::string(v->type_name()),
                       pd.loc);
        }
      } else {
        // Bare clock-domain labels are permitted: `@ sys_clk` names the
        // domain directly without declaring a clockdomain constant.
        clock = pd.clock_domain.str();
      }
    }
    std::int64_t count = -1;  // scalar
    if (pd.array_size) {
      try {
        count = eval::evaluate_int(*pd.array_size, scope);
      } catch (const EvalError& e) {
        diags_.error("elab", e.what(), e.loc());
        continue;
      }
      if (count < 0) {
        diags_.error("elab", "port array size must be >= 0", pd.loc);
        continue;
      }
    }
    auto add_port = [&](const std::string& port_name) {
      if (s.find_port(port_name) != nullptr) {
        diags_.error("elab",
                     "duplicate port '" + port_name + "' in streamlet '" +
                         decl.name.str() + "'",
                     pd.loc);
        return;
      }
      Port p;
      p.name = port_name;
      p.type = t;
      p.dir = pd.dir;
      p.clock_domain = clock;
      p.loc = pd.loc;
      s.ports.push_back(std::move(p));
    };
    if (count < 0) {
      add_port(pd.name.str());
    } else {
      for (std::int64_t i = 0; i < count; ++i) {
        add_port(pd.name.str() + "_" + std::to_string(i));
      }
    }
  }

  design_.add_streamlet(std::move(s));
  // Memoize only clean elaborations of decls with a stampable source file.
  // The entry shares the design's payload object (no copy).
  if (memo_.enabled() && diags_.error_count() == errors_before) {
    SourceStamp stamp = stamp_for(decl.loc);
    if (stamp.file.valid()) {
      memo_.put_streamlet(mangled_sym,
                          {design_.share_streamlet(mangled_sym), stamp,
                           dep_stack_.back().sources});
    }
  }
  return mangled;
}

std::string Elaborator::resolve_impl_ref(
    lang::Name name, const std::vector<lang::TemplateArg>& args,
    const Context& ctx, Loc loc) {
  // Impl-parameter binding (already elaborated and concrete).
  if (ctx.impl_bindings != nullptr) {
    auto it = ctx.impl_bindings->find(name.sym);
    if (it != ctx.impl_bindings->end()) {
      if (!args.empty()) {
        diags_.error("elab",
                     "impl parameter '" + name.str() +
                         "' is already concrete and takes no arguments",
                     loc);
        return {};
      }
      return it->second;
    }
  }
  auto it = impl_decls_.find(name.sym);
  if (it == impl_decls_.end()) {
    diags_.error("elab", "unknown impl '" + name.str() + "'", loc);
    return {};
  }
  std::vector<TemplateArgValue> evaluated = evaluate_args(args, ctx);
  return elaborate_impl(*it->second, evaluated, loc);
}

std::string Elaborator::elaborate_impl(
    const lang::ImplDecl& decl, const std::vector<TemplateArgValue>& args,
    Loc use_loc) {
  std::string mangled = mangle(decl.name.str(), args);
  const Symbol mangled_sym = support::intern(mangled);
  // Template-instantiation cache (see elaborate_streamlet).
  if (design_.find_impl(mangled_sym) != nullptr) {
    ++stats_.impl_hits;
    record_ref_impl(mangled_sym);  // see elaborate_streamlet
    return mangled;
  }
  // Cross-compile memo: replay the cached impl plus its recorded insertion
  // window (streamlet + transitive children) in original order.
  const std::uint64_t shape = memo_.enabled() ? arg_shape(args) : 0;
  if (memo_.enabled()) {
    if (std::shared_ptr<const TemplateMemo::ImplEntry> entry =
            memo_.find_impl({mangled_sym, shape})) {
      if (materialize_memo_impl(*entry)) {
        ++stats_.impl_hits;
        ++stats_.session_impl_hits;
        return mangled;
      }
    }
  }
  ++stats_.impl_misses;
  const std::size_t errors_before = diags_.error_count();
  const std::size_t streamlets_before = design_.streamlets().size();
  const std::size_t impls_before = design_.impls().size();
  DepFrame dep_frame(this);
  if (impls_in_progress_.contains(mangled_sym)) {
    diags_.error("elab",
                 "recursive instantiation of impl '" + decl.name.str() + "'",
                 use_loc);
    return {};
  }
  if (args.size() != decl.params.size()) {
    diags_.error("elab",
                 "impl '" + decl.name.str() + "' expects " +
                     std::to_string(decl.params.size()) + " argument(s), got " +
                     std::to_string(args.size()),
                 use_loc);
    return {};
  }
  impls_in_progress_.insert(mangled_sym);

  eval::Scope scope(&global_scope_);
  std::map<Symbol, types::TypeRef> type_bindings;
  std::map<Symbol, std::string> impl_bindings;
  Context ctx;
  ctx.scope = &scope;
  ctx.type_bindings = &type_bindings;
  ctx.impl_bindings = &impl_bindings;

  std::map<std::string, eval::Value> captured;

  bool params_ok = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const lang::TemplateParam& p = decl.params[i];
    if (!check_param_binding(p, args[i], ctx, use_loc)) {
      params_ok = false;
      continue;
    }
    switch (p.kind) {
      case lang::ParamKind::kType:
        type_bindings[p.name.sym] = args[i].type;
        break;
      case lang::ParamKind::kImpl:
        impl_bindings[p.name.sym] = args[i].impl_name;
        break;
      default:
        scope.define(p.name.sym, args[i].value);
        captured.emplace(p.name.str(), args[i].value);
        break;
    }
  }
  if (!params_ok) {
    impls_in_progress_.erase(mangled_sym);
    return {};
  }

  Impl impl;
  impl.name = mangled;
  impl.arg_shape = shape;
  impl.display_name = args.empty()
                          ? decl.name.str()
                          : decl.name.str() + "<" + display_args(args) + ">";
  impl.template_name = decl.name.str();
  impl.template_args = args;
  impl.external = decl.external;
  impl.streamlet_family = decl.of_streamlet.str();
  impl.loc = decl.loc;

  // Elaborate the streamlet this impl derives from.
  auto sit = streamlet_decls_.find(decl.of_streamlet.sym);
  if (sit == streamlet_decls_.end()) {
    diags_.error("elab", "unknown streamlet '" + decl.of_streamlet.str() + "'",
                 decl.loc);
    impls_in_progress_.erase(mangled_sym);
    return {};
  }
  std::vector<TemplateArgValue> of_args = evaluate_args(decl.of_args, ctx);
  impl.streamlet_name = elaborate_streamlet(*sit->second, of_args, decl.loc);
  if (impl.streamlet_name.empty()) {
    impls_in_progress_.erase(mangled_sym);
    return {};
  }

  if (decl.external) {
    // External implementations carry no netlist; their behaviour comes from
    // a sim block (Sec. V-A) and their RTL from the stdlib generator.
    for (const lang::ImplStmt& s : decl.body) {
      if (const auto* c = std::get_if<lang::LocalConst>(&s.node)) {
        try {
          Value v = eval::evaluate(*c->init, scope);
          captured.emplace(c->name.str(), v);
          if (!scope.define(c->name.sym, std::move(v))) {
            diags_.error("elab",
                         "'" + c->name.str() + "' is already defined "
                         "(variables are immutable)",
                         c->loc);
          }
        } catch (const EvalError& e) {
          diags_.error("elab", e.what(), e.loc());
        }
      } else if (const auto* a = std::get_if<lang::AssertStmt>(&s.node)) {
        try {
          if (!eval::evaluate_bool(*a->cond, scope)) {
            diags_.error("elab",
                         a->message.empty()
                             ? std::string("assertion failed")
                             : "assertion failed: " + a->message,
                         a->loc);
          }
        } catch (const EvalError& e) {
          diags_.error("elab", e.what(), e.loc());
        }
      } else {
        diags_.error("elab",
                     "external impl '" + decl.name.str() +
                         "' may only contain consts, asserts and a sim block",
                     decl.loc);
      }
    }
  } else {
    walk_stmts(decl.body, impl, scope, ctx, captured);
  }

  if (decl.sim) {
    SimProgram sim;
    sim.block = &*decl.sim;
    sim.captured = captured;
    impl.sim = std::move(sim);
  }

  impls_in_progress_.erase(mangled_sym);
  design_.add_impl(std::move(impl));
  // Memoize clean elaborations together with the insertion window recorded
  // above (everything this call added transitively, in order) and the
  // referenced-but-not-inserted preconditions.
  if (memo_.enabled() && diags_.error_count() == errors_before) {
    SourceStamp stamp = stamp_for(decl.loc);
    if (stamp.file.valid()) {
      TemplateMemo::ImplEntry entry;
      entry.payload = design_.share_impl(mangled_sym);
      entry.stamp = stamp;
      const DepFrameData& frame = dep_stack_.back();
      entry.dep_sources = frame.sources;
      const auto& streamlets = design_.streamlets();
      const auto& impls = design_.impls();
      entry.dep_streamlets.reserve(streamlets.size() - streamlets_before);
      for (std::size_t i = streamlets_before; i < streamlets.size(); ++i) {
        entry.dep_streamlets.push_back(
            {streamlets[i].sym, streamlets[i].arg_shape});
      }
      entry.dep_impls.reserve(impls.size() - impls_before - 1);
      for (std::size_t i = impls_before; i + 1 < impls.size(); ++i) {
        entry.dep_impls.push_back({impls[i].sym, impls[i].arg_shape});
      }
      // References inside the window are replayed anyway; only references
      // predating the window become preconditions.
      auto outside_window = [](const std::vector<Symbol>& refs,
                               const std::vector<MemoRef>& window,
                               Symbol self) {
        std::vector<Symbol> out;
        for (Symbol sym : refs) {
          if (sym != self &&
              std::none_of(window.begin(), window.end(),
                           [sym](MemoRef m) { return m.sym == sym; })) {
            out.push_back(sym);
          }
        }
        return out;
      };
      entry.required_streamlets = outside_window(
          frame.ref_streamlets, entry.dep_streamlets, support::kNoSymbol);
      entry.required_impls =
          outside_window(frame.ref_impls, entry.dep_impls, mangled_sym);
      if (decl.sim) entry.sim_ast = ast_of(decl.loc.file);
      memo_.put_impl(mangled_sym, std::move(entry));
    }
  }
  return mangled;
}

Endpoint Elaborator::resolve_port_ref(const lang::PortRef& ref,
                                      const Context& ctx) {
  Endpoint ep;
  ep.loc = ref.loc;
  try {
    if (!ref.instance.empty()) {
      ep.instance = ref.instance.str();
      if (ref.instance_index) {
        std::int64_t i = eval::evaluate_int(*ref.instance_index, *ctx.scope);
        ep.instance += "_" + std::to_string(i);
      }
    }
    ep.port = ref.port.str();
    if (ref.port_index) {
      std::int64_t i = eval::evaluate_int(*ref.port_index, *ctx.scope);
      ep.port += "_" + std::to_string(i);
    }
  } catch (const EvalError& e) {
    diags_.error("elab", e.what(), e.loc());
  }
  return ep;
}

void Elaborator::walk_stmts(const std::vector<lang::ImplStmt>& stmts,
                            Impl& impl, eval::Scope& scope,
                            const Context& parent_ctx,
                            std::map<std::string, eval::Value>& captured) {
  Context ctx = parent_ctx;
  ctx.scope = &scope;

  for (const lang::ImplStmt& stmt : stmts) {
    std::visit(
        [&](const auto& n) {
          using T = std::decay_t<decltype(n)>;
          try {
            if constexpr (std::is_same_v<T, lang::InstanceStmt>) {
              std::int64_t count = -1;
              if (n.array_size) {
                count = eval::evaluate_int(*n.array_size, scope);
                if (count < 0) {
                  diags_.error("elab", "instance array size must be >= 0",
                               n.loc);
                  return;
                }
              }
              std::string base_name = n.name.str();
              if (n.name_index) {
                if (n.array_size) {
                  diags_.error("elab",
                               "instance '" + n.name.str() +
                                   "' cannot have both "
                               "an explicit index and an array size",
                               n.loc);
                  return;
                }
                std::int64_t i = eval::evaluate_int(*n.name_index, scope);
                base_name += "_" + std::to_string(i);
              }
              std::string child = resolve_impl_ref(n.impl_name, n.args, ctx,
                                                   n.loc);
              if (child.empty()) return;
              auto add_instance = [&](const std::string& inst_name) {
                if (impl.find_instance(inst_name) != nullptr) {
                  diags_.error("elab",
                               "duplicate instance '" + inst_name + "' in '" +
                                   impl.display_name + "'",
                               n.loc);
                  return;
                }
                impl.instances.push_back(Instance{inst_name, child, n.loc});
              };
              if (count < 0) {
                add_instance(base_name);
              } else {
                for (std::int64_t i = 0; i < count; ++i) {
                  add_instance(base_name + "_" + std::to_string(i));
                }
              }
            } else if constexpr (std::is_same_v<T, lang::ConnectStmt>) {
              Connection c;
              c.src = resolve_port_ref(n.src, ctx);
              c.dst = resolve_port_ref(n.dst, ctx);
              c.structural = n.structural;
              c.loc = n.loc;
              impl.connections.push_back(std::move(c));
            } else if constexpr (std::is_same_v<T, lang::ForStmt>) {
              Value iterable = eval::evaluate(*n.iterable, scope);
              if (!iterable.is_array()) {
                diags_.error("elab",
                             "for-loop iterable must be an array or range, "
                             "got " +
                                 std::string(iterable.type_name()),
                             n.loc);
                return;
              }
              for (const Value& element : iterable.as_array()) {
                eval::Scope body_scope(&scope);
                body_scope.define(n.var.sym, element);
                walk_stmts(n.body, impl, body_scope, ctx, captured);
              }
            } else if constexpr (std::is_same_v<T, lang::IfStmt>) {
              bool cond = eval::evaluate_bool(*n.cond, scope);
              const auto& branch = cond ? n.then_body : n.else_body;
              eval::Scope body_scope(&scope);
              walk_stmts(branch, impl, body_scope, ctx, captured);
            } else if constexpr (std::is_same_v<T, lang::AssertStmt>) {
              if (!eval::evaluate_bool(*n.cond, scope)) {
                diags_.error("elab",
                             n.message.empty()
                                 ? std::string("assertion failed")
                                 : "assertion failed: " + n.message,
                             n.loc);
              }
            } else if constexpr (std::is_same_v<T, lang::LocalConst>) {
              Value v = eval::evaluate(*n.init, scope);
              captured.emplace(n.name.str(), v);
              if (!scope.define(n.name.sym, std::move(v))) {
                diags_.error("elab",
                             "'" + n.name.str() +
                                 "' is already defined in this scope "
                                 "(variables are immutable; shadow in an "
                                 "inner scope instead)",
                             n.loc);
              }
            }
          } catch (const EvalError& e) {
            diags_.error("elab", e.what(), e.loc());
          }
        },
        stmt.node);
  }
}

Design Elaborator::run(const std::string& top_impl) {
  auto it = impl_decls_.find(support::intern(top_impl));
  if (it == impl_decls_.end()) {
    diags_.error("elab", "unknown top impl '" + top_impl + "'", {});
    return std::move(design_);
  }
  if (!it->second->params.empty()) {
    diags_.error("elab",
                 "top impl '" + top_impl +
                     "' is a template; instantiate it from a concrete "
                     "wrapper impl",
                 it->second->loc);
    return std::move(design_);
  }
  std::string mangled = elaborate_impl(*it->second, {}, it->second->loc);
  design_.set_top(mangled);
  return std::move(design_);
}

Design Elaborator::run_all() {
  // Declaration order, not hash order: Design insertion order must stay
  // deterministic for reproducible IR/VHDL emission.
  for (const lang::ImplDecl* decl : impl_decl_order_) {
    if (decl->params.empty()) {
      (void)elaborate_impl(*decl, {}, decl->loc);
    }
  }
  return std::move(design_);
}

}  // namespace tydi::elab
