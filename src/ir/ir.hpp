// Tydi-IR — the typed, monomorphised mid-level representation ([2] in the
// paper's Fig. 1 toolchain: frontend -> Tydi-IR -> backend -> VHDL).
//
// The IR is the *backend contract*: every pass downstream of elaboration
// (DRC, VHDL emission, fletchgen, the textual IR emitter) consumes an
// ir::Module instead of re-traversing elab::Design with string-keyed maps.
// Lowering happens exactly once per compile (driver::compile, phase
// "lower") and precomputes everything the backends would otherwise
// recompute per consumer:
//
//  - names are interned (`support::Symbol`) and cross-references are dense
//    indices into the module's flat streamlet/impl tables, mirroring the
//    simulator's integer-ID design;
//  - every port carries its resolved `types::LogicalType` handle plus the
//    physical stream layouts (signal widths, canonical signal lists) of the
//    Tydi-spec physical protocol, computed once at lowering;
//  - every connection endpoint is resolved to (instance index, port index)
//    with an explicit resolution status, so the DRC reads violations off the
//    IR instead of re-resolving strings and the VHDL backend never repeats a
//    lookup.
//
// See src/ir/README.md for the data-model invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/ast.hpp"
#include "src/support/identity_cache.hpp"
#include "src/support/intern.hpp"
#include "src/support/source.hpp"
#include "src/types/logical_type.hpp"
#include "src/types/physical.hpp"

namespace tydi::elab {
class Design;
}

namespace tydi::ir {

using support::Symbol;

/// Dense index into one of Module's flat tables (streamlets, impls, or an
/// impl's instance/port lists).
using Index = std::uint32_t;
inline constexpr Index kNoIndex = 0xFFFFFFFFu;

/// One physical stream of a port, cached at lowering time. `suffix` is the
/// stream's name relative to the port ("" for the primary stream,
/// "__field..." for split-off nested streams), so any consumer builds signal
/// names as `prefix + suffix + "_" + signal.name` without recomputing the
/// layout per prefix.
struct StreamLayout {
  std::string suffix;
  types::PhysicalStream stream;                 ///< stream.name == suffix
  std::vector<types::PhysicalSignal> signals;   ///< canonical order, cached
};

struct IrPort {
  Symbol sym = support::kNoSymbol;  ///< interned port name
  std::string name;
  std::string vhdl;                 ///< sanitized identifier, cached
  lang::PortDir dir = lang::PortDir::kIn;
  types::TypeRef type;              ///< resolved logical type (may be null
                                    ///< only on elaboration errors)
  std::string type_display;         ///< cached display form for IR text
  std::string clock_domain;
  Symbol clock_sym = support::kNoSymbol;
  support::Loc loc;
  /// Physical layouts, computed once. Empty when `type` is unresolved.
  std::vector<StreamLayout> layouts;
};

struct IrStreamlet {
  Symbol sym = support::kNoSymbol;
  std::string name;
  std::string display_name;  ///< original template spelling
  support::Loc loc;
  std::vector<IrPort> ports;
  /// The elaborated payload this was lowered from, held weakly: what the
  /// session caches downstream of lowering key on (empty when hand-built).
  support::Identity origin;

  /// Index of the port with symbol `port_sym` in `ports`, or kNoIndex.
  [[nodiscard]] Index port_index(Symbol port_sym) const;
};

/// Endpoint resolution outcome, decided once at lowering. The DRC turns
/// non-kOk states into R5 (resolution) violations; the VHDL backend skips
/// them with a warning.
enum class EndpointStatus : std::uint8_t {
  kOk,
  kUnknownStreamlet,  ///< self endpoint, impl's streamlet unresolved
  kUnknownInstance,   ///< named instance does not exist in the impl
  kUnresolvedImpl,    ///< instance exists but its impl is unresolved
  kUnknownPort,       ///< streamlet resolved, port name unknown
};

struct IrEndpoint {
  /// kNoSymbol for the implementation's own ports.
  Symbol instance_sym = support::kNoSymbol;
  Symbol port_sym = support::kNoSymbol;
  /// Index into the owning impl's `instances` (kNoIndex for self ports).
  Index instance = kNoIndex;
  /// Index into the resolved streamlet's `ports` (kNoIndex when not kOk).
  Index port = kNoIndex;
  EndpointStatus status = EndpointStatus::kOk;
  support::Loc loc;

  [[nodiscard]] bool is_self() const {
    return instance_sym == support::kNoSymbol;
  }
  [[nodiscard]] bool ok() const { return status == EndpointStatus::kOk; }
  /// "instance.port" / "port" via the interner.
  [[nodiscard]] std::string display() const;
};

struct IrConnection {
  IrEndpoint src;
  IrEndpoint dst;
  bool structural = false;
  support::Loc loc;
};

struct IrInstance {
  Symbol sym = support::kNoSymbol;
  std::string name;
  std::string vhdl;              ///< sanitized identifier, cached
  Symbol impl_sym = support::kNoSymbol;
  Index impl = kNoIndex;         ///< index into Module::impls, or kNoIndex
  support::Loc loc;
};

/// Evaluated template argument, monomorphised to what the backends need
/// (the stdlib RTL generator reads int/string values; everything else only
/// displays them). Keeps drc/vhdl/fletcher free of elab/eval types.
struct IrTemplateArg {
  enum class Kind : std::uint8_t { kInt, kString, kOther };
  Kind kind = Kind::kOther;
  std::int64_t int_value = 0;    ///< kInt
  std::string string_value;      ///< kString
  std::string display;           ///< all kinds
};

struct IrImpl {
  Symbol sym = support::kNoSymbol;
  std::string name;              ///< mangled
  std::string vhdl;              ///< sanitized entity identifier, cached
  std::string display_name;      ///< original spelling with arguments
  Symbol streamlet_sym = support::kNoSymbol;
  Index streamlet = kNoIndex;    ///< index into Module::streamlets
  bool external = false;
  Symbol family_sym = support::kNoSymbol;  ///< template family (generators)
  std::string template_family;
  std::vector<IrTemplateArg> template_args;
  std::vector<IrInstance> instances;
  std::vector<IrConnection> connections;
  bool has_simulation = false;
  support::Loc loc;
  /// See IrStreamlet::origin.
  support::Identity origin;

  /// Index of the instance with symbol `instance_sym`, or kNoIndex.
  [[nodiscard]] Index instance_index(Symbol instance_sym) const;
};

/// The lowered design. `streamlets` and `impls` are flat tables in design
/// insertion order (children before parents — emission order is
/// deterministic); the symbol indexes give O(1) integer-keyed lookup.
/// Streamlets are shared: a session hands every compile that lowers the
/// same payload the same IrStreamlet. Impls are per module because their
/// cross-references (`streamlet`, `IrInstance::impl`, endpoint ports) are
/// module-relative.
class Module {
 public:
  std::vector<std::shared_ptr<const IrStreamlet>> streamlets;
  std::vector<IrImpl> impls;
  /// Top-level impl (index into `impls`), kNoIndex if none was set.
  Index top = kNoIndex;
  std::string top_name;

  [[nodiscard]] const IrImpl* find_impl(Symbol sym) const;
  [[nodiscard]] Index streamlet_index(Symbol sym) const;
  [[nodiscard]] Index impl_index(Symbol sym) const;

  /// The streamlet of `impl`, or nullptr when unresolved.
  [[nodiscard]] const IrStreamlet* streamlet_of(const IrImpl& impl) const;
  /// The port an endpoint refers to, or nullptr unless `ep.ok()`.
  [[nodiscard]] const IrPort* resolve(const IrImpl& impl,
                                      const IrEndpoint& ep) const;

  /// Rebuilds the symbol indexes from the flat tables (lower() calls this;
  /// hand-built modules in tests may call it too).
  void rebuild_index();

 private:
  std::unordered_map<Symbol, Index> streamlet_index_;
  std::unordered_map<Symbol, Index> impl_index_;
};

/// True if, inside an implementation, an endpoint with port direction `dir`
/// acts as a data *source*: a self `in` port or an instance `out` port.
[[nodiscard]] inline bool endpoint_is_source(lang::PortDir dir,
                                             bool is_self_port) {
  return is_self_port ? (dir == lang::PortDir::kIn)
                      : (dir == lang::PortDir::kOut);
}

/// Session lowering cache: lowered streamlets, and impls with their
/// module-relative indices unset, keyed on the payload they were lowered
/// from (see src/support/identity_cache.hpp).
struct LowerMemo {
  support::IdentityCache<IrStreamlet> streamlets;
  support::IdentityCache<IrImpl> impls;
};

/// Lowers an elaborated design to the IR. Runs once per compile. With a
/// memo (and the compile's `hold`), payloads lowered by an earlier compile
/// of the session are reused; only module-relative indices are resolved
/// per compile.
[[nodiscard]] Module lower(const elab::Design& design,
                           LowerMemo* memo = nullptr,
                           support::CacheHold* hold = nullptr);

/// Emits the IR as deterministic Tydi-IR text (just another consumer of the
/// module — the backends do not depend on this form).
[[nodiscard]] std::string emit(const Module& module);

}  // namespace tydi::ir
