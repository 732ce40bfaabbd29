// Tydi-IR -> VHDL backend.
//
// In the paper this is a separate project; here it is implemented in full so
// Table IV can be regenerated. The backend consumes the lowered ir::Module
// (never elab::Design): ports arrive with their physical stream layouts
// precomputed at lowering, connection endpoints are pre-resolved dense
// indices, and component dedup uses a flat per-impl bitmap instead of a
// string-keyed map. For every implementation we emit one
// entity/architecture pair:
//
//  - The entity expands each logical port into its physical stream signals
//    (valid/ready/data/last/stai/endi/strb/user per src/types/physical.hpp),
//    plus the standard clk/rst pair.
//  - Structural architectures declare one signal bundle per instance port,
//    instantiate children via component declarations, and wire connections
//    as continuous assignments (forward signals source->sink, ready
//    sink->source).
//  - External standard-library implementations get behavioural bodies from
//    the hard-coded RTL generator (rtl_lib, Sec. IV-C); other externals are
//    emitted as black boxes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/ir/ir.hpp"
#include "src/support/diagnostic.hpp"

namespace tydi::vhdl {

struct VhdlOptions {
  /// Library header emitted at the top of the file.
  bool emit_header = true;
  /// Emit behavioural bodies for known stdlib externals (otherwise black
  /// boxes only).
  bool generate_stdlib_rtl = true;
};

/// Session emission cache. A port's emission products — its entity port
/// lines and per-net name/type fragments — are pure functions of the port's
/// name, logical type identity and direction; a driver::CompileSession
/// hands warm compiles the same TypeRefs, so the emitter reuses the strings
/// built by earlier compiles instead of rebuilding them per module. Entries
/// pin their type weakly: one lives while something else holds its type.
/// Opaque: the payload type lives in vhdl.cpp. Owned by the session;
/// thread-safe (shared-lock reads, exclusive publishes) so concurrent
/// compiles emit through one cache.
class EmitSession {
 public:
  EmitSession();
  ~EmitSession();
  EmitSession(const EmitSession&) = delete;
  EmitSession& operator=(const EmitSession&) = delete;

  void clear();
  /// Drops every entry whose type has expired.
  void sweep();
  /// Entries whose type is still alive, and those types.
  [[nodiscard]] std::size_t live_entries() const;
  [[nodiscard]] std::vector<const types::LogicalType*> live_types() const;

  struct Impl;
  [[nodiscard]] Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Emits the whole lowered design as one VHDL file (deterministic order:
/// module table order, children before parents). `session` (optional)
/// reuses per-port emission strings across compiles of a session.
[[nodiscard]] std::string emit(const ir::Module& module,
                               const VhdlOptions& options,
                               support::DiagnosticEngine& diags,
                               EmitSession* session = nullptr);

/// VHDL-safe identifier for design names (lowercase, no '__' runs).
[[nodiscard]] std::string vhdl_name(std::string_view name);

}  // namespace tydi::vhdl
