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
//
// The file is written into one code writer in impl table order: the header,
// then each impl's block — an external impl's cached block copied in, a
// structural architecture written in place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/ir/ir.hpp"
#include "src/support/diagnostic.hpp"
#include "src/support/identity_cache.hpp"

namespace tydi::vhdl {

struct VhdlOptions {
  /// Library header emitted at the top of the file.
  bool emit_header = true;
  /// Emit behavioural bodies for known stdlib externals (otherwise black
  /// boxes only).
  bool generate_stdlib_rtl = true;
};

/// Emission products of one streamlet (entity/component port lists, per-net
/// name fragments), the rendered lines of one instance and the rendered
/// block of one external impl; defined in vhdl.cpp.
struct StreamletEmit;
struct InstanceBlock;
struct RenderedImpl;

/// Session emission cache, keyed on the identities of the payloads an
/// entry reads (carried in the IR as `origin`):
///  - an external impl's block — library header, entity and behavioural or
///    black-box architecture — on its impl, its streamlet and the options;
///  - a streamlet's emission products (per-net names, the entity and
///    component port lists) on the streamlet;
///  - an instance's lines in its parent's architecture (signal bundle and
///    instantiation) on the instance name and the child impl and streamlet.
/// A structural architecture (an edited top) is assembled from these parts
/// on every compile. Entries live while a retained compile footprint holds
/// them (src/support/identity_cache.hpp).
struct EmitMemo {
  support::IdentityCache<StreamletEmit> streamlets;
  support::IdentityCache<InstanceBlock> instances;
  support::IdentityCache<RenderedImpl> impls;
};

/// Emits the whole lowered design as one VHDL file (deterministic order:
/// module table order, children before parents). With `memo` (and the
/// compile's `hold`), blocks rendered by an earlier compile of the session
/// are reused; output and diagnostics are byte-identical either way.
[[nodiscard]] std::string emit(const ir::Module& module,
                               const VhdlOptions& options,
                               support::DiagnosticEngine& diags,
                               EmitMemo* memo = nullptr,
                               support::CacheHold* hold = nullptr);

/// VHDL-safe identifier for design names (lowercase, no '__' runs).
[[nodiscard]] std::string vhdl_name(std::string_view name);

}  // namespace tydi::vhdl
