// Sugaring pass (Sec. IV-D, Fig. 4): automatic duplicator and voider
// template insertion.
//
// Inside an implementation, every data *source* (a self input port or an
// instance output port) must feed exactly one sink under the Tydi handshake.
// Software-style designs naturally fan out (use a value twice) or drop
// values (ignore a generated column); sugaring restores the one-to-one
// discipline by inserting standard-library components:
//
//  - fan-out  > 1: a `duplicator` with the inferred stream type and channel
//    count is inserted between the source and its sinks;
//  - fan-out == 0: a `voider` (always-ready sink) consumes the stream.
//
// The inserted impls are *external* standard-library template instances,
// materialized directly into the Design (this pass acts as the hard-coded
// generator of Sec. IV-C for these two templates).
//
// Sugaring one impl is a pure function of its payload, its streamlet and
// its instances' impls and streamlets, so a session memoizes it per impl
// (SugarMemo, keyed on those payloads' identities): a replay inserts the
// same voider/duplicator payloads and re-emits the same notes, and the
// rewritten impl keeps one identity across compiles for the lowering and
// VHDL caches downstream.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/elab/design.hpp"
#include "src/support/diagnostic.hpp"
#include "src/support/identity_cache.hpp"

namespace tydi::sugar {

struct SugarOptions {
  bool insert_duplicators = true;
  bool insert_voiders = true;
};

struct SugarStats {
  std::size_t duplicators_inserted = 0;
  std::size_t voiders_inserted = 0;
  /// Total extra output channels created by duplicators (sum of fan-outs).
  std::size_t duplicated_channels = 0;

  [[nodiscard]] std::string summary() const;
  SugarStats& operator+=(const SugarStats& other);
};

/// A materialized voider or duplicator: its streamlet and impl payloads,
/// plus the full display of the stream type they were built for.
struct StdlibInstance {
  std::shared_ptr<const elab::Streamlet> streamlet;
  std::shared_ptr<const elab::Impl> impl;
  std::string type_display;
};

/// The sugaring of one impl, replayable into any design that resolves the
/// same payloads.
struct SugarEntry {
  /// The rewritten impl; null when the impl needed no change.
  std::shared_ptr<const elab::Impl> sugared;
  /// Every voider/duplicator the impl uses, in materialization order; a
  /// replay inserts those the design lacks.
  std::vector<std::shared_ptr<const StdlibInstance>> materialized;
  std::vector<support::Diagnostic> notes;
  SugarStats stats;
};

/// Session sugaring cache. `impls` holds one entry per impl payload (keyed
/// on the payloads sugaring reads). `stdlib` shares materialized voiders
/// and duplicators across entries by mangled name, checked against the
/// type's full display — the dedup key a single design already uses — so
/// they keep one identity across compiles even when the impl that needs
/// them is re-elaborated (an edited top).
struct SugarMemo {
  support::IdentityCache<SugarEntry> impls;
  support::IdentityCache<StdlibInstance> stdlib;
};

/// Applies sugaring to every non-external implementation in `design`.
/// Unknown endpoints are skipped (the DRC reports them). With `memo` (and
/// the compile's `hold`), each impl's sugaring is looked up / published by
/// payload identity.
SugarStats apply_sugaring(elab::Design& design, const SugarOptions& options,
                          support::DiagnosticEngine& diags,
                          SugarMemo* memo = nullptr,
                          support::CacheHold* hold = nullptr);

/// Mangled-name token for a logical type, used when materializing stdlib
/// instances for that type (duplicators, voiders).
[[nodiscard]] std::string type_token(const types::TypeRef& type);

}  // namespace tydi::sugar
