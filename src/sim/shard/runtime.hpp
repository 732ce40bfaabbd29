// Sharded simulation runtime: K kernels on K threads under conservative
// time-window rounds, synchronized by one exchange per protocol step. The
// protocol is in src/sim/shard/README.md; the exchange's race-freedom
// argument is on StepExchange in runtime.cpp.
//
// Determinism: every control decision derives from exchange-reduced values
// all threads compute identically, and kernels pop events in the canonical
// interleaving-independent order, so a run is byte-identical to the
// single-queue engine at any shard count.
#pragma once

#include "src/sim/engine.hpp"
#include "src/support/diagnostic.hpp"

namespace tydi::sim::shard {

/// Partitions `graph` per `options` (shards, auto_partition), runs the
/// sharded simulation, and merges the per-shard buffers into a SimResult
/// byte-identical to the single-queue engine's. Falls back to the inline
/// single-kernel loop when the effective shard count is 1.
[[nodiscard]] SimResult run_sharded(SimGraph& graph, const SimOptions& options,
                                    support::DiagnosticEngine& diags);

}  // namespace tydi::sim::shard
