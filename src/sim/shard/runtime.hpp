// Sharded simulation runtime: K kernels under conservative time-window
// rounds, synchronized by one exchange per protocol step. Shard 0 runs on
// the calling thread and the others on K - 1 threads, so a 1-shard run
// starts none. The protocol is in src/sim/shard/README.md; the exchange's
// race-freedom argument is on StepExchange in runtime.cpp.
//
// Determinism: every control decision derives from exchange-reduced values
// all threads compute identically, and kernels pop events in the canonical
// interleaving-independent order, so a run is byte-identical at any shard
// count.
#pragma once

#include "src/sim/engine.hpp"
#include "src/support/diagnostic.hpp"

namespace tydi::sim::shard {

/// Partitions `graph` per `options` (shards, auto_partition), runs the
/// round loop on every shard, and merges the per-shard buffers into a
/// SimResult that is byte-identical for any shard count. With one shard
/// nothing is cut, so the loop is one round that processes every event and
/// the terminal round, with no peer to wait on.
[[nodiscard]] SimResult run_sharded(SimGraph& graph, const SimOptions& options,
                                    support::DiagnosticEngine& diags);

}  // namespace tydi::sim::shard
