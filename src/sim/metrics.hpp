// Analysis reports over simulation results (Sec. V-B): bottleneck ranking
// and the state-transition table.
#pragma once

#include <string>
#include <vector>

#include "src/sim/engine.hpp"

namespace tydi::sim {

/// Channels ranked by blocked time, worst first ("investigate the output
/// ports with the longest blockage to find the bottleneck component").
[[nodiscard]] std::vector<ChannelStats> rank_bottlenecks(
    const SimResult& result);

/// Plain-text bottleneck report (top `limit` channels).
[[nodiscard]] std::string render_bottleneck_report(const SimResult& result,
                                                   std::size_t limit = 10);

/// Plain-text state-transition table grouped by component.
[[nodiscard]] std::string render_state_table(const SimResult& result);

/// Exact (bit-for-bit, including double timestamps) equality of two
/// simulation results. The sharded engine's determinism contract: results
/// must be identical for any shard count. When `why` is non-null the first
/// difference is described there.
[[nodiscard]] bool results_identical(const SimResult& a, const SimResult& b,
                                     std::string* why = nullptr);

/// The credit-mode contract (SimOptions::ack_mode == AckMode::kCredit):
/// batched acknowledgements shift ack/backpressure timestamps by up to one
/// credit window, so timing-carrying fields (blocked_ns, event times,
/// events_processed) legitimately differ from the exact engine — but the
/// *functional* outcome must not. Checks, ignoring every timestamp:
///  - deadlock flag;
///  - per-channel delivered packet counts (by channel name);
///  - per-channel traced (value, last) sequences, when both traces exist;
///  - per-port top output (value, last) sequences;
///  - per-component ordered state-transition sequences (variable/from/to).
[[nodiscard]] bool results_functionally_equivalent(const SimResult& a,
                                                   const SimResult& b,
                                                   std::string* why = nullptr);

}  // namespace tydi::sim
