// Event-driven simulator for elaborated Tydi designs (Sec. V).
//
// The hierarchy is flattened: external implementations become leaf
// *components* and connection chains collapse into *channels* (one-deep
// handshake registers). Components carry behaviour — either a built-in C++
// model keyed by the stdlib template family (mirroring the hard-coded RTL
// generator) or an interpreted `sim { ... }` block from the source.
//
// Semantics:
//  - send(port, packet): if the channel register is free the packet is
//    delivered to the sink after the channel latency (one clock period of
//    the port's clock domain); otherwise it queues in the port outbox and
//    the waiting time is accounted as *blocked* time (the paper's
//    "waiting time of all output ports (blocked by handshaking)").
//  - the sink's behaviour decides when to ack; ack frees the register and
//    pulls the next packet from the source outbox.
//  - bottleneck analysis = channels ranked by blocked time (Sec. V-B);
//  - deadlock detection = wait-for cycle search when the event queue runs
//    dry while packets are still in flight.
//
// Architecture (see src/sim/README.md): the design flattens once into a
// `SimGraph` of dense-integer components and channels; a `Kernel`
// (src/sim/kernel.hpp) runs the deliver/timer/poke/stimulus event loop over
// a subset of that graph. The sharded runtime (src/sim/shard/) partitions
// the graph and drives K kernels in conservative time-window rounds: shard
// 0 on the calling thread, the others on K - 1 threads. Event ordering is a
// canonical (time, kind, channel/component) key — independent of insertion
// interleaving — so every shard count produces byte-identical `SimResult`s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/elab/design.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/ring.hpp"
#include "src/sim/trace.hpp"
#include "src/support/diagnostic.hpp"
#include "src/support/intern.hpp"
#include "src/support/phase_timings.hpp"
#include "src/support/status.hpp"

namespace tydi::sim {

using support::Symbol;

/// One data packet travelling a channel. `value` is the abstract payload
/// (the simulator models timing, not bit-level data); `last` marks the end
/// of a dimension-1 sequence for aggregating components.
struct Packet {
  std::int64_t value = 0;
  bool last = false;
};

/// Stimulus for one top-level input port.
struct Stimulus {
  std::string port;
  /// (injection time ns, packet). Packets enter the port's channel in order;
  /// later packets queue behind un-acked earlier ones.
  std::vector<std::pair<double, Packet>> packets;
};

/// Cross-shard acknowledgement protocol of the sharded engine.
enum class AckMode : std::uint8_t {
  /// Synchronous acks: a sink's ack frees the source register at the same
  /// timestamp, reproduced by same-time fixpoint rounds. Byte-identical
  /// results for any shard count — the default contract.
  kExact = 0,
  /// Credit-based batching: every cross-shard channel gets a
  /// `credit_window`-deep send budget at partition time; sinks return acks
  /// in one batch per round instead of per timestamp, and the
  /// runtime drops the zero-lookahead ack ready-path entirely. Ack (and
  /// therefore backpressure-release) timestamps shift by up to one window,
  /// so results are *functionally* equivalent to exact mode (same packets,
  /// same per-channel orders, same transitions) but not byte-identical —
  /// see sim::results_functionally_equivalent.
  kCredit = 1,
};

struct SimOptions {
  double max_time_ns = 1.0e6;
  /// Clock-domain name -> period ns ("the mapping from the clock-domain to
  /// physical frequency", Sec. V-B). Unlisted domains use default_period_ns.
  std::map<std::string, double> clock_period_ns;
  double default_period_ns = 10.0;
  std::vector<Stimulus> stimuli;
  /// Per-component model parameters keyed by flattened instance path, e.g.
  /// {"pu_inst_3", {{"latency_cycles", 8}}}.
  std::map<std::string, std::map<std::string, double>> model_params;
  /// Record the full packet trace (needed for testbench generation).
  bool record_trace = true;
  /// Number of simulation shards. The flattened graph is partitioned into
  /// this many shards (clamped to the component count), run in conservative
  /// time-window rounds (src/sim/shard/): shard 0 on the calling thread,
  /// each other shard on a thread of its own. Results are byte-identical for
  /// any shard count.
  int shards = 1;
  /// Partitioning strategy: true = balanced BFS partition that minimizes
  /// cross-shard channels; false = naive contiguous block partition by
  /// component index (useful to stress the cross-shard protocol in tests).
  bool auto_partition = true;
  /// Acknowledgement protocol of cut channels. A run without cut channels
  /// (one shard, or a partition that cuts nothing) is the same in both
  /// modes.
  AckMode ack_mode = AckMode::kExact;
  /// Send credits per cross-shard channel in AckMode::kCredit (clamped to
  /// >= 1). Larger windows amortize more acks per round at the
  /// price of longer backpressure-release latency.
  int credit_window = 8;
  /// Measured per-component activity weights for the partitioner (indexed
  /// by flattened component index, e.g. a prior SimResult's
  /// component_events). Empty = the degree heuristic. Exposed on the CLI as
  /// `tydic --sim-profile` (profiling pre-run).
  std::vector<double> component_weights;
  // --- Guard rails (src/sim/guard.hpp, src/sim/fault.hpp) ----------------
  /// Deterministic fault-injection plan for the round loop (disabled by
  /// default; see FaultPlan). The barrier-arrive and round-stall sites fire
  /// at any shard count; the mailbox and credit sites need cut channels.
  /// CLI: --sim-fault-seed / --sim-fault-plan.
  FaultPlan fault;
  /// No-progress watchdog: abort the run when no event has been processed
  /// anywhere in the run for this many wall-clock ms. <= 0 disables.
  /// Catches cross-shard livelocks (e.g. lost/withheld acks) that the
  /// deadlock detector cannot see because the queues never quiesce. Like
  /// the budgets below, checked by the shard threads (see RunGuard).
  double watchdog_timeout_ms = 10000.0;
  /// Total wall-clock budget in ms; the run aborts with partial results
  /// when exceeded. <= 0 disables.
  double wall_clock_budget_ms = 0.0;
  /// Global processed-event budget; the run aborts with partial results
  /// when exceeded. 0 disables.
  std::uint64_t max_events = 0;
  /// Resident-set budget in MiB (getrusage high-water mark); the run aborts
  /// when exceeded. 0 disables.
  std::uint64_t rss_budget_mb = 0;
};

struct ChannelStats {
  std::string name;          ///< "srcpath.port -> dstpath.port"
  std::size_t packets = 0;   ///< delivered packets
  double blocked_ns = 0.0;   ///< total outbox waiting time
  double first_delivery_ns = 0.0;
  double last_delivery_ns = 0.0;
  /// Top streamlet port name when this channel touches the top boundary
  /// (""
  /// otherwise). Boundary-ness is a channel property, so the trace stores
  /// it once per channel instead of once per event.
  std::string top_port;
  bool top_input = false;   ///< driven by a top-level input port
  bool top_output = false;  ///< feeds a top-level output port
};

/// One traced transfer, materialized from the columnar trace on demand
/// (testbench emission, debugging — not the storage format; see
/// SimResult::trace and sim/trace.hpp).
struct TraceEvent {
  double time_ns = 0.0;
  std::string channel;  ///< same format as ChannelStats::name
  /// Index into SimResult::channels (the `channel` string is derived from
  /// it).
  std::int32_t channel_index = -1;
  Packet packet;
  bool is_top_input = false;
  bool is_top_output = false;
  std::string top_port;  ///< set for top-level boundary transfers
};

/// One state-variable transition of a sim-block component (Sec. V-B "record
/// the state-transition table of each implementation"), materialized from
/// the columnar StateTransitionTable on demand (reports, debugging — not
/// the storage format).
struct StateTransition {
  double time_ns = 0.0;
  std::string component;
  std::string variable;
  std::string from;
  std::string to;
};

/// One recorded transition: the POD row kernels append and the result
/// stores. `variable`, `from` and `to` are interned symbols; `component` is
/// the flattened component index.
struct TransitionRow {
  double time_ns = 0.0;
  std::int32_t component = -1;
  Symbol variable = support::kNoSymbol;
  Symbol from = support::kNoSymbol;
  Symbol to = support::kNoSymbol;
};

/// The state-transition table as columns of symbols: one TransitionRow per
/// transition in canonical (time, component) order, plus the path of every
/// component that has rows. Recording and merging never build a string;
/// operator[] and iteration materialize a StateTransition per row, the way
/// SimResult::trace_event(i) does for the trace. Plain vector members, so
/// a moved-from table is empty.
class StateTransitionTable {
 public:
  /// By-value iterator: dereferencing materializes the row.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = StateTransition;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = StateTransition;

    Iterator() = default;
    Iterator(const StateTransitionTable* table, std::size_t index)
        : table_(table), index_(index) {}
    StateTransition operator*() const { return (*table_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const StateTransitionTable* table_ = nullptr;
    std::size_t index_ = 0;
  };

  StateTransitionTable() = default;
  /// `rows` must be in canonical order; `paths` is indexed by component
  /// and needs an entry for every component the rows name.
  StateTransitionTable(std::vector<TransitionRow> rows,
                       std::vector<std::string> paths)
      : rows_(std::move(rows)), paths_(std::move(paths)) {}

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  [[nodiscard]] const TransitionRow& row(std::size_t i) const {
    return rows_[i];
  }
  [[nodiscard]] const std::string& component_path(std::int32_t component)
      const {
    return paths_[static_cast<std::size_t>(component)];
  }
  /// Materializes row `i` with the component path and symbol names.
  [[nodiscard]] StateTransition operator[](std::size_t i) const;
  [[nodiscard]] Iterator begin() const { return Iterator(this, 0); }
  [[nodiscard]] Iterator end() const { return Iterator(this, size()); }

 private:
  std::vector<TransitionRow> rows_;
  std::vector<std::string> paths_;
};

/// Per-shard end-of-run snapshot: what each shard was doing when the run
/// ended — the abort point for watchdog/budget aborts, the quiesced
/// end-state for healthy runs. The fields are read after every worker
/// thread has joined, so no live state is touched.
struct ShardForensics {
  int shard = 0;
  /// Time of the shard's next pending event (kInfiniteTime when its queue
  /// is idle) — the window the round loop was trying to open.
  double window_time_ns = 0.0;
  /// Timestamp of the last event this shard dispatched.
  double last_event_time_ns = 0.0;
  std::uint64_t events_processed = 0;
  /// Events still queued in the shard's scheduler.
  std::size_t queue_depth = 0;
  /// Cross-shard messages parked in this shard's inbound mailbox cells.
  std::size_t mailbox_depth = 0;
  /// Remaining send credits over this shard's source-side cut channels
  /// (credit mode).
  std::int64_t credit_balance = 0;
  /// Delivered-but-unacked packets over this shard's sink-side cut
  /// channels (credit mode).
  std::int64_t unacked = 0;
  /// Consumed acks batched but not yet flushed to their source shards —
  /// nonzero here is the signature of a withheld-ack hang.
  std::int64_t pending_ack_batches = 0;
  /// Rounds this shard ran, by kind (src/sim/shard/README.md): window
  /// rounds, timestep rounds, and the fixpoint steps that repeat a timestep
  /// round's timestamp. A run's rounds are these two kinds plus the
  /// terminal round; its exchanges are the seed exchange plus one per
  /// round of either kind and one per fixpoint step.
  std::uint64_t window_rounds = 0;
  std::uint64_t timestep_rounds = 0;
  std::uint64_t fixpoint_steps = 0;
  /// Step exchanges this shard entered (2 in a 1-shard run) and the wall
  /// time it spent waiting in them for a peer that had not yet published
  /// (0 for an exchange that did not wait): the shard's synchronization
  /// cost, next to the work in `events_processed`.
  std::uint64_t exchanges = 0;
  double barrier_wait_ms = 0.0;

  [[nodiscard]] std::string summary() const;
};

struct SimResult {
  double end_time_ns = 0.0;
  /// Events popped from the scheduler queue (simulation work metric).
  std::uint64_t events_processed = 0;
  bool deadlock = false;
  /// The run did not complete: the watchdog detected no progress or a
  /// budget (events / wall-clock / RSS) was exceeded. All other fields hold
  /// the partial results up to the abort point.
  bool aborted = false;
  /// Machine-readable abort trigger ("watchdog-no-progress",
  /// "max-events-budget", "wall-clock-budget", "rss-budget").
  std::string abort_reason;
  /// One end-of-run snapshot per shard — populated on *every* run (the
  /// watchdog abort path and the healthy path alike), so successful runs
  /// expose queue/mailbox/credit end-state too. Aggregates are mirrored
  /// into the `tydi.sim.last.*` registry gauges; `summary()` prints the
  /// per-shard detail only for aborted runs.
  std::vector<ShardForensics> shard_forensics;
  /// Non-empty on deadlock when a wait-for cycle was found: the component
  /// paths forming the cycle.
  std::vector<std::string> deadlock_cycle;
  /// Components/channels still blocked at stall time (deadlock diagnosis).
  std::vector<std::string> blocked_report;
  std::vector<ChannelStats> channels;
  /// Output packets observed at each top-level output port.
  std::map<std::string, std::vector<std::pair<double, Packet>>> top_outputs;
  /// Columnar packet trace in canonical (time, channel) order; per-channel
  /// names and boundary info live in `channels`. Use trace_event(i) for a
  /// materialized per-event view.
  TraceBuffer trace;
  /// Columnar state-transition table in canonical (time, component) order.
  StateTransitionTable state_transitions;
  /// Events dispatched per flattened component index (delivers at the sink,
  /// timers, pokes). Feed back into SimOptions::component_weights to
  /// profile-weight the partitioner.
  std::vector<std::uint64_t> component_events;
  /// Wall clock per sim stage in execution order: build_graph (Engine::run
  /// only), partition, process (seeding plus the event loop or the shard
  /// round loop), merge (merge_results). Mirrored into the
  /// `tydi.sim.phase_ms.*` histograms.
  support::PhaseTimings phase_ms;
  /// Non-empty when the design could not be flattened into a sim graph (no
  /// top, an `@ external` top, more operands than an event key holds):
  /// nothing ran, and the diagnostic engine holds the same error.
  std::string setup_error;

  /// Materializes trace entry `i` with the channel name / boundary fields
  /// resolved through `channels`.
  [[nodiscard]] TraceEvent trace_event(std::size_t i) const;

  /// Channel with the largest blocked time (the streaming bottleneck), or
  /// nullptr if nothing blocked. Ties break towards the lexicographically
  /// smaller channel name so the answer is deterministic.
  [[nodiscard]] const ChannelStats* bottleneck() const;
  /// Packets per nanosecond observed on a top output port.
  [[nodiscard]] double throughput(const std::string& top_port) const;
  [[nodiscard]] std::string summary() const;
  /// Classification for callers and the CLI exit code: kInvalidArgument
  /// when the design could not be simulated, kAborted when the guard
  /// stopped the run, kDeadlock on a wait-for cycle, kOk otherwise.
  [[nodiscard]] support::Status status() const;
};

class Behavior;  // behavior.hpp

/// Flattened leaf component. Ports are addressed by their index in the
/// owning streamlet's port list.
struct Component {
  std::string path;            ///< dotted instance path from the top
  const elab::Impl* impl = nullptr;
  const elab::Streamlet* streamlet = nullptr;
  std::unique_ptr<Behavior> behavior;
  double clock_period_ns = 10.0;  ///< resolved from the clock-domain map
  /// Packets delivered but not yet consumed by the behaviour, per port
  /// index (entries for output ports stay empty).
  std::vector<SlabRing<Packet>> inbox;
  /// Port index -> channel index this port feeds (-1 = unconnected).
  std::vector<std::int32_t> out_channel;
  /// Port index -> channel index feeding this port (-1 = unconnected).
  std::vector<std::int32_t> in_channel;

  // Out-of-line special members: Behavior is incomplete here.
  Component();
  Component(Component&&) noexcept;
  Component& operator=(Component&&) noexcept;
  ~Component();
};

/// (component, port-index) pair. component == -1 is the environment (top
/// boundary), in which case `port` indexes the top streamlet's ports.
struct ChannelEndpoint {
  std::int32_t component = -1;
  std::int32_t port = -1;
};

/// A packet waiting in a channel outbox, stamped with its enqueue time so
/// the drain can charge the blocked interval.
struct QueuedPacket {
  double enqueue_ns = 0.0;
  Packet packet;
};

struct Channel {
  ChannelEndpoint src;
  ChannelEndpoint dst;
  double latency_ns = 10.0;
  bool occupied = false;
  /// Sink-side mirror of `occupied` for cross-shard channels: set by the
  /// sink shard at delivery, cleared on ack. Owned by the sink shard, so
  /// the ack sanity check never reads source-owned state across threads.
  bool delivered_pending = false;
  Packet in_flight;
  /// Shard owning the register + outbox (the source side). 0 in
  /// single-shard runs.
  std::int32_t src_shard = 0;
  /// Shard running the sink component's behaviour. 0 in single-shard runs.
  std::int32_t dst_shard = 0;
  // --- Credit protocol state (AckMode::kCredit, cut channels only) -------
  /// Credit protocol engaged for this channel. Set once at partition time,
  /// immutable while kernels run — both endpoints' threads read it, so it
  /// must not alias mutable per-side state (`credits` is source-owned and
  /// changes mid-round).
  bool credit = false;
  /// Source-owned remaining send credits (meaningful when `credit`).
  /// Negotiated to SimOptions::credit_window at partition time.
  std::int32_t credits = 0;
  /// Sink-owned delivered-but-unacked packet count (the credit-mode
  /// analogue of `delivered_pending`).
  std::int32_t unacked = 0;
  /// Sink-owned acks consumed since the last window boundary; flushed to
  /// the source shard as one batched message per round.
  std::int32_t ack_batch = 0;
  /// Sink-owned FIFO of packets that crossed the shard boundary but have
  /// not reached their deliver event yet (credit mode keeps up to
  /// `credit_window` packets in flight, so the one-deep `in_flight`
  /// register cannot carry them).
  SlabRing<Packet> arrivals;
  SlabRing<QueuedPacket> outbox;
  ChannelStats stats;

  [[nodiscard]] bool cross_shard() const { return src_shard != dst_shard; }
  [[nodiscard]] bool credit_mode() const { return credit; }
};

/// Lazy stimulus injection cursor: only the next packet of each stimulus
/// stream lives in the event queue. Cursor indices are global (options
/// order) so the canonical event key is identical for any shard count.
struct StimulusCursor {
  std::int32_t channel = -1;
  const Stimulus* stimulus = nullptr;
  std::size_t next = 0;
};

/// The flattened design: what the event kernels run over. Built once per
/// `Engine::run`. In sharded runs the component/channel tables are shared
/// between threads; each kernel only touches the state it owns (its
/// components' inboxes and behaviours, its channels' registers/outboxes).
struct SimGraph {
  const elab::Design* design = nullptr;
  const elab::Streamlet* top_streamlet = nullptr;
  std::vector<Component> components;
  std::vector<Channel> channels;
  /// Top streamlet port index -> channel driven by that (input) port.
  std::vector<std::int32_t> top_src_channel;
  /// Packets observed per top streamlet port index (folded into
  /// SimResult::top_outputs after the run). Each port is fed by exactly one
  /// channel, so shards append to disjoint entries.
  std::vector<std::vector<std::pair<double, Packet>>> top_out_packets;
  std::vector<StimulusCursor> stimulus_cursors;
  double default_period_ns = 10.0;
  /// Component index -> shard (all zero until partitioned).
  std::vector<std::int32_t> component_shard;
  int shard_count = 1;

  [[nodiscard]] std::string endpoint_name(const ChannelEndpoint& ep) const;
  [[nodiscard]] std::string channel_display_name(const Channel& c) const;
};

inline constexpr double kInfiniteTime = std::numeric_limits<double>::infinity();

/// Flattens the design's top implementation, resolves clock periods,
/// attaches behaviours, and builds the stimulus cursor table. Returns false
/// on fatal errors (no/structural-less top, or more components, channels or
/// stimulus streams than the event key holds; see EventQueue).
[[nodiscard]] bool build_sim_graph(const elab::Design& design,
                                   const SimOptions& options,
                                   support::DiagnosticEngine& diags,
                                   SimGraph& graph);

/// Generic workload: one stimulus per top-level input port with `packets`
/// packets at `interval_ns` spacing (values 0..n-1, `last` on the final
/// packet). Shared by `tydic --sim`, the scaling bench and the shard
/// determinism tests so every harness drives the same traffic shape.
[[nodiscard]] std::vector<Stimulus> generic_stimuli(
    const elab::Design& design, int packets, double interval_ns = 10.0);

class Engine {
 public:
  Engine(const elab::Design& design, support::DiagnosticEngine& diags);

  /// Flattens and simulates the design's top implementation through the
  /// sharded runtime (src/sim/shard/) at `options.shards`; the result is
  /// byte-identical for any shard count.
  [[nodiscard]] SimResult run(const SimOptions& options);

 private:
  const elab::Design& design_;
  support::DiagnosticEngine& diags_;
};

}  // namespace tydi::sim
