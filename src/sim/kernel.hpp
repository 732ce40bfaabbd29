// The shard-runnable simulation kernel.
//
// A `Kernel` owns the event loop for one shard of a `SimGraph`: an
// `EventQueue` of deliver/timer/poke/stimulus events plus per-shard result
// buffers (trace, state transitions, deduplicated warning sites). The
// sharded runtime (src/sim/shard/) drives K kernels, K = 1 included, in
// lockstep rounds and routes cross-shard channel traffic through a
// `CrossRouter`.
//
// Determinism contract: events are ordered by the canonical key
// (time, kind, a, b) — kind before operands, deliver < timer < poke <
// stimulus < remote-ack — which is *independent of insertion order*. Any
// execution that feeds a kernel the same event set therefore pops it in the
// same order, which is what makes the K-shard run byte-identical to the
// 1-shard run: cross-shard messages merely move event insertion to a step
// exchange, they cannot reorder the canonical key.
//
// The queue is a 4-ary min-heap of two-word nodes that encode that key as
// two unsigned integers (see EventQueue), so a compare is two integer
// compares. Per-kernel time never decreases: push_event clamps a negative
// or NaN delay to zero (warning once), and build_sim_graph clamps a
// negative channel latency. That lets merge_results order each kernel's
// time-ordered rows with a linear merge.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/engine.hpp"

namespace tydi::sim {

class RunGuard;       // guard.hpp
class FaultInjector;  // fault.hpp

/// Scheduler event kinds, in canonical same-time execution order.
enum class EventKind : std::uint8_t {
  kDeliver = 0,   ///< a = channel index
  kTimer = 1,     ///< a = component, b = behaviour-defined token
  kPoke = 2,      ///< a = component
  kStimulus = 3,  ///< a = global stimulus cursor index
  kRemoteAck = 4, ///< a = channel index (cut channels only; not counted in
                  ///< events_processed — a shard-local channel performs
                  ///< the same work nested inside the sink's ack call)
};

// POD scheduler event dispatched by a switch. No closures, no allocation
// per event, no insertion-order sequence: ties at equal times break on the
// canonical (kind, a, b) key.
struct Event {
  double time = 0.0;
  std::int32_t a = -1;
  std::int32_t b = -1;
  EventKind kind = EventKind::kDeliver;
};

/// Min-heap of events in the canonical (time, kind, a, b) order. A node is
/// two words, compared as unsigned integers:
///  - an order-preserving image of the time (-0.0 normalised to +0.0; the
///    sign-flip trick keeps negative times and +inf in order);
///  - a tie word `kind(3) | a(29) | b(32)`, `b` with its sign bit flipped so
///    every int32 keeps its order.
/// `a` (a channel, component or stimulus-cursor index) must lie in
/// [0, kMaxOperand]; build_sim_graph rejects graphs that could exceed it.
/// 4-ary: half the depth of a binary heap, and a node's children sit next
/// to each other.
class EventQueue {
 public:
  static constexpr std::int64_t kMaxOperand = (std::int64_t{1} << 29) - 1;

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Time of the head event; the queue must not be empty.
  [[nodiscard]] double top_time() const;
  void push(const Event& ev);
  /// Removes and returns the head event; the queue must not be empty.
  Event pop();

 private:
  struct Node {
    std::uint64_t time;
    std::uint64_t tie;
  };
  static bool before(const Node& x, const Node& y) {
    return x.time < y.time || (x.time == y.time && x.tie < y.tie);
  }
  std::vector<Node> heap_;
};

/// Rejects a graph whose component, channel or stimulus-cursor count does
/// not fit the event key's `a` field (kInvalidArgument).
[[nodiscard]] support::Status check_event_operand_counts(
    std::size_t components, std::size_t channels,
    std::size_t stimulus_cursors);

/// Cross-shard message fabric. The sharded runtime implements this over
/// per-shard mailboxes.
class CrossRouter {
 public:
  virtual ~CrossRouter() = default;
  /// A packet of `channel` reaches the sink shard at `time`. In exact mode
  /// the payload also sits in the (quiescent) channel register; in credit
  /// mode up to `credit_window` packets are in flight, so the payload rides
  /// in the message and queues in the sink-owned `Channel::arrivals` ring.
  virtual void post_deliver(int to_shard, double time, std::int32_t channel,
                            Packet packet) = 0;
  /// The sink acknowledged `count` packets of `channel` at `time`; the
  /// source shard replenishes the register/credits, notifies the source
  /// behaviour and drains the outbox. Exact mode always posts count 1 at
  /// the consumption timestamp; credit mode posts one batch per round
  /// stamped at the window boundary.
  virtual void post_ack(int to_shard, double time, std::int32_t channel,
                        std::int32_t count) = 0;
};

class Kernel {
 public:
  /// `shard` selects the owned slice of `graph` (graph.component_shard);
  /// `router` may be null only when none of the shard's channels is cut.
  /// The kernel never calls the diagnostic engine: its warnings wait for
  /// merge_results.
  Kernel(SimGraph& graph, const SimOptions& options, int shard,
         CrossRouter* router);

  // --- API for Behavior models -------------------------------------------
  // Ports are addressed by index into the component's streamlet port list;
  // negative indices are tolerated (warn-and-drop) so behaviours built from
  // unresolvable names degrade gracefully.

  [[nodiscard]] double now() const { return now_; }
  /// Schedules Behavior::on_timer(self=component, token) after `delay_ns`.
  void schedule_timer(double delay_ns, int component, std::int32_t token);
  /// Schedules a poke (re-evaluation of firing conditions) for `component`.
  void schedule_poke(double delay_ns, int component);
  /// Sends on an output port of `component`. Queues when the channel is
  /// occupied.
  void send(int component, int port, Packet packet);
  /// Acknowledges the packet pending on an input port of `component`.
  void ack(int component, int port);
  /// True if the channel out of (component, port) can accept immediately.
  [[nodiscard]] bool can_send(int component, int port) const;
  [[nodiscard]] Component& component(int index) {
    return graph_.components[index];
  }
  [[nodiscard]] const elab::Design& design() const { return *graph_.design; }
  [[nodiscard]] double clock_period(int component) const {
    return component >= 0 ? graph_.components[component].clock_period_ns
                          : graph_.default_period_ns;
  }
  /// `from`/`to` are interned state values (state alphabets are small, so
  /// recording a transition appends one POD row, no string copies).
  void record_state_transition(int component, Symbol variable, Symbol from,
                               Symbol to);
  /// Re-evaluates a component's firing conditions (called by behaviours
  /// after finishing a handler).
  void poke(int component);

  /// Human-readable "path.port" for diagnostics (not on the hot path).
  [[nodiscard]] std::string endpoint_name(const ChannelEndpoint& ep) const {
    return graph_.endpoint_name(ep);
  }

  // --- Driver API --------------------------------------------------------

  /// Pushes the first event of every owned stimulus cursor and calls
  /// on_start for every owned component.
  void seed();

  /// Pops and dispatches events while the head is within `limit`
  /// (`<= limit` when inclusive, `< limit` otherwise) and `<= max_time_ns`.
  void process_events(double limit, bool inclusive, double max_time_ns);

  /// Time of the next queued event, or kInfiniteTime when idle.
  [[nodiscard]] double next_time() const {
    return queue_.empty() ? kInfiniteTime : queue_.top_time();
  }

  /// Earliest time a remote sink could acknowledge one of this shard's
  /// occupied cross-shard source channels (kInfiniteTime when none is
  /// occupied). The runtime clamps the round horizon to this bound. Reads
  /// only kernel-local state, never the shared `Channel` structs the sink
  /// shard writes next to.
  [[nodiscard]] double ack_risk_bound() const;

  /// Absolute-time event insertion for mailbox drains. Credit-mode cut
  /// channels queue the payload in the sink-owned arrivals ring (exact mode
  /// reads the quiescent channel register instead, byte-compatible with the
  /// pre-credit protocol).
  void enqueue_remote_deliver(double time, std::int32_t channel,
                              Packet packet) {
    Channel& c = graph_.channels[channel];
    if (c.credit_mode()) c.arrivals.push_back(packet);
    queue_.push(Event{time, channel, -1, EventKind::kDeliver});
  }
  void enqueue_remote_ack(double time, std::int32_t channel,
                          std::int32_t count) {
    queue_.push(Event{time, channel, count, EventKind::kRemoteAck});
  }

  /// Credit mode: posts each cut sink channel's accumulated ack batch to
  /// its source shard, stamped at the window boundary `time`. Called by the
  /// sharded runtime once per round, after processing. An attached fault
  /// injector may withhold individual flushes (deferring them to a later
  /// round); `force` overrides that probabilistic fault — but never the
  /// hang fault (FaultPlan::withhold_acks_forever) — and is used by the
  /// quiescence check to flush straggler batches.
  void flush_ack_batches(double time, bool force = false);

  /// Sum of accumulated-but-unflushed ack batches over this shard's
  /// sink-side cut channels. Nonzero at an otherwise-idle round means the
  /// run is NOT quiescent: sources are still owed credits.
  [[nodiscard]] std::int64_t pending_ack_batches() const;
  /// Remaining send credits over this shard's source-side cut channels.
  [[nodiscard]] std::int64_t credit_balance() const;
  /// Delivered-but-unacked packets over this shard's sink-side cut
  /// channels.
  [[nodiscard]] std::int64_t unacked_total() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// Attaches the run's stop-signal. The event loop publishes this shard's
  /// processed events to the guard every few hundred events (which checks
  /// the run's budgets) and stops when the guard's stop flag is up.
  void set_guard(RunGuard* guard) { guard_ = guard; }
  /// Attaches this shard's fault oracle (withheld credit-flush site).
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  /// Number of cross-shard acks posted since the last call (the sharded
  /// runtime's same-timestamp fixpoint counter).
  [[nodiscard]] std::uint32_t take_acks_posted() {
    std::uint32_t n = acks_posted_;
    acks_posted_ = 0;
    return n;
  }

  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  [[nodiscard]] double last_event_time() const { return now_; }

  // Result-merge access (after the event loop; see merge_results).
  [[nodiscard]] TraceBuffer& trace() { return trace_; }
  [[nodiscard]] const std::vector<std::uint64_t>& component_events() const {
    return component_events_;
  }
  /// Recorded rows in this shard's execution order; merge_results moves or
  /// copies them into the result's columnar table.
  [[nodiscard]] std::vector<TransitionRow>& transitions() {
    return transitions_;
  }
  /// First-hit warning sites in local emission order; merge_results emits
  /// them after the run.
  [[nodiscard]] const std::vector<std::uint64_t>& deferred_warnings() const {
    return deferred_warnings_;
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>&
  warn_counts() const {
    return warn_counts_;
  }
  /// Base phrase of a warning site ("ack on empty channel '...'").
  [[nodiscard]] std::string warn_message(std::uint64_t key) const;
  /// First-hit form: base phrase + the site's advisory suffix.
  [[nodiscard]] std::string warn_first_message(std::uint64_t key) const;

 private:
  // Deduplicated per-packet warnings: each (kind, component, port/channel)
  // site warns once and is counted; totals are reported after the run.
  enum class WarnSite : std::uint8_t {
    kSendUnconnected,
    kAckUnconnected,
    kAckEmptyChannel,
    /// A negative or NaN delay, clamped to 0. One site per run (a = b =
    /// -1): the clamp is a property of the model, not of one instance.
    kNegativeDelay,
  };

  /// Schedules an event `delay_ns` from now. A negative or NaN delay runs
  /// at now instead (kNegativeDelay), so per-kernel time never decreases.
  void push_event(double delay_ns, EventKind kind, std::int32_t a,
                  std::int32_t b);
  void dispatch(const Event& ev);
  void deliver(std::size_t channel_index);
  void start_channel_transfer(std::size_t channel_index, Packet packet);
  /// Starts the next outbox packet if the register is free, charging the
  /// waiting time to the channel's blocked counter.
  void drain_outbox(std::size_t channel_index);
  void send_on_channel(std::size_t channel_index, Packet packet);
  void notify_output_acked(ChannelEndpoint src);
  /// Source-side completion of a cross-shard ack (the tail of what a
  /// shard-local channel runs nested inside Kernel::ack).
  void complete_remote_ack(std::size_t channel_index);
  /// Source-side completion of a credit-mode ack batch: replenishes `count`
  /// credits, notifying the source behaviour and draining the outbox per
  /// credit (the per-ack sequence of the exact protocol, batched).
  void complete_remote_ack_batch(std::size_t channel_index,
                                 std::int32_t count);
  /// Counts the warning site; defers its message on first hit.
  void warn_once(WarnSite site, std::int32_t a, std::int32_t b);

  SimGraph& graph_;
  const int shard_;
  CrossRouter* router_;
  RunGuard* guard_ = nullptr;
  FaultInjector* fault_ = nullptr;
  bool trace_enabled_ = true;

  double now_ = 0.0;
  std::uint64_t events_processed_ = 0;
  std::uint32_t acks_posted_ = 0;

  EventQueue queue_;
  TraceBuffer trace_;
  std::vector<TransitionRow> transitions_;
  /// Events dispatched per component (deliver at the sink, timer, poke) —
  /// the measured activity weights of profile-guided partitioning.
  std::vector<std::uint64_t> component_events_;
  std::unordered_map<std::uint64_t, std::uint64_t> warn_counts_;
  std::vector<std::uint64_t> deferred_warnings_;
  /// Channel indices of cross-shard channels whose source side this shard
  /// owns (precomputed for ack_risk_bound).
  std::vector<std::int32_t> cross_src_channels_;
  /// Exact mode: delivery time of the packet occupying each owned cut source
  /// channel, by channel index (kInfiniteTime when free). Set in
  /// start_channel_transfer, cleared in complete_remote_ack.
  std::vector<double> cut_deliver_ns_;
  /// Channel indices of cross-shard channels whose sink side this shard
  /// owns (credit-mode ack-batch flushing).
  std::vector<std::int32_t> cross_dst_channels_;
};

/// Merges K kernels' buffers into one SimResult: channel stats + names,
/// canonically ordered trace and state transitions, top outputs, deadlock
/// analysis over the quiesced graph, deferred warning emission. Identical
/// output for any K covering the same run. Each kernel's trace and
/// transition rows are in time order (kernel time never decreases), so the
/// ordering is a K-way merge plus a short fix-up, linear in the rows.
/// `aborted` skips the deadlock analysis: an aborted run's queues are not
/// quiescent, so the wait-for search would report phantom cycles.
[[nodiscard]] SimResult merge_results(SimGraph& graph,
                                      const std::vector<Kernel*>& kernels,
                                      double end_time_ns,
                                      support::DiagnosticEngine& diags,
                                      bool aborted = false);

}  // namespace tydi::sim
