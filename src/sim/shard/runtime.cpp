#include "src/sim/shard/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/guard.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/shard/partition.hpp"

namespace tydi::sim::shard {

namespace {

/// Sense-reversing barrier: bounded spin, then yield (stays correct and
/// non-pathological when shards exceed hardware cores). A phase transition
/// publishes with release/acquire ordering, so everything a thread wrote
/// before arriving is visible to every thread after leaving — the mailbox
/// cells and reduction slots need no locks of their own.
///
/// The barrier is *abortable*: once the run guard's stop flag is raised,
/// every wait (current and future) returns immediately, so a watchdog abort
/// cannot strand threads waiting for a partner that already unwound. After
/// the flag is up, threads must not rely on barrier separation — they only
/// ever check the flag and exit their round loops.
class SpinBarrier {
 public:
  SpinBarrier(int parties, const RunGuard& guard)
      : parties_(parties), guard_(guard) {}

  void arrive_and_wait() {
    if (guard_.stop_requested()) return;
    std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
      if (++spins > 512) {
        if (guard_.stop_requested()) return;
        std::this_thread::yield();
      }
    }
  }

 private:
  const int parties_;
  const RunGuard& guard_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
};

struct Msg {
  double time = 0.0;
  std::int32_t channel = -1;
  /// Ack batch size (acks only). Exact mode always posts 1; credit mode
  /// posts one batched message per channel per round.
  std::int32_t count = 0;
  /// Payload (delivers only). Exact mode also keeps it in the quiescent
  /// channel register; credit mode has up to `credit_window` packets in
  /// flight, so the message is the only carrier.
  Packet packet;
  bool is_ack = false;
};

/// K×K single-producer cells. Cell (src, dst) is written only by shard
/// `src` during a processing phase and drained only by shard `dst` during a
/// drain phase; the two phases are always separated by a barrier, so plain
/// vectors suffice.
class Mailboxes {
 public:
  explicit Mailboxes(int shards)
      : shards_(shards), cells_(static_cast<std::size_t>(shards) * shards) {}

  std::vector<Msg>& cell(int src, int dst) {
    return cells_[static_cast<std::size_t>(src) * shards_ + dst].msgs;
  }

  /// Drains every inbound cell of `dst` (in source-shard order) into the
  /// kernel's queue. The canonical event order makes the drain order
  /// irrelevant, but keeping it fixed makes runs reproducible to the byte.
  void drain_into(int dst, Kernel& kernel) {
    for (int src = 0; src < shards_; ++src) {
      std::vector<Msg>& box = cell(src, dst);
      for (const Msg& msg : box) {
        if (msg.is_ack) {
          kernel.enqueue_remote_ack(msg.time, msg.channel, msg.count);
        } else {
          kernel.enqueue_remote_deliver(msg.time, msg.channel, msg.packet);
        }
      }
      box.clear();
    }
  }

  /// Messages parked in `dst`'s inbound cells. Forensics only — called
  /// after the worker threads have joined.
  [[nodiscard]] std::size_t inbound_depth(int dst) {
    std::size_t total = 0;
    for (int src = 0; src < shards_; ++src) total += cell(src, dst).size();
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::vector<Msg> msgs;
  };
  int shards_;
  std::vector<Cell> cells_;
};

class ShardRouter : public CrossRouter {
 public:
  ShardRouter(Mailboxes& mail, int from, FaultInjector* fault)
      : mail_(mail), from_(from), fault_(fault) {}

  void post_deliver(int to_shard, double time, std::int32_t channel,
                    Packet packet) override {
    delay_fault();
    mail_.cell(from_, to_shard)
        .push_back(Msg{time, channel, 0, packet, false});
  }
  void post_ack(int to_shard, double time, std::int32_t channel,
                std::int32_t count) override {
    delay_fault();
    mail_.cell(from_, to_shard)
        .push_back(Msg{time, channel, count, Packet{}, true});
  }

 private:
  /// Wall-clock-only fault: the post is held back in real time but still
  /// lands in the same protocol round (the mailbox cell is drained only
  /// after the next barrier), so results must not change.
  void delay_fault() {
    if (fault_ != nullptr &&
        fault_->fires(FaultInjector::Site::kMailboxPost)) {
      fault_->spin_delay();
    }
  }

  Mailboxes& mail_;
  const int from_;
  FaultInjector* fault_;
};

/// Cache-line-isolated per-shard reduction slot. Written by its shard
/// before a barrier, read by every shard after it.
struct alignas(64) Slot {
  double next_time = kInfiniteTime;
  double ack_bound = kInfiniteTime;
  std::uint32_t acks_posted = 0;
  /// Credit mode: accumulated-but-unflushed ack batches (quiescence check).
  std::int64_t pending_batches = 0;
  /// Credit mode: the shard's last dispatched event time (straggler-batch
  /// flush timestamp).
  double last_time = 0.0;
};

/// Per-shard observability accumulators, written only by the owning shard
/// thread during the run and read on the main thread after join — no
/// atomics needed, cache-line isolated so the writes never false-share.
struct alignas(64) ObsSlot {
  std::int64_t barrier_wait_ns = 0;
  std::uint64_t rounds = 0;
};

struct RoundState {
  SpinBarrier barrier;
  Mailboxes mail;
  std::vector<Slot> slots;
  std::vector<ObsSlot> obs;
  double lookahead_ns;
  double max_time_ns;
  RunGuard& guard;
  std::atomic<bool> capped{false};

  RoundState(int shards, double lookahead, double max_time, RunGuard& g)
      : barrier(shards, g),
        mail(shards),
        slots(shards),
        obs(shards),
        lookahead_ns(lookahead),
        max_time_ns(max_time),
        guard(g) {}
};

/// Credit-mode round loop: no ack-risk bound, no same-timestamp fixpoint.
/// Every round is a window round with H = T + lookahead — the credit
/// horizon guarantees no shard needs a remote ack inside the window
/// (exhausted credits queue in the outbox instead of blocking the round) —
/// and the acks consumed during the round flush as one batch per channel at
/// the window boundary. The degenerate H == T case (a zero-latency cut
/// channel) processes single timestamps but still batches acks, so time
/// never runs backwards: an ack consumed at T is processed by the source at
/// T in the next round.
///
/// Quiescence needs two conditions, not one: every queue idle (t == inf)
/// AND no ack batch left unflushed. Fault injection can withhold a flush
/// past the round that filled it, so an idle barrier with outstanding
/// batches force-flushes and goes around — except under the deliberate
/// hang fault, which keeps withholding until the watchdog aborts the run.
void shard_main_credit(int me, int shards, Kernel& kernel, RoundState& state,
                       FaultInjector& inject) {
  auto arrive = [&] {
    if (inject.fires(FaultInjector::Site::kBarrierArrive)) {
      inject.spin_delay();
    }
    // Two steady_clock reads per wait: the wait itself spins/yields, so the
    // clock cost disappears into it (gated by the sim obs-overhead bench).
    const auto wait_start = std::chrono::steady_clock::now();
    state.barrier.arrive_and_wait();
    state.obs[me].barrier_wait_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count();
  };
  for (;;) {
    if (state.guard.stop_requested()) return;
    ++state.obs[me].rounds;
    state.mail.drain_into(me, kernel);
    state.slots[me].next_time = kernel.next_time();
    state.slots[me].pending_batches = kernel.pending_ack_batches();
    state.slots[me].last_time = kernel.last_event_time();
    arrive();
    if (state.guard.stop_requested()) return;

    double t = kInfiniteTime;
    std::int64_t pending = 0;
    double flush_time = 0.0;
    for (int s = 0; s < shards; ++s) {
      t = std::min(t, state.slots[s].next_time);
      pending += state.slots[s].pending_batches;
      flush_time = std::max(flush_time, state.slots[s].last_time);
    }
    if (t == kInfiniteTime) {
      if (pending == 0) break;  // global quiescence: idle AND no batch owed
      // Idle queues but withheld batches: force-flush the stragglers at
      // the latest dispatched time and go around (all reduced values, so
      // every shard picks the same timestamp). Under the hang fault the
      // flush is a no-op and this loop spins at zero processed events —
      // exactly the livelock the watchdog converts into an abort.
      kernel.flush_ack_batches(flush_time, /*force=*/true);
      arrive();  // flush posts before the next round's drains
      continue;
    }
    if (t > state.max_time_ns) {
      if (me == 0) state.capped.store(true, std::memory_order_relaxed);
      break;
    }

    if (inject.fires(FaultInjector::Site::kRoundStall)) inject.spin_delay();

    double horizon = t + state.lookahead_ns;
    if (horizon > t) {
      kernel.process_events(horizon, /*inclusive=*/false, state.max_time_ns);
      kernel.flush_ack_batches(horizon);
    } else {
      kernel.process_events(t, /*inclusive=*/true, state.max_time_ns);
      kernel.flush_ack_batches(t);
    }
    arrive();
  }
}

void shard_main(int me, int shards, Kernel& kernel, RoundState& state,
                FaultInjector& inject) {
  auto arrive = [&] {
    if (inject.fires(FaultInjector::Site::kBarrierArrive)) {
      inject.spin_delay();
    }
    // Two steady_clock reads per wait: the wait itself spins/yields, so the
    // clock cost disappears into it (gated by the sim obs-overhead bench).
    const auto wait_start = std::chrono::steady_clock::now();
    state.barrier.arrive_and_wait();
    state.obs[me].barrier_wait_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count();
  };
  for (;;) {
    if (state.guard.stop_requested()) return;
    ++state.obs[me].rounds;
    state.mail.drain_into(me, kernel);
    state.slots[me].next_time = kernel.next_time();
    state.slots[me].ack_bound = kernel.ack_risk_bound();
    arrive();
    if (state.guard.stop_requested()) return;

    double t = kInfiniteTime;
    double bound = kInfiniteTime;
    for (int s = 0; s < shards; ++s) {
      t = std::min(t, state.slots[s].next_time);
      bound = std::min(bound, state.slots[s].ack_bound);
    }
    if (t == kInfiniteTime) break;  // global quiescence
    if (t > state.max_time_ns) {
      // Same t on every thread: all conclude the cutoff together.
      if (me == 0) state.capped.store(true, std::memory_order_relaxed);
      break;
    }

    if (inject.fires(FaultInjector::Site::kRoundStall)) inject.spin_delay();

    double horizon = std::min(t + state.lookahead_ns, bound);
    if (horizon > t) {
      // Window round: no remote ack can land before `horizon`, and every
      // cross-shard delivery posted now lands at ≥ t + lookahead.
      kernel.process_events(horizon, /*inclusive=*/false, state.max_time_ns);
      arrive();
      continue;
    }

    // Timestep round: a cross-shard channel could be acknowledged at `t`.
    // Process exactly this timestamp, then iterate same-time ack exchange
    // to a fixpoint so the source sees the ack at the same timestamp the
    // single-queue engine would.
    kernel.process_events(t, /*inclusive=*/true, state.max_time_ns);
    state.slots[me].acks_posted = kernel.take_acks_posted();
    arrive();
    for (;;) {
      if (state.guard.stop_requested()) return;
      std::uint32_t acks = 0;
      for (int s = 0; s < shards; ++s) acks += state.slots[s].acks_posted;
      if (acks == 0) break;
      state.mail.drain_into(me, kernel);
      arrive();  // drains before the next posts
      kernel.process_events(t, /*inclusive=*/true, state.max_time_ns);
      state.slots[me].acks_posted = kernel.take_acks_posted();
      arrive();
    }
  }
}

/// Fills the per-shard forensics snapshots. Runs on the main thread after
/// every worker (and the watchdog) has stopped — for *every* run, not only
/// aborts: a healthy run's end-state (queue/mailbox depths, credit
/// occupancy) is the baseline the abort snapshots are read against.
void collect_forensics(SimResult& result, const std::vector<Kernel*>& kernels,
                       Mailboxes* mail) {
  result.shard_forensics.clear();
  for (std::size_t s = 0; s < kernels.size(); ++s) {
    const Kernel& k = *kernels[s];
    ShardForensics f;
    f.shard = static_cast<int>(s);
    f.window_time_ns = k.next_time();
    f.last_event_time_ns = k.last_event_time();
    f.events_processed = k.events_processed();
    f.queue_depth = k.queue_depth();
    f.mailbox_depth =
        mail != nullptr ? mail->inbound_depth(static_cast<int>(s)) : 0;
    f.credit_balance = k.credit_balance();
    f.unacked = k.unacked_total();
    f.pending_ack_batches = k.pending_ack_batches();
    result.shard_forensics.push_back(std::move(f));
  }
}

/// Publishes the finished run to the process registry: outcome counters,
/// round/barrier telemetry, and `tydi.sim.last.*` gauges aggregated from
/// the forensics snapshots (last-run-wins, the live-introspection view).
void publish_run_metrics(const SimResult& result, const RoundState* state,
                         int shards) {
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& runs = reg.counter("tydi.sim.runs");
  static obs::Counter& aborted = reg.counter("tydi.sim.aborted");
  static obs::Counter& deadlocks = reg.counter("tydi.sim.deadlocks");
  static obs::Counter& events = reg.counter("tydi.sim.events");
  static obs::Counter& rounds = reg.counter("tydi.sim.rounds");
  ++runs;
  if (result.aborted) ++aborted;
  if (result.deadlock) ++deadlocks;
  events += result.events_processed;
  if (state != nullptr) {
    obs::Histogram& wait_us = reg.histogram("tydi.sim.barrier_wait_us");
    std::uint64_t total_rounds = 0;
    for (int s = 0; s < shards; ++s) {
      total_rounds = std::max(total_rounds, state->obs[s].rounds);
      wait_us.observe(static_cast<double>(state->obs[s].barrier_wait_ns) /
                      1000.0);
    }
    rounds += total_rounds;
  }
  double queue_depth = 0, mailbox_depth = 0, credit_balance = 0, unacked = 0,
         pending_batches = 0;
  for (const ShardForensics& f : result.shard_forensics) {
    queue_depth += static_cast<double>(f.queue_depth);
    mailbox_depth += static_cast<double>(f.mailbox_depth);
    credit_balance += static_cast<double>(f.credit_balance);
    unacked += static_cast<double>(f.unacked);
    pending_batches += static_cast<double>(f.pending_ack_batches);
  }
  reg.gauge("tydi.sim.last.shards").set(shards);
  reg.gauge("tydi.sim.last.queue_depth").set(queue_depth);
  reg.gauge("tydi.sim.last.mailbox_depth").set(mailbox_depth);
  reg.gauge("tydi.sim.last.credit_balance").set(credit_balance);
  reg.gauge("tydi.sim.last.unacked").set(unacked);
  reg.gauge("tydi.sim.last.pending_ack_batches").set(pending_batches);
  reg.gauge("tydi.sim.last.events").set(
      static_cast<double>(result.events_processed));
  reg.gauge("tydi.sim.last.aborted").set(result.aborted ? 1.0 : 0.0);
}

}  // namespace

SimResult run_sharded(SimGraph& graph, const SimOptions& options,
                      support::DiagnosticEngine& diags) {
  obs::Span run_span("sim.run");
  run_span.arg("shards", static_cast<std::int64_t>(options.shards));
  support::PhaseTimings phases;
  PartitionStats stats;
  bool credit = false;
  {
    obs::PhaseTimer timer(phases, "sim", "partition");
    stats = partition_graph(graph, options.shards, options.auto_partition,
                            options.component_weights.empty()
                                ? nullptr
                                : &options.component_weights);

    // Credit negotiation (AckMode::kCredit): every cut channel gets a
    // window-sized send budget; the register protocol stays in place for
    // shard-local channels, so a single-shard run is the exact engine
    // either way.
    credit = options.ack_mode == AckMode::kCredit && graph.shard_count > 1 &&
             stats.cross_channels > 0;
    if (credit) {
      std::int32_t window = std::max(1, options.credit_window);
      for (Channel& c : graph.channels) {
        if (c.cross_shard()) {
          c.credit = true;
          c.credits = window;
        }
      }
    }
  }

  RunGuard guard;
  Watchdog::Config wd_config;
  wd_config.timeout_ms = options.watchdog_timeout_ms;
  wd_config.wall_clock_budget_ms = options.wall_clock_budget_ms;
  wd_config.rss_budget_mb = options.rss_budget_mb;

  if (graph.shard_count <= 1) {
    // Single shard: no cross-shard protocol, so no fault sites — but the
    // watchdog and the event/wall-clock/RSS budgets still apply.
    Kernel kernel(graph, options, diags, /*shard=*/0, /*router=*/nullptr);
    kernel.set_guard(&guard, options.max_events);
    {
      obs::PhaseTimer timer(phases, "sim", "process");
      kernel.seed();
      Watchdog watchdog(guard, wd_config);
      kernel.process_events(kInfiniteTime, /*inclusive=*/false,
                            options.max_time_ns);
    }
    const bool aborted = guard.cause() != StopCause::kNone;
    double end_time =
        kernel.capped() ? options.max_time_ns : kernel.last_event_time();
    std::vector<Kernel*> kernels{&kernel};
    SimResult result;
    {
      obs::PhaseTimer timer(phases, "sim", "merge");
      result = merge_results(graph, kernels, end_time, diags, aborted);
    }
    result.phase_ms = std::move(phases);
    if (aborted) {
      result.aborted = true;
      result.abort_reason = std::string(to_string(guard.cause()));
    }
    collect_forensics(result, kernels, /*mail=*/nullptr);
    publish_run_metrics(result, /*state=*/nullptr, /*shards=*/1);
    return result;
  }

  const int shards = graph.shard_count;
  RoundState state(shards, stats.min_cross_latency_ns, options.max_time_ns,
                   guard);

  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  std::vector<std::unique_ptr<Kernel>> kernels;
  injectors.reserve(shards);
  routers.reserve(shards);
  kernels.reserve(shards);
  const bool faulty = options.fault.enabled();
  for (int s = 0; s < shards; ++s) {
    injectors.push_back(std::make_unique<FaultInjector>(options.fault, s));
    routers.push_back(std::make_unique<ShardRouter>(
        state.mail, s, faulty ? injectors[s].get() : nullptr));
    kernels.push_back(
        std::make_unique<Kernel>(graph, options, diags, s, routers[s].get()));
    kernels[s]->set_guard(&guard, options.max_events);
    if (faulty) kernels[s]->set_fault_injector(injectors[s].get());
  }
  {
    obs::PhaseTimer timer(phases, "sim", "process");
    // Seed single-threaded (behaviour on_start may post cross-shard
    // traffic; the mailboxes are drained at the first round).
    for (auto& kernel : kernels) kernel->seed();
    Watchdog watchdog(guard, wd_config);
    std::vector<std::thread> threads;
    threads.reserve(shards);
    for (int s = 0; s < shards; ++s) {
      threads.emplace_back([&, s, credit]() {
        obs::Span span("sim.shard");
        span.arg("shard", static_cast<std::int64_t>(s))
            .arg("mode", credit ? "credit" : "exact");
        (credit ? shard_main_credit : shard_main)(s, shards, *kernels[s],
                                                  state, *injectors[s]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }  // watchdog joined: forensics below read a quiet world

  const bool aborted = guard.cause() != StopCause::kNone;
  double end_time = 0.0;
  if (state.capped.load(std::memory_order_relaxed)) {
    end_time = options.max_time_ns;
  } else {
    for (const auto& kernel : kernels) {
      end_time = std::max(end_time, kernel->last_event_time());
    }
  }
  std::vector<Kernel*> kernel_ptrs;
  kernel_ptrs.reserve(shards);
  for (auto& kernel : kernels) kernel_ptrs.push_back(kernel.get());
  SimResult result;
  {
    obs::PhaseTimer timer(phases, "sim", "merge");
    result = merge_results(graph, kernel_ptrs, end_time, diags, aborted);
  }
  result.phase_ms = std::move(phases);
  if (aborted) {
    result.aborted = true;
    result.abort_reason = std::string(to_string(guard.cause()));
  }
  collect_forensics(result, kernel_ptrs, &state.mail);
  publish_run_metrics(result, &state, shards);
  return result;
}

}  // namespace tydi::sim::shard
