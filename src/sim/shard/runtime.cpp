#include "src/sim/shard/runtime.hpp"

#include <sched.h>

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

/// K×K single-producer cells, double-buffered by step parity. Cell
/// (parity, src, dst) is written only by shard `src` during a step that
/// posts into `parity` and drained only by shard `dst` during the next
/// step; the step exchange orders the two (see StepExchange), so plain
/// vectors suffice.
class Mailboxes {
 public:
  explicit Mailboxes(int shards)
      : shards_(shards),
        cells_(2 * static_cast<std::size_t>(shards) * shards) {}

  std::vector<Msg>& cell(int parity, int src, int dst) {
    const std::size_t row = static_cast<std::size_t>(parity) * shards_ + src;
    return cells_[row * shards_ + dst].msgs;
  }

  /// Drains every inbound cell of `dst` of one parity (in source-shard
  /// order) into the kernel's queue. The canonical event order makes the
  /// drain order irrelevant, but keeping it fixed makes runs reproducible
  /// to the byte.
  void drain_into(int parity, int dst, Kernel& kernel) {
    for (int src = 0; src < shards_; ++src) {
      std::vector<Msg>& box = cell(parity, src, dst);
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

  /// Messages parked in `dst`'s inbound cells of both parities. Forensics
  /// only — called after every shard has stopped.
  [[nodiscard]] std::size_t inbound_depth(int dst) {
    std::size_t total = 0;
    for (int parity = 0; parity < 2; ++parity) {
      for (int src = 0; src < shards_; ++src) {
        total += cell(parity, src, dst).size();
      }
    }
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
    earliest_post_ = std::min(earliest_post_, time);
    mail_.cell(parity_, from_, to_shard)
        .push_back(Msg{time, channel, 0, packet, false});
  }
  void post_ack(int to_shard, double time, std::int32_t channel,
                std::int32_t count) override {
    delay_fault();
    earliest_post_ = std::min(earliest_post_, time);
    mail_.cell(parity_, from_, to_shard)
        .push_back(Msg{time, channel, count, Packet{}, true});
  }

  /// Earliest timestamp posted since the last begin_step (kInfiniteTime
  /// when nothing was posted).
  [[nodiscard]] double earliest_post() const { return earliest_post_; }
  /// Points later posts at the cells of `parity` and resets earliest_post.
  void begin_step(int parity) {
    parity_ = parity;
    earliest_post_ = kInfiniteTime;
  }

 private:
  /// Wall-clock-only fault: the post is held back in real time but still
  /// lands in the same step's cells (drained only after the next exchange),
  /// so results must not change.
  void delay_fault() {
    if (fault_ != nullptr &&
        fault_->fires(FaultInjector::Site::kMailboxPost)) {
      fault_->spin_delay();
    }
  }

  Mailboxes& mail_;
  const int from_;
  FaultInjector* fault_;
  /// The seed step ends with exchange 1, so seeding posts into parity 1.
  int parity_ = 1;
  double earliest_post_ = kInfiniteTime;
};

/// One shard's contribution to a step's reduction. Exact mode fills
/// next_time, ack_bound and acks_posted; credit mode fills next_time,
/// pending_batches and last_time; both fill events. The other mode's fields
/// keep their neutral values, so one reduction serves both.
struct Vote {
  /// min(queue head after the step, earliest message posted in it).
  double next_time = kInfiniteTime;
  double ack_bound = kInfiniteTime;
  std::uint32_t acks_posted = 0;
  /// Credit mode: accumulated-but-unflushed ack batches (quiescence check).
  std::int64_t pending_batches = 0;
  /// Credit mode: the shard's last dispatched event time (straggler-batch
  /// flush timestamp).
  double last_time = 0.0;
  /// Events the shard has processed; reduced, the run's total (the
  /// no-progress check reads it, see RunGuard::check).
  std::uint64_t events = 0;
};

/// The step exchange: every shard publishes its vote and waits for every
/// peer's, with no shared read-modify-write. Shard s owns one cache line
/// per parity; exchange n (1-based) writes line (s, n & 1): the vote, then
/// a release-store of `epoch = n`. A shard then acquire-spins on each
/// peer's line until it reads epoch n, and folds the peers' votes.
///
/// Race freedom (the same argument covers the mailbox cells):
///  - Vote lines. Line (s, q) written at exchange n is next written at
///    exchange n + 2. Shard s can only enter n + 2 after finishing n + 1,
///    i.e. after acquiring every peer's epoch n + 1; a peer publishes n + 1
///    only after it has folded line (s, q) of exchange n. So every read of
///    exchange n happens-before its overwrite, and a spinning shard never
///    sees epoch n + 2 on a line it is waiting on.
///  - Mailbox cells. The step ending in exchange n posts into cells n & 1;
///    the sink drains them in the next step, after acquiring the poster's
///    epoch n (posts happen-before the release). The poster writes those
///    cells again only in the step ending in exchange n + 2, which starts
///    after it acquired the sink's epoch n + 1 — published after the drain.
///  - The reduced next_time. Each vote carries min(queue head, earliest
///    post of the step), and every post is drained into its sink's queue at
///    the start of the next step, so the reduced value is the global
///    minimum of the *post-drain* queue heads — what a drain followed by a
///    second synchronization would have computed.
///
/// The exchange is abortable: once the run guard's stop flag is raised, a
/// waiting shard returns a neutral vote (after its bounded spin), so an
/// abort cannot strand it behind a peer that already unwound. Past the
/// spin, the waiting shard also checks the run's budgets itself, so a peer
/// stalled mid-event still trips the no-progress or wall-clock budget.
/// Callers re-check the flag and leave their step loop.
///
/// Waiting: a shard spins up to kSpinLimit polls before it yields, but only
/// while the run has no more shards than the CPUs the process may use; with
/// more, the peer it waits on may need this CPU, so it yields at once. The
/// spin adapts per shard: a wait that outlasts it halves it (down to
/// kSpinLimit / 64), since its peer was likely not running — the scheduler
/// can keep two shard threads on one CPU for a while — and a wait that ends
/// inside it doubles it back. The clock is read only when a peer has not
/// yet published: once as the wait starts and once as it ends.
class StepExchange {
 public:
  /// One shard's side of the waits: the spin it carries from exchange to
  /// exchange, and whether the last exchange waited, with the clock at the
  /// start and end of that wait.
  struct Waiter {
    int spins = 0;
    bool waited = false;
    RunGuard::Clock::time_point start{};
    RunGuard::Clock::time_point end{};
  };

  StepExchange(int shards, RunGuard& guard)
      : shards_(shards),
        spin_limit_(shards <= usable_cpus() ? kSpinLimit : 0),
        guard_(guard),
        lines_(2 * shards) {}

  [[nodiscard]] Waiter waiter() const { return Waiter{spin_limit_}; }

  Vote exchange(int me, std::uint64_t epoch, const Vote& mine, Waiter& w) {
    const std::size_t parity = epoch & 1;
    Line& own = lines_[2 * static_cast<std::size_t>(me) + parity];
    own.vote = mine;
    own.epoch.store(epoch, std::memory_order_release);
    Vote reduced = mine;
    w.waited = false;
    bool yielded = false;
    for (int s = 0; s < shards_; ++s) {
      if (s == me) continue;
      const Line& peer = lines_[2 * static_cast<std::size_t>(s) + parity];
      int spins = 0;
      while (peer.epoch.load(std::memory_order_acquire) < epoch) {
        if (!w.waited) {
          w.waited = true;
          w.start = RunGuard::Clock::now();
        }
        if (++spins > w.spins) {
          yielded = true;
          // Every 64th yield also checks the budgets, reading the run's
          // total from the shards' counters.
          if (guard_.stop_requested() ||
              (spins % 64 == 0 && guard_.timed() &&
               guard_.check(me, RunGuard::Clock::now(), guard_.events()))) {
            w.end = RunGuard::Clock::now();
            return Vote{};
          }
          std::this_thread::yield();
        }
      }
      const Vote& v = peer.vote;
      reduced.next_time = std::min(reduced.next_time, v.next_time);
      reduced.ack_bound = std::min(reduced.ack_bound, v.ack_bound);
      reduced.acks_posted += v.acks_posted;
      reduced.pending_batches += v.pending_batches;
      reduced.last_time = std::max(reduced.last_time, v.last_time);
      reduced.events += v.events;
    }
    if (w.waited) {
      w.end = RunGuard::Clock::now();
      w.spins = yielded ? std::max(w.spins / 2, spin_limit_ / 64)
                        : std::min(w.spins * 2, spin_limit_);
    }
    return reduced;
  }

 private:
  /// Most polls of a peer's epoch before a waiting shard yields: tens of
  /// microseconds, long past the ~1 µs between exchanges of a busy run, so
  /// a running peer is met without a yield.
  static constexpr int kSpinLimit = 16384;

  /// CPUs this process may run on (1 when the mask cannot be read).
  static int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return CPU_COUNT(&set);
  }

  struct alignas(64) Line {
    std::atomic<std::uint64_t> epoch{0};
    Vote vote;
  };
  const int shards_;
  const int spin_limit_;
  RunGuard& guard_;
  std::vector<Line> lines_;
};

/// Per-shard observability accumulators, written only by the owning shard
/// during the run and read on the calling thread after join — no atomics
/// needed, cache-line isolated so the writes never false-share.
struct alignas(64) ObsSlot {
  std::int64_t barrier_wait_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t window_rounds = 0;
  std::uint64_t timestep_rounds = 0;
  std::uint64_t fixpoint_steps = 0;
  std::uint64_t exchanges = 0;
};

struct RoundState {
  StepExchange exchange;
  Mailboxes mail;
  std::vector<ObsSlot> obs;
  double lookahead_ns;
  double max_time_ns;
  RunGuard& guard;
  std::atomic<bool> capped{false};

  RoundState(int shards, double lookahead, double max_time, RunGuard& g)
      : exchange(shards, g),
        mail(shards),
        obs(shards),
        lookahead_ns(lookahead),
        max_time_ns(max_time),
        guard(g) {}
};

/// The round loop of both ack modes, one step per exchange; the round rules
/// are in src/sim/shard/README.md. What the code does not show:
///  - Every branch reads only reduced votes, so all shards take it together.
///  - A window [T, H) is safe: no remote ack lands before the ack bound, and
///    every cross-shard delivery posted inside it lands at >= T + W.
///  - Credit mode needs no bound: a source with exhausted credits queues in
///    its outbox, so no shard waits on a remote ack inside the window.
void shard_main(int me, bool credit, Kernel& kernel, ShardRouter& router,
                RoundState& state, FaultInjector& inject) {
  ObsSlot& obs = state.obs[me];
  StepExchange::Waiter waiter = state.exchange.waiter();
  std::uint64_t epoch = 1;  // the seed step ends with exchange 1
  // Publishes this step's vote (only the current mode's fields: the credit
  // ones scan every cut sink channel) and returns the reduction.
  auto exchange = [&]() {
    Vote mine;
    mine.next_time = std::min(kernel.next_time(), router.earliest_post());
    mine.events = kernel.events_processed();
    if (credit) {
      mine.pending_batches = kernel.pending_ack_batches();
      mine.last_time = kernel.last_event_time();
    } else {
      mine.ack_bound = kernel.ack_risk_bound();
      mine.acks_posted = kernel.take_acks_posted();
    }
    if (inject.fires(FaultInjector::Site::kBarrierArrive)) {
      inject.spin_delay();
    }
    ++obs.exchanges;
    // Only a wait reads the clock, so a non-waiting exchange costs no clock
    // read. The run's clock budgets are checked against the reduced event
    // total at the wait's end, or every 64th exchange when the shard did
    // not wait; a stop is seen at the top of the round loop.
    Vote reduced = state.exchange.exchange(me, epoch, mine, waiter);
    if (waiter.waited) {
      const auto waited = waiter.end - waiter.start;
      obs.barrier_wait_ns +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count();
    }
    if (state.guard.timed() && (waiter.waited || obs.exchanges % 64 == 0)) {
      state.guard.check(me,
                        waiter.waited ? waiter.end : RunGuard::Clock::now(),
                        reduced.events);
    }
    ++epoch;
    router.begin_step(static_cast<int>(epoch & 1));
    return reduced;
  };

  Vote vote = exchange();  // the seed step: queue heads + on_start posts
  bool fixpoint = false;   // the last step processed timestep `t`
  double t = 0.0;
  for (;;) {
    if (state.guard.stop_requested()) return;
    state.mail.drain_into(static_cast<int>((epoch - 1) & 1), me, kernel);
    if (fixpoint && vote.acks_posted > 0) {
      ++obs.fixpoint_steps;
      kernel.process_events(t, /*inclusive=*/true, state.max_time_ns);
      vote = exchange();
      continue;
    }
    fixpoint = false;
    ++obs.rounds;
    t = vote.next_time;
    if (t == kInfiniteTime) {
      if (vote.pending_batches == 0) break;  // quiescent (exact: always)
      ++obs.window_rounds;  // opens no timestep
      // Idle queues but withheld batches: force-flush the stragglers at the
      // latest dispatched time (a reduced value, so every shard picks the
      // same timestamp) and go around. Under the hang fault the flush is a
      // no-op and this loop spins at zero processed events — exactly the
      // livelock the no-progress budget converts into an abort.
      kernel.flush_ack_batches(vote.last_time, /*force=*/true);
      vote = exchange();
      continue;
    }
    if (t > state.max_time_ns) {
      // Same t on every thread: all conclude the cutoff together.
      if (me == 0) state.capped.store(true, std::memory_order_relaxed);
      break;
    }

    if (inject.fires(FaultInjector::Site::kRoundStall)) inject.spin_delay();

    // Credit mode votes no ack bound, so its horizon is T + W.
    const double horizon = std::min(t + state.lookahead_ns, vote.ack_bound);
    if (horizon > t) {
      ++obs.window_rounds;
      kernel.process_events(horizon, /*inclusive=*/false, state.max_time_ns);
      if (credit) kernel.flush_ack_batches(horizon);
    } else {
      ++obs.timestep_rounds;
      kernel.process_events(t, /*inclusive=*/true, state.max_time_ns);
      if (credit) {
        kernel.flush_ack_batches(t);
      } else {
        fixpoint = true;
      }
    }
    vote = exchange();
  }
}

/// Fills the per-shard forensics snapshots. Runs on the calling thread after
/// every shard has stopped — for *every* run, not only aborts: a healthy
/// run's end-state (queue/mailbox depths, credit occupancy) is the baseline
/// the abort snapshots are read against.
void collect_forensics(SimResult& result, const std::vector<Kernel*>& kernels,
                       RoundState& state) {
  result.shard_forensics.clear();
  for (std::size_t s = 0; s < kernels.size(); ++s) {
    const Kernel& k = *kernels[s];
    ShardForensics f;
    f.shard = static_cast<int>(s);
    f.window_time_ns = k.next_time();
    f.last_event_time_ns = k.last_event_time();
    f.events_processed = k.events_processed();
    f.queue_depth = k.queue_depth();
    f.mailbox_depth = state.mail.inbound_depth(static_cast<int>(s));
    f.window_rounds = state.obs[s].window_rounds;
    f.timestep_rounds = state.obs[s].timestep_rounds;
    f.fixpoint_steps = state.obs[s].fixpoint_steps;
    f.exchanges = state.obs[s].exchanges;
    f.barrier_wait_ms =
        static_cast<double>(state.obs[s].barrier_wait_ns) / 1.0e6;
    f.credit_balance = k.credit_balance();
    f.unacked = k.unacked_total();
    f.pending_ack_batches = k.pending_ack_batches();
    result.shard_forensics.push_back(std::move(f));
  }
}

/// Publishes the finished run to the process registry: outcome counters,
/// round/exchange/wait telemetry, and `tydi.sim.last.*` gauges aggregated from
/// the forensics snapshots (last-run-wins, the live-introspection view).
void publish_run_metrics(const SimResult& result, const RoundState& state) {
  const int shards = static_cast<int>(result.shard_forensics.size());
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& runs = reg.counter("tydi.sim.runs");
  static obs::Counter& aborted = reg.counter("tydi.sim.aborted");
  static obs::Counter& deadlocks = reg.counter("tydi.sim.deadlocks");
  static obs::Counter& events = reg.counter("tydi.sim.events");
  static obs::Counter& rounds = reg.counter("tydi.sim.rounds");
  static obs::Counter& window_rounds = reg.counter("tydi.sim.window_rounds");
  static obs::Counter& timestep_rounds =
      reg.counter("tydi.sim.timestep_rounds");
  static obs::Counter& fixpoint_steps = reg.counter("tydi.sim.fixpoint_steps");
  static obs::Counter& exchanges = reg.counter("tydi.sim.exchanges");
  static obs::Histogram& wait_us = reg.histogram("tydi.sim.barrier_wait_us");
  ++runs;
  if (result.aborted) ++aborted;
  if (result.deadlock) ++deadlocks;
  events += result.events_processed;
  // Every shard takes the same steps; an aborted run counts the furthest.
  ObsSlot most;
  for (const ObsSlot& slot : state.obs) {
    most.rounds = std::max(most.rounds, slot.rounds);
    most.window_rounds = std::max(most.window_rounds, slot.window_rounds);
    most.timestep_rounds =
        std::max(most.timestep_rounds, slot.timestep_rounds);
    most.fixpoint_steps = std::max(most.fixpoint_steps, slot.fixpoint_steps);
    most.exchanges = std::max(most.exchanges, slot.exchanges);
    wait_us.observe(static_cast<double>(slot.barrier_wait_ns) / 1000.0);
  }
  rounds += most.rounds;
  window_rounds += most.window_rounds;
  timestep_rounds += most.timestep_rounds;
  fixpoint_steps += most.fixpoint_steps;
  exchanges += most.exchanges;
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
    // shard-local channels, so a run without cut channels is the exact
    // engine either way.
    credit = options.ack_mode == AckMode::kCredit && stats.cross_channels > 0;
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

  const int shards = graph.shard_count;
  RunGuard guard(shards, options);
  RoundState state(shards, stats.min_cross_latency_ns, options.max_time_ns,
                   guard);

  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<ShardRouter>> routers;
  std::vector<std::unique_ptr<Kernel>> kernels;
  std::vector<Kernel*> kernel_ptrs;
  injectors.reserve(shards);
  routers.reserve(shards);
  kernels.reserve(shards);
  kernel_ptrs.reserve(shards);
  const bool faulty = options.fault.enabled();
  for (int s = 0; s < shards; ++s) {
    injectors.push_back(std::make_unique<FaultInjector>(options.fault, s));
    routers.push_back(std::make_unique<ShardRouter>(
        state.mail, s, faulty ? injectors[s].get() : nullptr));
    kernels.push_back(
        std::make_unique<Kernel>(graph, options, s, routers[s].get()));
    kernels[s]->set_guard(&guard);
    if (faulty) kernels[s]->set_fault_injector(injectors[s].get());
    kernel_ptrs.push_back(kernels[s].get());
  }
  {
    obs::PhaseTimer timer(phases, "sim", "process");
    // Seed single-threaded (behaviour on_start may post cross-shard
    // traffic; each shard votes it in its first exchange and drains it in
    // the first round).
    for (auto& kernel : kernels) kernel->seed();
    auto run_shard = [&](int s) {
      obs::Span span("sim.shard");
      span.arg("shard", static_cast<std::int64_t>(s))
          .arg("mode", credit ? "credit" : "exact");
      shard_main(s, credit, *kernels[s], *routers[s], state, *injectors[s]);
    };
    // Shard 0 runs on the calling thread, so a 1-shard run starts none.
    std::vector<std::thread> threads;
    threads.reserve(shards - 1);
    for (int s = 1; s < shards; ++s) threads.emplace_back(run_shard, s);
    run_shard(0);
    for (std::thread& thread : threads) thread.join();
  }

  double end_time = 0.0;
  if (state.capped.load(std::memory_order_relaxed)) {
    end_time = options.max_time_ns;
  } else {
    for (const auto& kernel : kernels) {
      end_time = std::max(end_time, kernel->last_event_time());
    }
  }
  const bool aborted = guard.cause() != StopCause::kNone;
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
  collect_forensics(result, kernel_ptrs, state);
  publish_run_metrics(result, state);
  return result;
}

}  // namespace tydi::sim::shard
