// Deterministic, seed-driven fault injection for the sharded simulation
// runtime.
//
// A 1-core container never exercises the scheduling pathologies a real
// multi-core box produces: threads descheduled mid-round, mailbox posts
// landing "late" in wall-clock, one shard racing far ahead of its peers.
// A `FaultPlan` recreates those pathologies on purpose — and deterministic
// protocols must shrug them off:
//
//  - *wall-clock* faults (delayed mailbox posts, jittered exchange entry,
//    stalled-shard windows) perturb only thread timing. The exact protocol
//    must stay byte-identical and the credit protocol functionally
//    equivalent, because every control decision derives from
//    exchange-reduced values, never from arrival order;
//  - *protocol* faults (withheld credit grants) defer the credit-mode ack
//    batch flush by whole rounds. Ack timestamps shift further, so only the
//    functional-equivalence contract applies — and only credit mode honours
//    this fault (exact-mode acks are part of the same-time fixpoint and
//    cannot be deferred without changing semantics);
//  - the *hang* fault (withhold_acks_forever) swallows credit ack batches
//    entirely. The run cannot finish; the watchdog must convert the hang
//    into SimResult::aborted with per-shard forensics. This is the negative
//    control proving the guard rails work.
//
// All randomness is a counter-based hash of (seed, shard, site, step):
// stateless, thread-free, reproducible — the same plan produces the same
// fault schedule no matter how the OS schedules the threads.
#pragma once

#include <cstdint>
#include <string>

namespace tydi::sim {

struct FaultPlan {
  /// Master seed. 0 disables every injection site regardless of the
  /// probabilities below.
  std::uint64_t seed = 0;
  /// Probability [0,1] that a cross-shard mailbox post (deliver or ack) is
  /// held back in wall-clock for `delay_spin_iters` busy-iterations before
  /// being written. Wall-clock only: the message still lands in the same
  /// protocol round.
  double delay_delivery_p = 0.0;
  /// Probability [0,1] of spinning before entering each step exchange
  /// (models a thread descheduled on the way into the synchronization).
  double barrier_jitter_p = 0.0;
  /// Probability [0,1] that a shard stalls (yield-loop) at the start of a
  /// round's processing phase (models a long preemption window).
  double stall_p = 0.0;
  /// Probability [0,1] that a credit-mode sink defers its ack-batch flush to
  /// a later round (withheld credit grants). Ignored in exact mode.
  double withhold_credit_p = 0.0;
  /// Busy-spin iterations for one injected delay (kept small: the sweep
  /// runs hundreds of configurations).
  std::uint32_t delay_spin_iters = 2000;
  /// Swallow every credit ack-batch flush forever: a deliberate hang that
  /// the watchdog must convert into SimResult::aborted. Test/bench only.
  bool withhold_acks_forever = false;

  [[nodiscard]] bool enabled() const { return seed != 0; }

  /// A mixed plan deriving all probabilities from one seed — the shape the
  /// fault sweep uses (`tydic --sim-fault-seed`). Every site is active with
  /// a seed-dependent probability in [0.05, 0.5].
  [[nodiscard]] static FaultPlan from_seed(std::uint64_t seed);

  /// Parses "key=value,key=value" plans for `tydic --sim-fault-plan`:
  /// seed=<u64>, delay=<p>, jitter=<p>, stall=<p>, withhold=<p>,
  /// spin=<iters>, hang=0|1. Returns false (with `error` set) on an unknown
  /// key or an unparsable value.
  [[nodiscard]] static bool parse(const std::string& spec, FaultPlan& plan,
                                  std::string& error);

  [[nodiscard]] std::string render() const;
};

/// Per-shard stateless fault oracle. `decide(site, step)` hashes
/// (seed, shard, site, step) into [0,1) and compares against the site's
/// probability, so a given plan yields one fixed fault schedule per shard —
/// independent of thread interleaving.
class FaultInjector {
 public:
  enum class Site : std::uint32_t {
    kMailboxPost = 1,
    kBarrierArrive = 2,
    kRoundStall = 3,
    kWithholdCredit = 4,
  };

  FaultInjector(const FaultPlan& plan, int shard)
      : plan_(plan), shard_(shard) {}

  /// True when the fault at `site` fires for this shard at local step
  /// `step` (each site keeps its own monotonic step counter).
  [[nodiscard]] bool fires(Site site);

  /// Busy-spin delay used by the wall-clock faults. Volatile accumulator so
  /// the optimizer cannot elide it.
  void spin_delay() const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  int shard_;
  std::uint64_t steps_[5] = {0, 0, 0, 0, 0};
};

}  // namespace tydi::sim
