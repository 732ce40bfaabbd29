// Run guard for the simulation runtime: the stop signal and the budgets.
//
// A `RunGuard` is the single stop-signal shared by every shard thread and
// the step exchange: one atomic flag plus the cause that raised it. It
// also holds the run's start time and budgets, which the shard threads
// check themselves where they already poll (src/sim/shard/README.md):
// every 256 events in the kernel, after every step exchange, and while
// waiting in one. There is no monitor thread.
//  - *no-progress*: a shard has seen no event processed — its own, or the
//    run's total at an exchange or while it waits — for
//    `watchdog_timeout_ms`. Rounds alone do NOT count as progress: the
//    canonical livelock (withheld acks in credit mode) spins rounds
//    forever at zero events;
//  - *budgets*: `max_events`, `wall_clock_budget_ms`, and `rss_budget_mb`
//    (getrusage, at most every 10 ms per shard; best-effort — ru_maxrss is
//    a high-water mark).
//
// A tripped budget calls `request_stop(cause)`; shard threads see the flag
// between events and in the exchange, unwind cooperatively, and the
// runtime converts the partial state into SimResult::aborted with
// per-shard forensics. Nothing interrupts a handler mid-event.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tydi::sim {

struct SimOptions;  // engine.hpp

/// Why a run was asked to stop. kNone means the run completed on its own.
enum class StopCause : std::uint8_t {
  kNone = 0,
  kWatchdogNoProgress,
  kMaxEvents,
  kWallClock,
  kRss,
};

[[nodiscard]] std::string_view to_string(StopCause cause);

/// Stop-signal and budgets of one simulation run. `request_stop`,
/// `stop_requested`, `cause` and `events` are thread-safe; `publish` and
/// `check` for a shard are called only from that shard's thread.
class RunGuard {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts the run's clock. One slot per shard thread (`shards` >= 1);
  /// the budgets are the guard-rail fields of `options`.
  RunGuard(int shards, const SimOptions& options);

  /// Adds `n` processed events to `shard`'s counter and checks the event
  /// budget; `check_clock` also checks the clock budgets first (the
  /// 256-event stride). Returns stop_requested().
  bool publish(int shard, std::uint64_t n, bool check_clock);

  /// Checks the clock budgets from `shard`'s thread at `now`. `total` is
  /// the run's event count as the shard sees it: when it grew since the
  /// shard's last check the run progressed, else the no-progress window
  /// is checked. `own` is events the shard is about to publish itself
  /// (they count as progress at `now`). Returns stop_requested().
  bool check(int shard, Clock::time_point now, std::uint64_t total,
             std::uint64_t own = 0);

  /// True when a budget measured on the clock is on; callers skip reading
  /// the clock otherwise.
  [[nodiscard]] bool timed() const { return timed_; }

  /// Events processed by every shard so far. Each counter has a single
  /// writer on a cache line of its own; the reads are relaxed (monotonic
  /// counts, not a synchronization point).
  [[nodiscard]] std::uint64_t events() const {
    std::uint64_t total = 0;
    for (const Counter& c : counters_) {
      total += c.events.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// First caller wins; later causes are ignored so forensics report the
  /// original trigger.
  void request_stop(StopCause cause) {
    StopCause expected = StopCause::kNone;
    cause_.compare_exchange_strong(expected, cause,
                                   std::memory_order_relaxed);
    stop_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  [[nodiscard]] StopCause cause() const {
    return cause_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> events{0};
  };
  /// A shard's view of the run's progress; touched only by its thread.
  struct alignas(64) Watch {
    std::uint64_t seen = 0;  ///< run total at the shard's last check
    Clock::time_point progress_at;
    Clock::time_point next_rss_check;
  };

  std::atomic<bool> stop_{false};
  std::atomic<StopCause> cause_{StopCause::kNone};
  std::vector<Counter> counters_;
  std::vector<Watch> watches_;
  const Clock::time_point start_;
  /// Zero disables a budget.
  Clock::duration no_progress_{};
  Clock::duration wall_clock_{};
  std::uint64_t rss_mb_ = 0;
  std::uint64_t max_events_ = 0;
  bool timed_ = false;
};

/// Current resident set high-water mark in MiB (getrusage ru_maxrss); 0 when
/// unavailable.
[[nodiscard]] std::uint64_t current_rss_mb();

}  // namespace tydi::sim
