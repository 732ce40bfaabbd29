// Run guard + watchdog for the simulation runtime.
//
// A `RunGuard` is the single stop-signal shared by every shard thread, the
// step exchange, and the watchdog: one atomic flag plus the cause that
// raised it. Kernels add to a processed-event counter of their own and
// poll the flag every few hundred events, so a stop request (budget
// exceeded, watchdog fired) drains the run within microseconds instead of
// at the next exchange.
//
// The `Watchdog` is a monitor thread that polls the guard:
//  - *no-progress*: the run's event count has not moved for
//    `watchdog_timeout_ms`. Rounds alone do NOT count as progress —
//    the canonical livelock (withheld acks in credit mode) spins rounds
//    forever while processing zero events, and a round-based monitor would
//    never fire;
//  - *wall-clock budget*: total run time exceeded `wall_clock_budget_ms`;
//  - *RSS budget*: resident set size exceeded `rss_budget_mb` (via
//    getrusage; best-effort — ru_maxrss is a high-water mark).
//
// When any trigger fires the watchdog calls `request_stop(cause)`; shard
// threads and the abortable exchange spin observe the flag, unwind
// cooperatively, and the runtime converts the partial state into
// SimResult::aborted with per-shard forensics. The watchdog never kills
// threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tydi::sim {

/// Why a run was asked to stop. kNone means the run completed on its own.
enum class StopCause : std::uint8_t {
  kNone = 0,
  kWatchdogNoProgress,
  kMaxEvents,
  kWallClock,
  kRss,
};

[[nodiscard]] std::string_view to_string(StopCause cause);

/// Shared stop-signal for one simulation run. All methods are thread-safe.
class RunGuard {
 public:
  /// One event counter per shard thread (`shards` >= 1).
  explicit RunGuard(int shards = 1)
      : counters_(static_cast<std::size_t>(std::max(shards, 1))) {}

  /// Adds processed events to `shard`'s counter. Each counter has a single
  /// writer on a cache line of its own, so this is a load and a store, not
  /// a read-modify-write the shards would contend on. Relaxed: the counts
  /// are monotonic telemetry, not a synchronization point.
  void add_events(int shard, std::uint64_t n) {
    std::atomic<std::uint64_t>& events = counters_[shard].events;
    events.store(events.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }

  /// Events processed by every shard so far.
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
  std::atomic<bool> stop_{false};
  std::atomic<StopCause> cause_{StopCause::kNone};
  std::vector<Counter> counters_;
};

/// Monitor thread enforcing the no-progress timeout and the run budgets.
/// Construct after the guard, destroy (or stop()) before reading results.
class Watchdog {
 public:
  struct Config {
    /// No-progress window in ms; <= 0 disables the no-progress trigger.
    double timeout_ms = 0.0;
    /// Total wall-clock budget in ms; <= 0 disables.
    double wall_clock_budget_ms = 0.0;
    /// Resident-set budget in MiB; 0 disables.
    std::uint64_t rss_budget_mb = 0;

    [[nodiscard]] bool enabled() const {
      return timeout_ms > 0.0 || wall_clock_budget_ms > 0.0 ||
             rss_budget_mb > 0;
    }
  };

  Watchdog(RunGuard& guard, Config config);
  ~Watchdog() { stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Joins the monitor thread. Idempotent.
  void stop();

 private:
  void run();

  RunGuard& guard_;
  Config config_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Current resident set high-water mark in MiB (getrusage ru_maxrss); 0 when
/// unavailable.
[[nodiscard]] std::uint64_t current_rss_mb();

}  // namespace tydi::sim
