#include "src/sim/guard.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "src/sim/engine.hpp"

namespace tydi::sim {

namespace {

/// A positive budget in ms as a clock duration, rounded up so that a tiny
/// budget stays on; <= 0 is zero (off).
RunGuard::Clock::duration budget(double ms) {
  if (ms <= 0.0) return {};
  return std::chrono::ceil<RunGuard::Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// How often one shard may call getrusage for the RSS budget.
constexpr auto kRssPoll = std::chrono::milliseconds(10);

}  // namespace

std::string_view to_string(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kWatchdogNoProgress: return "watchdog-no-progress";
    case StopCause::kMaxEvents: return "max-events-budget";
    case StopCause::kWallClock: return "wall-clock-budget";
    case StopCause::kRss: return "rss-budget";
  }
  return "unknown";
}

std::uint64_t current_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
}

RunGuard::RunGuard(int shards, const SimOptions& options)
    : counters_(static_cast<std::size_t>(std::max(shards, 1))),
      watches_(counters_.size()),
      start_(Clock::now()),
      no_progress_(budget(options.watchdog_timeout_ms)),
      wall_clock_(budget(options.wall_clock_budget_ms)),
      rss_mb_(options.rss_budget_mb),
      max_events_(options.max_events),
      timed_(no_progress_ != Clock::duration::zero() ||
             wall_clock_ != Clock::duration::zero() || rss_mb_ > 0) {
  for (Watch& w : watches_) {
    w.progress_at = start_;
    w.next_rss_check = start_;
  }
}

bool RunGuard::publish(int shard, std::uint64_t n, bool check_clock) {
  // The clock check reads the total before this shard's events land: a
  // stretch in which nobody else published counts against the no-progress
  // window, exactly as if a monitor had watched the counter.
  if (check_clock && timed_) check(shard, Clock::now(), events(), n);
  std::atomic<std::uint64_t>& counter = counters_[shard].events;
  // A load and a store, not a read-modify-write: the counter has one writer.
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  if (max_events_ != 0 && events() >= max_events_) {
    request_stop(StopCause::kMaxEvents);
  }
  return stop_requested();
}

bool RunGuard::check(int shard, Clock::time_point now, std::uint64_t total,
                     std::uint64_t own) {
  Watch& w = watches_[shard];
  if (total > w.seen) {
    w.progress_at = now;
  } else if (no_progress_ != Clock::duration::zero() &&
             now - w.progress_at >= no_progress_) {
    request_stop(StopCause::kWatchdogNoProgress);
  }
  if (own > 0) w.progress_at = now;
  w.seen = total + own;
  if (wall_clock_ != Clock::duration::zero() && now - start_ >= wall_clock_) {
    request_stop(StopCause::kWallClock);
  }
  if (rss_mb_ > 0 && now >= w.next_rss_check) {
    w.next_rss_check = now + kRssPoll;
    if (current_rss_mb() >= rss_mb_) request_stop(StopCause::kRss);
  }
  return stop_requested();
}

}  // namespace tydi::sim
