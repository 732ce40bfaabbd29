// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms behind one thread-safe, stable-export facade.
//
// Every subsystem (driver, elab, ir, vhdl, sim, service) publishes its
// telemetry here under `tydi.<subsystem>.<name>` (see src/obs/README.md for
// the full naming scheme), so the daemon's METRICS verb, `tydic
// --metrics-out`, and the bench harnesses all read the *same* numbers — a
// BENCH_*.json figure and a live daemon snapshot can never disagree about
// what was counted.
//
// Concurrency model (the registry is hammered from compile workers, shard
// threads, and service connections at once):
//
//  - instrument *values* are relaxed atomics (`support::RelaxedCounter`
//    for counters/histogram buckets, a CAS-loop double for gauges and
//    histogram sums) — a hot-path increment is one relaxed fetch_add, no
//    lock;
//  - instrument *registration* takes the registry's shared_mutex: lookups
//    shared-lock, first-sight creation double-checks under the exclusive
//    lock (the same discipline as TemplateMemo / IdentityCache).
//    Instruments are heap-allocated and never destroyed while the registry
//    lives, so a `Counter&` captured once (the intended pattern is a
//    function-local `static obs::Counter& c = ...;`) stays valid and
//    lock-free forever;
//  - export walks a `std::map` (already name-sorted) under the shared
//    lock, so `render_json()` output is byte-stable for a given set of
//    values.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/counters.hpp"

namespace tydi::obs {

/// Monotonic counter. Increments are relaxed atomics; `value()` is an
/// approximate snapshot (exact once writers quiesce).
class Counter {
 public:
  Counter& operator++() {
    ++value_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    value_ += n;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return value_.get(); }

 private:
  support::RelaxedCounter value_;
};

/// Last-write-wins instantaneous value (queue depth, hit rate, occupancy).
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  void add(double delta) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, encode(decode(cur) + delta),
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t encode(double v) {
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    __builtin_memcpy(&u, &v, sizeof(u));
    return u;
  }
  static double decode(std::uint64_t u) {
    double v;
    __builtin_memcpy(&v, &u, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram. `bounds` are ascending upper bounds; a value v
/// lands in the first bucket with v <= bound, or the implicit overflow
/// bucket past the last bound (so there are bounds.size()+1 buckets).
/// `observe` is lock-free: one relaxed bucket increment plus relaxed
/// count/sum updates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  [[nodiscard]] std::uint64_t count() const { return count_.get(); }
  [[nodiscard]] double sum() const { return sum_.value(); }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i] (last entry == count()
  /// once writers quiesce). Sized bounds().size()+1.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  void reset();

 private:
  std::vector<double> bounds_;                   ///< ascending, immutable
  std::vector<support::RelaxedCounter> buckets_; ///< bounds_.size()+1
  support::RelaxedCounter count_;
  Gauge sum_;
};

/// Default latency bounds in milliseconds (sub-ms compile phases up to
/// multi-second batches).
[[nodiscard]] const std::vector<double>& default_ms_bounds();

/// The registry. Use `MetricsRegistry::global()` for process-wide
/// telemetry; tests construct their own instances for isolation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (immortal; never destroyed, so instrument
  /// references taken from it are safe in static destructors).
  static MetricsRegistry& global();

  /// The instrument named `name`, created on first sight. References stay
  /// valid (and lock-free) for the registry's lifetime. Re-requesting a
  /// name always returns the same instrument; requesting an existing name
  /// as a different kind returns a distinct instrument per kind (names are
  /// namespaced by kind internally, so a misuse cannot alias storage).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies only on first creation (ignored on rehit; callers of
  /// the same histogram should agree on bounds).
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds = default_ms_bounds());

  /// Stable-sorted JSON snapshot:
  ///   {"counters":{...},"gauges":{...},"histograms":{"name":
  ///     {"count":N,"sum":S,"buckets":[{"le":B,"count":N},...]}}}
  /// Keys are name-sorted; doubles render with up to 6 significant
  /// decimals, integers as integers.
  [[nodiscard]] std::string render_json() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Formats a double the way render_json does (integral values without a
/// fraction, otherwise up to 6 significant decimals) — shared with HEALTH
/// rendering so the two surfaces agree.
[[nodiscard]] std::string json_number(double v);

/// Appends `text` to `out` as a quoted JSON string (quotes, backslashes and
/// control bytes escaped). The one escaper behind render_json, HEALTH, the
/// Chrome-trace export and span args.
void append_json_string(std::string& out, std::string_view text);

}  // namespace tydi::obs
