// Copyable relaxed atomic counters for stats structs that are shared
// across concurrent compiles.
//
// The compile stack reports per-compile cache behaviour through small value
// structs (elab::InstantiationStats) that are incremented on hot paths,
// aggregated with `+=`, and copied into results. With the template
// memo and the session caches now serving concurrent compiles, those
// counters are bumped from many threads at once; `RelaxedCounter` keeps the
// value-struct ergonomics (copy, `++`, `+=`, implicit read) while making
// every access a relaxed atomic so parallel compiles stay TSan-clean.
//
// Relaxed ordering is deliberate: the counters are monotonic telemetry, not
// synchronization points — readers only ever want an approximate snapshot.
#pragma once

#include <atomic>
#include <cstdint>

namespace tydi::support {

/// A std::atomic<uint64_t> that copies by value (relaxed load/store), so
/// structs of counters stay copyable and assignable like plain integers.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(std::uint64_t v) : value_(v) {}  // NOLINT(runtime/explicit)
  RelaxedCounter(const RelaxedCounter& o) : value_(o.get()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    value_.store(o.get(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
    return *this;
  }

  /// Implicit read so counters drop into arithmetic and stream output.
  operator std::uint64_t() const { return get(); }  // NOLINT
  [[nodiscard]] std::uint64_t get() const {
    return value_.load(std::memory_order_relaxed);
  }

  RelaxedCounter& operator++() {
    value_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace tydi::support
