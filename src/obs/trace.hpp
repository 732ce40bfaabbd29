// Low-overhead span tracer with Chrome trace-event export.
//
// Spans are `(name, start_ns, dur_ns, tid, args)` records written into
// per-thread ring buffers and exported as Chrome trace-event JSON
// (`chrome://tracing` / `about:tracing` / Perfetto all load it). The
// tracer is disabled by default: a `Span` on a disabled tracer is one
// relaxed atomic load and no clock reads, so instrumentation can stay in
// the hot paths permanently (the bench_compile_perf `obs_overhead`
// section gates the enabled cost too).
//
// Concurrency model:
//  - each thread writes to its own ring (registered once, cached in a
//    thread_local), so recording never contends with other writers;
//  - a ring overwrites its oldest record when full (capacity is fixed at
//    registration) — tracing a long batch keeps the *latest* window;
//  - rings are shared_ptr-owned by the tracer AND the thread_local, so
//    records survive worker-thread exit and export after `join()` sees
//    everything; `clear()` drops the rings the tracer alone still holds
//    (their threads have exited), so short-lived threads do not pile up;
//  - `export_chrome_json()` locks each ring briefly while copying; it
//    may run concurrently with recording (the snapshot is approximate,
//    like every live profiler).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tydi::obs {

struct SpanRecord {
  std::string name;
  std::string args;  ///< pre-rendered JSON object *body* ("" = no args)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< tracer-assigned sequential thread id
};

class SpanTracer {
 public:
  /// `ring_capacity`: spans retained per thread before overwrite-oldest.
  explicit SpanTracer(std::size_t ring_capacity = 16384);
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// The process-wide tracer (immortal). Enabled by `tydic
  /// --trace-profile`, `tydid`'s trace flag, and the benches.
  static SpanTracer& global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the process trace epoch (steady clock).
  [[nodiscard]] static std::int64_t now_ns();

  /// Appends a finished span to this thread's ring. Called by `Span`;
  /// callable directly for spans whose lifetime doesn't fit RAII.
  void record(std::string_view name, std::int64_t start_ns,
              std::int64_t dur_ns, std::string args = {});

  /// All retained spans, copied out and sorted by (start_ns, tid, name)
  /// for deterministic output.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Chrome trace-event JSON: {"traceEvents":[{"name","cat":"tydi",
  /// "ph":"X","ts":<us>,"dur":<us>,"pid":1,"tid",...},...]}.
  [[nodiscard]] std::string export_chrome_json() const;

  /// Total spans currently retained across all rings.
  [[nodiscard]] std::size_t size() const;

  /// Registered rings: one per thread that recorded since the last
  /// `clear()`, plus one per live thread that recorded before it.
  [[nodiscard]] std::size_t ring_count() const;

  /// Drops all retained spans, and the rings of threads that have exited;
  /// a live thread's ring stays registered.
  void clear();

 private:
  struct Ring {
    Ring(std::uint32_t tid, std::size_t cap) : tid(tid), capacity(cap) {}
    const std::uint32_t tid;
    const std::size_t capacity;
    mutable std::mutex mu;  ///< writer is one thread; export also locks
    std::vector<SpanRecord> records;  ///< grows to capacity, then wraps
    std::size_t next = 0;             ///< overwrite cursor once full
  };

  Ring& this_thread_ring();

  const std::uint64_t id_;  ///< process-unique tracer identity
  const std::size_t ring_capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_tid_{1};
  mutable std::mutex rings_mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

/// RAII span: captures the clock on construction and records on
/// destruction. On a disabled tracer both ends are a relaxed load — no
/// clock reads, no allocation, no ring touch.
class Span {
 public:
  explicit Span(std::string_view name)
      : Span(SpanTracer::global(), name) {}
  Span(SpanTracer& tracer, std::string_view name) {
    if (tracer.enabled()) {
      tracer_ = &tracer;
      name_ = name;
      start_ns_ = SpanTracer::now_ns();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, start_ns_,
                      SpanTracer::now_ns() - start_ns_, std::move(args_));
    }
  }

  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

  /// Attach `"key":<value>` args (no-ops when inactive, so arg building
  /// costs nothing on the disabled path).
  Span& arg(std::string_view key, std::string_view value);
  Span& arg(std::string_view key, std::int64_t value);
  Span& arg(std::string_view key, std::uint64_t value) {
    return arg(key, static_cast<std::int64_t>(value));
  }

 private:
  SpanTracer* tracer_ = nullptr;
  std::string name_;
  std::string args_;
  std::int64_t start_ns_ = 0;
};

}  // namespace tydi::obs
