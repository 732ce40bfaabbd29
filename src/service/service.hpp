// Compile service core — the `tydid` daemon minus the transport.
//
// A CompileService owns one long-lived driver::CompileSession (the
// process-wide template memo, parse cache and emission caches) and answers
// textual compile requests against it. The service is the *library*; the
// socket server in src/service/server.hpp is a thin transport that feeds it
// request lines and writes back serialized responses, so every protocol
// behaviour is unit-testable without a socket.
//
// Overload safety (src/service/README.md has the full story): compile
// verbs are not executed on the calling thread. Unless the service is
// draining or out of RSS headroom (then `submit` sheds), the calling thread
// parses the line, reads and stamps the sources and probes the result
// cache; a hit is answered right there. A miss is *admitted* into a bounded
// two-class priority queue (interactive FILE/TPCH vs. batch; see
// queue.hpp), carrying its read sources, and compiled by a fixed worker
// pool, so a burst of clients can never pile up unbounded compile threads
// or memory. When the queue is full `submit` sheds immediately with
// StatusCode::kUnavailable and a retry-after-ms hint instead of queueing —
// bounded latency for everyone already admitted, an explicit
// machine-readable signal for everyone else.
// Meta verbs (PING/STATS/METRICS/HEALTH/INVALIDATE/SHUTDOWN) execute
// inline on the calling thread so introspection stays responsive at any
// load.
//
// Wire protocol (newline-delimited, documented with examples in
// src/driver/README.md):
//
//   request  := [envelope...] VERB [args...] "\n"
//   envelope := "PRIO" SP ("interactive"|"batch")
//             | "DEADLINE_MS" SP <ms>
//             | "ATTEMPT" SP <n>
//   response := ("OK" | "ERR") SP exit_code SP payload_bytes
//               [SP retry_after_ms] "\n"
//               payload (exactly payload_bytes bytes) "\n"
//
// Envelope tokens may precede any verb, in any order:
//   PRIO        queue class (default: interactive for FILE/TPCH/SLEEP)
//   DEADLINE_MS the caller stops waiting after this many ms. Folded into
//               the per-request compile budget, and a request whose
//               deadline expires while still queued is shed (kUnavailable)
//               instead of executed — work is never done for a caller
//               that already gave up.
//   ATTEMPT     1-based retry attempt (telemetry only: attempts > 1 count
//               into tydi.service.retried_requests).
//
// Verbs:
//   PING                                liveness probe; payload "pong"
//   STATS                               the numeric HEALTH fields, one
//                                       "name value" line each (flags as
//                                       0/1, string fields omitted)
//   METRICS                             process metrics registry as JSON
//   HEALTH                              liveness JSON of the status fields
//                                       (status, uptime_ms, in_flight,
//                                       queue_depth, workers, draining,
//                                       registry counts such as requests,
//                                       failures, shed_total, memo_hit_rate,
//                                       result_cache_hits, the session cache
//                                       sizes, journal/replay state,
//                                       last_abort)
//   INVALIDATE                          drop every session cache, the
//                                       result cache and the source cache
//   SHUTDOWN                            stop admitting (drain begins); the
//                                       transport drains and exits
//   TPCH <n> <vhdl|ir> [budget_ms]      compile built-in TPC-H query n
//   FILE <path[,path...]> <top> <vhdl|ir> [budget_ms]
//                                       compile .td files (comma-separated,
//                                       compiled in list order) against
//                                       `top`
//   SLEEP <ms>                          debug/test verb: occupy one worker
//                                       for ms (polls cancellation +
//                                       deadline); payload
//                                       "slept <ms> seq <n>" where n is the
//                                       global execution sequence number —
//                                       overload and priority-order tests
//                                       are built on it
//
// exit_code is the support::Status exit code of the request (stable 0-12
// taxonomy, identical to the `tydic` process exit codes), so a client can
// dispatch on the class — parse error vs. watchdog abort vs. shed — without
// scraping the payload. Shed responses (exit 12, kUnavailable) carry the
// optional retry_after_ms header field: the daemon's own estimate of when
// capacity frees up, honored by the retrying client (support::Retry).
// Failed compiles carry the rendered diagnostics as payload.
//
// Per-request timeouts are the driver's own: a compile runs with
// CompileOptions::budget_ms = its budget min'd with the remaining
// DEADLINE_MS, and CompileOptions::cancelled polling the cancel flag the
// transport trips when the client disconnects. The driver checks both at
// every phase boundary (kAborted, phase "watchdog"), so work for dead
// peers aborts instead of running to completion.
//
// Thread-safety: submit/handle_line may be called from any number of
// transport threads concurrently — admission is a result-cache probe (the
// cache has its own mutex) and a try_push on the bounded queue, the
// underlying session caches synchronize themselves, and every
// count goes to the process-wide obs::MetricsRegistry (tydi.service.*),
// which HEALTH and STATS read at call time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/service/queue.hpp"
#include "src/service/result_cache.hpp"
#include "src/service/source_cache.hpp"
#include "src/service/warmup.hpp"
#include "src/support/status.hpp"

namespace tydi::service {

struct ServiceConfig {
  /// Wall-clock budget applied to requests that do not name one
  /// (ms; 0 = unlimited).
  double default_budget_ms = 0.0;
  /// Upper clamp on any requested budget (ms; 0 = no clamp). Lets a
  /// deployment bound worst-case request latency whatever clients ask for.
  double max_budget_ms = 0.0;
  /// Fixed worker pool size executing queued compile requests.
  /// <= 0: max(2, hardware_concurrency).
  int workers = 0;
  /// Bound on queued-but-not-yet-executing requests (both classes
  /// combined). Admission beyond it sheds with kUnavailable.
  std::size_t queue_capacity = 64;
  /// Shed new compile admissions while the process RSS high-water mark
  /// exceeds this many MiB (0 = disabled). The memory-headroom half of
  /// admission control.
  std::uint64_t rss_shed_mb = 0;
  /// How long `drain()` lets queued + in-flight work finish before
  /// cancelling in-flight requests and shedding the rest of the queue.
  double drain_deadline_ms = 5000.0;
  /// Durable compile journal path ("" = durability disabled). Recovered at
  /// construction — a torn or corrupt journal truncates to its longest
  /// valid prefix and boots cold past that, never refuses to serve.
  std::string journal_path;
  /// Wall-clock bound on startup replay (ms; 0 = unlimited).
  double replay_budget_ms = 0.0;
  /// Deterministic I/O fault plan for the journal (tests only).
  support::IoFaultPlan journal_faults;
};

/// One answered request: the machine-readable classification plus the
/// payload bytes (emitted text, rendered diagnostics, or meta output).
struct Response {
  support::Status status;
  /// The payload, shared rather than owned: a result-cache hit answers with
  /// the cached string itself, and a fresh compile hands its text to the
  /// cache without a copy. Null reads as an empty payload.
  std::shared_ptr<const std::string> body;
  /// A result-cache hit's complete wire frame (see ReplyFrame): the same
  /// bytes as `serialize()`, which the transport sends with sendfile. Null
  /// for every other response.
  std::shared_ptr<const ReplyFrame> frame;
  /// Set by SHUTDOWN: the transport should stop accepting after replying.
  bool shutdown = false;
  /// > 0 on shed responses (kUnavailable): the daemon's backoff hint in
  /// ms, serialized as the optional fourth header field.
  double retry_after_ms = 0.0;

  [[nodiscard]] bool ok() const { return status.is_ok(); }
  [[nodiscard]] const std::string& payload() const;
  void set_payload(std::string text);
  /// `OK 0 1234` / `ERR 4 87` / `ERR 12 31 50` — the response header line
  /// (no newline; the trailing field appears only when retry_after_ms > 0).
  [[nodiscard]] std::string header() const;
  /// Full wire form: header + "\n" + payload + "\n".
  [[nodiscard]] std::string serialize() const;
};

/// One HEALTH/STATS field: a number, a flag or a string. HEALTH renders the
/// whole list as one JSON object; STATS renders the numbers and flags.
/// `name` views a string literal.
struct StatusField {
  std::string_view name;
  std::variant<double, bool, std::string> value;
};

/// HEALTH's payload: every field, as one JSON object.
[[nodiscard]] std::string render_health(const std::vector<StatusField>& fields);
/// STATS' payload: one "name value" line per number or flag (0/1); string
/// fields are omitted, so a `>> name >> value` reader never stops early.
[[nodiscard]] std::string render_stats(const std::vector<StatusField>& fields);

/// Parses one serialized response back into a Response (used by the client
/// side and the protocol tests). `wire` must contain at least one full
/// response; trailing bytes are ignored. Returns false on a malformed
/// header or truncated payload.
[[nodiscard]] bool parse_response(std::string_view wire, Response& out);

/// The parsed request envelope: priority/deadline/attempt prefix tokens
/// plus the remaining "VERB args..." text. Exposed for tests.
struct RequestEnvelope {
  Priority priority = Priority::kInteractive;
  /// Caller-propagated deadline in ms from admission (0 = none).
  double deadline_ms = 0.0;
  /// 1-based retry attempt (1 = first try).
  std::uint64_t attempt = 1;
  /// The request line with envelope tokens stripped.
  std::string rest;
};

/// Splits envelope tokens off the front of `line`. Returns false (and sets
/// `error`) on a malformed envelope token.
[[nodiscard]] bool parse_envelope(std::string_view line,
                                  RequestEnvelope& out, std::string& error);

/// Handle to one submitted request. Meta verbs, result-cache hits, refused
/// lines and sheds complete before `submit` returns; queued compile verbs
/// complete when a worker finishes
/// (or the request is cancelled/shed). Copyable — all copies share state.
class PendingRequest {
 public:
  struct State;

  PendingRequest() = default;

  /// Waits up to `ms` for completion; true when done.
  [[nodiscard]] bool wait_for(double ms) const;
  /// Blocks until the response is ready and moves it out. Single use: a
  /// second take() (through any copy) returns a moved-from Response.
  [[nodiscard]] Response take();
  /// Trips the request's cancellation hook (the transport calls this when
  /// the client disconnects): a still-queued request completes kAborted
  /// without executing; an executing compile observes the flag at its next
  /// cancellation poll and aborts. Idempotent.
  void cancel();
  /// The submitting thread's CPU clock (obs::thread_cpu_ms) as admission
  /// began, for a compile verb answered at admission; negative for every
  /// other request. The transport subtracts it from the clock after its
  /// reply write: tydi.service.request_cpu_ms.
  [[nodiscard]] double admission_cpu_ms() const;

 private:
  friend class CompileService;
  explicit PendingRequest(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class CompileService {
 public:
  explicit CompileService(ServiceConfig config = ServiceConfig{});
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Admits one request line (no trailing newline required). Never throws
  /// and never blocks on compile work: meta verbs and result-cache hits are
  /// answered inline, other compile verbs are queued for the worker pool or
  /// shed (kUnavailable) when the queue is full / RSS headroom is gone / the
  /// service is draining.
  /// Malformed requests produce an ERR response with kInvalidArgument.
  [[nodiscard]] PendingRequest submit(const std::string& line);

  /// Convenience: submit + take (blocks until the response is ready).
  [[nodiscard]] Response handle_line(const std::string& line);

  /// Stops admitting compile requests (subsequent submissions shed with
  /// kUnavailable "draining"). Already-queued and in-flight work is
  /// unaffected. Idempotent; the SHUTDOWN verb calls this.
  void begin_drain();

  /// Blocks until queued + in-flight work completes, up to the configured
  /// drain deadline; past it, cancels in-flight requests and sheds the
  /// remaining queue. Joins the worker pool — the service stops executing
  /// after drain() returns (pending submissions all hold responses).
  void drain();

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] driver::CompileSession& session() { return session_; }
  [[nodiscard]] const ResultCache& result_cache() const {
    return result_cache_;
  }
  [[nodiscard]] const SourceCache& source_cache() const {
    return source_cache_;
  }

  /// The durable compile journal (nullptr when journal_path was empty or
  /// the journal could not be opened at all).
  [[nodiscard]] warmup::CompileJournal* journal() { return journal_.get(); }

  /// Starts the background startup-replay thread: the live key set
  /// recovered from the journal is resubmitted through the normal
  /// admission path as "PRIO batch" work, bounded by replay_budget_ms,
  /// stale-stamp entries skipped, and every entry sheddable by live
  /// traffic. No-op without a journal or when already started.
  /// Idempotent.
  void start_replay();
  /// True once startup replay finished (or never needed to run).
  [[nodiscard]] bool replay_done() const {
    return replay_done_.load(std::memory_order_acquire);
  }
  /// Blocks until startup replay finishes (returns immediately when it
  /// never started).
  void wait_replay();

  /// Requests currently executing or queued (live introspection; HEALTH
  /// reports executing + queued separately).
  [[nodiscard]] std::int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] int workers() const { return worker_count_; }

  /// Builds (and counts) a shed response for a transport-level rejection —
  /// the server uses this when the connection limit is hit, so connection
  /// sheds and queue sheds share one taxonomy and one counter.
  [[nodiscard]] Response shed_response(const std::string& reason);

 private:
  [[nodiscard]] Response dispatch_meta(std::string_view verb,
                                       std::uint64_t request_id);
  void worker_main();
  void execute(const std::shared_ptr<PendingRequest::State>& state);
  /// The admission half of a queued verb, run by `submit` on the calling
  /// thread: parse the line, read (through the source cache) and stamp the
  /// sources, build the durable key, probe the result cache. Returns the
  /// answer of a hit or a refused request; nullopt when the request needs a
  /// worker, its job stored in `state`.
  [[nodiscard]] std::optional<Response> prepare(PendingRequest::State& state);
  /// The worker half: compile the prepared job, store an admitted payload,
  /// journal the key (or run a SLEEP).
  [[nodiscard]] Response run(PendingRequest::State& state);
  [[nodiscard]] Response compile_request(PendingRequest::State& state);
  [[nodiscard]] Response sleep_request(double ms,
                                       PendingRequest::State& state);
  /// Effective wall-clock budget: the request's (or default) budget,
  /// clamped by max_budget_ms, min'd with the remaining DEADLINE_MS.
  [[nodiscard]] double effective_budget_ms(
      double requested_ms, const PendingRequest::State& state) const;
  [[nodiscard]] double retry_after_hint_ms() const;
  void finish(const std::shared_ptr<PendingRequest::State>& state,
              Response response);
  /// The HEALTH/STATS field list: registry counts plus live service and
  /// session state, read at call time.
  [[nodiscard]] std::vector<StatusField> status_fields() const;
  void record_abort(const support::Status& status);
  void cancel_until_idle();
  void join_workers();
  void open_journal();
  /// Journals one successfully compiled key (no-op without a journal).
  void journal_success(const warmup::JournalEntry& entry);
  void replay_main();

  ServiceConfig config_;
  int worker_count_ = 0;
  driver::CompileSession session_;
  /// Whole-result cache probed by prepare, filled by run
  /// (src/service/README.md, "Result cache").
  ResultCache result_cache_;
  /// FILE sources by path, reused while unchanged (src/service/README.md,
  /// "Reading FILE sources").
  SourceCache source_cache_;
  BoundedPriorityQueue<std::shared_ptr<PendingRequest::State>> queue_;
  std::vector<std::thread> workers_;
  std::once_flag join_once_;

  /// Requests currently inside execute() — the drain deadline cancels
  /// these through their shared states.
  std::mutex active_mu_;
  std::vector<std::shared_ptr<PendingRequest::State>> active_;

  std::atomic<bool> draining_{false};
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> exec_seq_{0};
  /// EWMA of execution wall-clock in us (relaxed; feeds the retry-after
  /// hint). Seeded at 50ms so a cold daemon hints something sane.
  std::atomic<std::uint64_t> avg_exec_us_{50000};
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  /// Rendered status of the most recent kAborted compile ("" if none yet);
  /// HEALTH surfaces it so operators see watchdog fires without log diving.
  mutable std::mutex last_abort_mu_;
  std::string last_abort_;

  // Durability (src/service/warmup.hpp). journal_ is constructed only when
  // config_.journal_path is set and the path is at least creatable.
  std::unique_ptr<warmup::CompileJournal> journal_;
  /// Rendered kCorruptData status when boot recovery dropped bytes ("" on
  /// a clean boot) — HEALTH's journal_error field.
  std::string journal_boot_error_;
  std::atomic<bool> replay_done_{true};
  std::atomic<bool> replay_started_{false};
  std::thread replay_thread_;
};

}  // namespace tydi::service
