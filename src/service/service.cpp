#include "src/service/service.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <optional>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/guard.hpp"
#include "src/support/text.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi::service {

using support::Status;
using support::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

}  // namespace

/// Why an executing/queued request was cancelled (first cause wins — the
/// response message and the metrics tell disconnects apart from drains).
enum class CancelReason : std::uint8_t { kNone = 0, kClientGone, kDrain };

/// A queued verb resolved at admission (CompileService::prepare): what the
/// worker runs, so it never re-reads, re-hashes or re-parses anything.
struct PreparedJob {
  bool sleep = false;
  double ms = 0.0;  ///< SLEEP duration, else the request's budget_ms
  std::vector<driver::NamedSource> sources;
  driver::CompileOptions options;  ///< emit kind already set
  /// The durable key (its stamps hash the sources) and its serialization,
  /// which keys the result cache.
  warmup::JournalEntry key;
  std::string key_text;
  /// The result-cache lookup said: store a successful payload.
  bool admit = false;
};

/// Shared state of one submitted request: the completion slot the
/// transport waits on, plus everything a worker needs to execute it.
struct PendingRequest::State {
  // Completion slot.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Response response;

  // Cancellation: polled by the executing compile at phase boundaries and
  // by SLEEP every few ms; checked by workers before starting.
  std::atomic<std::uint8_t> cancel{
      static_cast<std::uint8_t>(CancelReason::kNone)};

  // Immutable after admission.
  std::string line;  ///< envelope-stripped "VERB args..."
  RequestEnvelope envelope;
  std::uint64_t request_id = 0;
  Clock::time_point admitted;
  /// admitted + envelope.deadline_ms; only meaningful with has_deadline.
  Clock::time_point deadline;
  bool has_deadline = false;

  // Written by prepare before the push; the worker that pops it owns them.
  PreparedJob job;
  /// Time spent in prepare; a worker adds it to request_ms.
  double prepare_ms = 0.0;
  /// See PendingRequest::admission_cpu_ms; written before finish().
  double admission_cpu_ms = -1.0;
  Clock::time_point queued;

  [[nodiscard]] CancelReason cancel_reason() const {
    return static_cast<CancelReason>(cancel.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool cancelled() const {
    return cancel_reason() != CancelReason::kNone;
  }
  void request_cancel(CancelReason reason) {
    std::uint8_t expected = static_cast<std::uint8_t>(CancelReason::kNone);
    cancel.compare_exchange_strong(expected,
                                   static_cast<std::uint8_t>(reason),
                                   std::memory_order_relaxed);
  }
  [[nodiscard]] bool deadline_expired() const {
    return has_deadline && Clock::now() > deadline;
  }
  [[nodiscard]] double deadline_remaining_ms() const {
    return std::chrono::duration<double, std::milli>(deadline - Clock::now())
        .count();
  }
};

bool PendingRequest::wait_for(double ms) const {
  if (!state_) return true;
  std::unique_lock lock(state_->mu);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(ms),
      [&] { return state_->done; });
}

Response PendingRequest::take() {
  if (!state_) return Response{};
  std::unique_lock lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return std::move(state_->response);
}

void PendingRequest::cancel() {
  if (state_) state_->request_cancel(CancelReason::kClientGone);
}

double PendingRequest::admission_cpu_ms() const {
  if (!state_) return -1.0;
  std::lock_guard lock(state_->mu);
  return state_->admission_cpu_ms;
}

const std::string& Response::payload() const {
  static const std::string empty;
  return body != nullptr ? *body : empty;
}

void Response::set_payload(std::string text) {
  body = std::make_shared<const std::string>(std::move(text));
}

std::string Response::header() const {
  std::string out = ok() ? "OK " : "ERR ";
  out += std::to_string(status.exit_code());
  out += ' ';
  out += std::to_string(payload().size());
  if (retry_after_ms > 0.0) {
    out += ' ';
    out += std::to_string(
        static_cast<std::uint64_t>(retry_after_ms + 0.5));
  }
  return out;
}

std::string Response::serialize() const {
  std::string out = header();
  out += '\n';
  out += payload();
  out += '\n';
  return out;
}

namespace {

/// The whitespace-separated tokens of a protocol line, as views into it.
/// The separators are the ones `operator>>` skips: space, \t, \n, \v, \f,
/// \r. The one tokenizer of request lines and response headers.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// The next token; empty at the end of the line.
  std::string_view next() {
    std::size_t b = 0;
    while (b < rest_.size() && is_space(rest_[b])) ++b;
    std::size_t e = b;
    while (e < rest_.size() && !is_space(rest_[e])) ++e;
    const std::string_view token = rest_.substr(b, e - b);
    rest_.remove_prefix(e);
    return token;
  }
  /// The unread rest of the line, separators included.
  [[nodiscard]] std::string_view rest() const { return rest_; }

 private:
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view rest_;
};

template <typename T>
bool parse_number(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

bool parse_response(std::string_view wire, Response& out) {
  const std::size_t eol = wire.find('\n');
  if (eol == std::string_view::npos) return false;
  Tokens header(wire.substr(0, eol));
  const std::string_view verdict = header.next();
  int code = 0;
  std::size_t bytes = 0;
  if (!parse_number(header.next(), code) ||
      !parse_number(header.next(), bytes)) {
    return false;
  }
  if (verdict != "OK" && verdict != "ERR") return false;
  double retry_after = 0.0;
  if (!parse_number(header.next(), retry_after)) retry_after = 0.0;
  std::string_view rest = wire.substr(eol + 1);
  if (rest.size() < bytes) return false;
  out.set_payload(std::string(rest.substr(0, bytes)));
  out.shutdown = false;
  out.retry_after_ms = retry_after;
  if (verdict == "OK") {
    out.status = Status::ok();
  } else {
    // The wire carries the exit code, not the full Status; reconstruct a
    // classification that round-trips the exit code.
    out.status = Status::error(support::status_code_for_exit(code),
                               "service", "remote failure");
  }
  return true;
}

bool parse_envelope(std::string_view line, RequestEnvelope& out,
                    std::string& error) {
  out = RequestEnvelope{};
  Tokens fields(line);
  for (std::string_view token = fields.next(); !token.empty();
       token = fields.next()) {
    if (token == "PRIO") {
      const std::string_view value = fields.next();
      if (value != "interactive" && value != "batch") {
        error = "usage: PRIO <interactive|batch>";
        return false;
      }
      out.priority =
          value == "batch" ? Priority::kBatch : Priority::kInteractive;
    } else if (token == "DEADLINE_MS") {
      const std::string_view value = fields.next();
      if (value.empty()) {
        error = "usage: DEADLINE_MS <ms>";
        return false;
      }
      double ms = 0.0;
      if (!parse_number(value, ms) || ms <= 0.0) {
        error = "bad DEADLINE_MS '" + std::string(value) + "'";
        return false;
      }
      out.deadline_ms = ms;
    } else if (token == "ATTEMPT") {
      std::uint64_t n = 0;
      if (!parse_number(fields.next(), n) || n == 0) {
        error = "usage: ATTEMPT <n>";
        return false;
      }
      out.attempt = n;
    } else {
      // First non-envelope token: the verb. Everything from here to the
      // end of the line is the request proper.
      const std::string_view tail = fields.rest();
      out.rest.assign(token.data(),
                      token.size() + std::min(tail.find('\n'), tail.size()));
      return true;
    }
  }
  return true;  // envelope only / empty line
}

CompileService::CompileService(ServiceConfig config)
    : config_(config),
      worker_count_(config.workers > 0
                        ? config.workers
                        : static_cast<int>(std::max(
                              2u, std::thread::hardware_concurrency()))),
      queue_(config.queue_capacity) {
  open_journal();
  if (journal_) {
    // Recovered keys were sighted by the previous process: replay admits
    // them, so the first live request after a restart is a whole-result hit.
    for (const warmup::JournalEntry& entry : journal_->recovered_entries()) {
      result_cache_.mark_sighted(entry.serialize());
    }
  }
  workers_.reserve(static_cast<std::size_t>(worker_count_));
  for (int i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this]() { worker_main(); });
  }
}

CompileService::~CompileService() {
  // Don't wait for in-flight work on destruction: cancel it, shed the
  // queue, join. (The daemon path calls drain() first, which is the
  // graceful variant.)
  begin_drain();
  cancel_until_idle();
  queue_.close();
  join_workers();
  wait_replay();
}

void CompileService::open_journal() {
  if (config_.journal_path.empty()) return;
  auto journal = std::make_unique<warmup::CompileJournal>();
  if (config_.journal_faults.enabled()) {
    journal->set_fault_plan(config_.journal_faults);
  }
  const Status status = journal->open(config_.journal_path);
  if (!status.is_ok()) {
    // The path itself is unusable (unreadable/uncreatable). Serve without
    // durability rather than refusing to boot; HEALTH carries the reason.
    journal_boot_error_ = status.render();
    return;
  }
  if (journal->recovered_corrupt()) {
    // Torn tail or corruption truncated away: this boot is (partially)
    // cold. The classification HEALTH reports is kCorruptData.
    journal_boot_error_ =
        Status::error(StatusCode::kCorruptData, "journal",
                      "recovered journal dropped " +
                          std::to_string(journal->recovery_dropped_bytes()) +
                          " corrupt tail byte(s); continuing from " +
                          std::to_string(journal->recovered_records()) +
                          " valid record(s)")
            .render();
  }
  journal_ = std::move(journal);
}

/// Sheds everything queued and cancels everything executing, sweeping
/// until no request is queued or active. A worker may pop a queued item
/// between the flush and the cancel sweep; the next sweep catches it once
/// it registers as active, so this always converges (cancelled work aborts
/// within one poll interval).
void CompileService::cancel_until_idle() {
  static obs::Counter& cancelled_metric =
      obs::MetricsRegistry::global().counter("tydi.service.drain_cancelled");
  for (;;) {
    for (const auto& state : queue_.drain_remaining()) {
      finish(state, shed_response("draining; daemon is shutting down"));
    }
    bool active_empty;
    {
      std::lock_guard lock(active_mu_);
      active_empty = active_.empty();
      for (const auto& state : active_) {
        if (!state->cancelled()) ++cancelled_metric;
        state->request_cancel(CancelReason::kDrain);
      }
    }
    if (active_empty && queue_.depth() == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

namespace {

Response error_response(StatusCode code, const std::string& message) {
  Response r;
  r.status = Status::error(code, "service", message);
  r.set_payload(r.status.render() + "\n");
  return r;
}

bool is_queued_verb(std::string_view verb) {
  return verb == "TPCH" || verb == "FILE" || verb == "SLEEP";
}

}  // namespace

std::string render_health(const std::vector<StatusField>& fields) {
  std::string out = "{";
  for (const StatusField& field : fields) {
    if (out.size() > 1) out += ',';
    obs::append_json_string(out, field.name);
    out += ':';
    if (const double* n = std::get_if<double>(&field.value)) {
      out += obs::json_number(*n);
    } else if (const bool* flag = std::get_if<bool>(&field.value)) {
      out += *flag ? "true" : "false";
    } else {
      obs::append_json_string(out, std::get<std::string>(field.value));
    }
  }
  out += '}';
  return out;
}

std::string render_stats(const std::vector<StatusField>& fields) {
  std::string out;
  for (const StatusField& field : fields) {
    if (std::holds_alternative<std::string>(field.value)) continue;
    out += field.name;
    out += ' ';
    const double* n = std::get_if<double>(&field.value);
    out += n != nullptr ? obs::json_number(*n)
                        : std::string(std::get<bool>(field.value) ? "1" : "0");
    out += '\n';
  }
  return out;
}

Response CompileService::shed_response(const std::string& reason) {
  static obs::Counter& shed_metric =
      obs::MetricsRegistry::global().counter("tydi.service.shed_total");
  ++shed_metric;
  Response r = error_response(StatusCode::kUnavailable, reason);
  r.retry_after_ms = retry_after_hint_ms();
  return r;
}

double CompileService::retry_after_hint_ms() const {
  // Rough time for the backlog ahead of a retry to clear: queued requests
  // times the average execution time, divided across the pool. Clamped so
  // a cold daemon hints something usable and a deep queue cannot push
  // clients out forever.
  const double avg_ms =
      static_cast<double>(avg_exec_us_.load(std::memory_order_relaxed)) /
      1000.0;
  const double backlog =
      static_cast<double>(queue_.depth() + 1) * avg_ms /
      static_cast<double>(worker_count_);
  return std::clamp(backlog, 25.0, 2000.0);
}

void CompileService::finish(
    const std::shared_ptr<PendingRequest::State>& state, Response response) {
  if (!response.ok()) {
    static obs::Counter& failures_metric =
        obs::MetricsRegistry::global().counter("tydi.service.failures");
    ++failures_metric;
    if (response.status.code() == StatusCode::kAborted) {
      record_abort(response.status);
    }
  }
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(state->mu);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.notify_all();
}

PendingRequest CompileService::submit(const std::string& line) {
  static auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& requests_metric =
      reg.counter("tydi.service.requests");
  static obs::Counter& retried_metric =
      reg.counter("tydi.service.retried_requests");
  static obs::Gauge& depth_gauge = reg.gauge("tydi.service.queue_depth");
  static obs::Histogram& request_histogram =
      reg.histogram("tydi.service.request_ms");
  ++requests_metric;

  auto state = std::make_shared<PendingRequest::State>();
  state->request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  state->admitted = Clock::now();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  PendingRequest pending(state);

  std::string envelope_error;
  if (!parse_envelope(line, state->envelope, envelope_error)) {
    finish(state, error_response(StatusCode::kInvalidArgument,
                                 envelope_error));
    return pending;
  }
  if (state->envelope.attempt > 1) ++retried_metric;
  if (state->envelope.deadline_ms > 0.0) {
    state->has_deadline = true;
    state->deadline =
        state->admitted +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                state->envelope.deadline_ms));
  }
  state->line = std::move(state->envelope.rest);

  const std::string_view verb = Tokens(state->line).next();
  if (verb.empty()) {
    finish(state,
           error_response(StatusCode::kInvalidArgument, "empty request"));
    return pending;
  }

  if (!is_queued_verb(verb)) {
    // Meta verbs execute inline on the transport thread: cheap, and they
    // must stay responsive under overload (HEALTH during saturation is
    // exactly when an operator needs an answer).
    finish(state, dispatch_meta(verb, state->request_id));
    return pending;
  }

  // Admission control for compile verbs.
  if (draining_.load(std::memory_order_acquire)) {
    finish(state, shed_response("draining; daemon is shutting down"));
    return pending;
  }
  if (config_.rss_shed_mb > 0 &&
      sim::current_rss_mb() > config_.rss_shed_mb) {
    finish(state,
           shed_response("rss " + std::to_string(sim::current_rss_mb()) +
                         " MiB above shed threshold " +
                         std::to_string(config_.rss_shed_mb) + " MiB"));
    return pending;
  }
  // The parse → read → key → cache stages run here, on the thread that read
  // the line: a hit or a refused line is answered without the queue, a
  // miss is queued with its sources already read and stamped.
  const Clock::time_point prepare_start = Clock::now();
  const double cpu_start = obs::thread_cpu_ms();
  std::optional<Response> answer;
  {
    obs::Span span("service.request");
    span.arg("request_id", state->request_id)
        .arg("prio", to_string(state->envelope.priority));
    answer = prepare(*state);
  }
  state->prepare_ms = ms_since(prepare_start);
  if (answer) {
    request_histogram.observe(state->prepare_ms);
    state->admission_cpu_ms = cpu_start;
    finish(state, std::move(*answer));
    return pending;
  }
  state->queued = Clock::now();
  if (!queue_.try_push(state, state->envelope.priority)) {
    finish(state, shed_response(
                      "queue full (depth " +
                      std::to_string(queue_.depth()) + ", capacity " +
                      std::to_string(queue_.capacity()) + ")"));
    return pending;
  }
  depth_gauge.set(static_cast<double>(queue_.depth()));
  return pending;
}

Response CompileService::handle_line(const std::string& line) {
  return submit(line).take();
}

void CompileService::begin_drain() {
  const bool was_draining = draining_.exchange(true);
  if (!was_draining) {
    obs::MetricsRegistry::global().gauge("tydi.service.draining").set(1.0);
  }
}

void CompileService::drain() {
  begin_drain();
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(
              config_.drain_deadline_ms > 0.0 ? config_.drain_deadline_ms
                                              : 0.0));
  auto idle = [&] {
    if (queue_.depth() != 0) return false;
    std::lock_guard lock(active_mu_);
    return active_.empty();
  };
  while (!idle() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Drain deadline blown (or already idle): shed whatever is still queued
  // and cancel anything executing, then stop the pool.
  cancel_until_idle();
  queue_.close();
  join_workers();
  wait_replay();
  if (journal_) {
    // Final compaction on the graceful-exit path: the next boot recovers
    // the deduplicated live key set instead of the full append history.
    (void)journal_->compact();
  }
}

void CompileService::start_replay() {
  if (!journal_) return;
  if (replay_started_.exchange(true)) return;
  if (journal_->recovered_entries().empty()) return;
  replay_done_.store(false, std::memory_order_release);
  replay_thread_ = std::thread([this]() { replay_main(); });
}

void CompileService::wait_replay() {
  if (replay_thread_.joinable()) replay_thread_.join();
}

void CompileService::replay_main() {
  static obs::Gauge& ms_gauge =
      obs::MetricsRegistry::global().gauge("tydi.service.replay.ms");

  const std::vector<warmup::JournalEntry> entries =
      journal_->recovered_entries();
  double elapsed_ms = 0.0;
  {
    obs::Span span("service.replay");
    span.arg("entries", entries.size());
    elapsed_ms = warmup::replay_entries(
        entries, config_.replay_budget_ms,
        [this](const std::string& request) {
          // Through the normal admission path, as batch work: live
          // interactive traffic preempts replay in the queue, and the
          // same shedding that protects clients protects the restart.
          return handle_line("PRIO batch " + request).status;
        },
        [this] { return draining_.load(std::memory_order_acquire); });
  }
  ms_gauge.set(elapsed_ms);
  replay_done_.store(true, std::memory_order_release);
}

void CompileService::journal_success(const warmup::JournalEntry& entry) {
  if (journal_) journal_->record(entry);
}

void CompileService::join_workers() {
  std::call_once(join_once_, [&] {
    queue_.close();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
  });
}

void CompileService::worker_main() {
  std::shared_ptr<PendingRequest::State> state;
  while (queue_.pop(state)) {
    execute(state);
    state.reset();
  }
}

void CompileService::execute(
    const std::shared_ptr<PendingRequest::State>& state) {
  static auto& reg = obs::MetricsRegistry::global();
  static obs::Gauge& depth_gauge = reg.gauge("tydi.service.queue_depth");
  static obs::Histogram& wait_histogram =
      reg.histogram("tydi.service.queue_wait_ms");
  static obs::Histogram& exec_histogram =
      reg.histogram("tydi.service.request_ms");
  static obs::Counter& expired_metric =
      reg.counter("tydi.service.deadline_expired");
  static obs::Counter& disconnect_metric =
      reg.counter("tydi.service.disconnect_aborts");

  depth_gauge.set(static_cast<double>(queue_.depth()));
  wait_histogram.observe(ms_since(state->queued));

  // A dead client or an expired deadline means nobody is waiting: shed /
  // abort without executing.
  if (state->cancel_reason() == CancelReason::kClientGone) {
    ++disconnect_metric;
    finish(state, error_response(StatusCode::kAborted,
                                 "client disconnected before execution"));
    return;
  }
  if (state->deadline_expired()) {
    ++expired_metric;
    Response r = shed_response(
        "deadline expired after " +
        obs::json_number(ms_since(state->admitted)) + " ms in queue");
    finish(state, std::move(r));
    return;
  }

  {
    std::lock_guard lock(active_mu_);
    active_.push_back(state);
  }
  const Clock::time_point exec_start = Clock::now();
  Response response;
  {
    obs::Span span("service.request");
    span.arg("request_id", state->request_id)
        .arg("prio", to_string(state->envelope.priority));
    response = run(*state);
  }
  const double exec_ms = ms_since(exec_start);
  exec_histogram.observe(state->prepare_ms + exec_ms);
  // EWMA (alpha 1/4) of worker executions only, feeding the retry-after
  // hint: hits answered at admission never hold a worker.
  const std::uint64_t prev =
      avg_exec_us_.load(std::memory_order_relaxed);
  const auto sample = static_cast<std::uint64_t>(exec_ms * 1000.0);
  avg_exec_us_.store(prev - prev / 4 + sample / 4,
                     std::memory_order_relaxed);
  if (state->cancel_reason() == CancelReason::kClientGone &&
      response.status.code() == StatusCode::kAborted) {
    ++disconnect_metric;
  }
  {
    std::lock_guard lock(active_mu_);
    active_.erase(std::find(active_.begin(), active_.end(), state));
  }
  finish(state, std::move(response));
}

double CompileService::effective_budget_ms(
    double requested_ms, const PendingRequest::State& state) const {
  double budget = requested_ms > 0.0 ? requested_ms
                                     : config_.default_budget_ms;
  if (config_.max_budget_ms > 0.0 &&
      (budget <= 0.0 || budget > config_.max_budget_ms)) {
    budget = config_.max_budget_ms;
  }
  if (state.has_deadline) {
    // Never run past the caller's deadline: fold the remaining wait into
    // the budget (the floor of 1ms keeps it a budget rather than letting ~0
    // read as "unlimited").
    const double remaining = std::max(1.0, state.deadline_remaining_ms());
    budget = budget > 0.0 ? std::min(budget, remaining) : remaining;
  }
  return budget;
}

Response CompileService::sleep_request(double ms,
                                       PendingRequest::State& state) {
  const double budget = effective_budget_ms(0.0, state);
  const Clock::time_point start = Clock::now();
  const std::uint64_t seq =
      exec_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (;;) {
    const double elapsed = ms_since(start);
    if (elapsed >= ms) break;
    if (state.cancelled()) {
      return error_response(
          StatusCode::kAborted,
          state.cancel_reason() == CancelReason::kClientGone
              ? "client disconnected; sleep aborted"
              : "drain deadline; sleep aborted");
    }
    if (budget > 0.0 && elapsed >= budget) {
      return error_response(StatusCode::kAborted,
                            "budget/deadline exceeded; sleep aborted");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Response r;
  r.set_payload("slept " + obs::json_number(ms) + " seq " +
                std::to_string(seq));
  return r;
}

Response CompileService::compile_request(PendingRequest::State& state) {
  PreparedJob& job = state.job;
  exec_seq_.fetch_add(1, std::memory_order_relaxed);

  // The driver polls the budget (the request's, min'd with what is left of
  // its DEADLINE_MS) and the transport's cancel at every phase boundary;
  // either stops the compile as kAborted (phase "watchdog"), so compiles
  // for dead peers abort too.
  driver::CompileOptions options = std::move(job.options);
  options.budget_ms = effective_budget_ms(job.ms, state);
  options.cancelled = [&state] { return state.cancelled(); };
  // The key's stamps hashed each FILE source at admission; the compile
  // reuses them (TPCH keys carry none, so the compile hashes its own).
  std::vector<std::uint64_t> source_hashes;
  source_hashes.reserve(job.key.stamps.size());
  for (const warmup::SourceStampRecord& stamp : job.key.stamps) {
    source_hashes.push_back(stamp.hash);
  }
  driver::CompileResult result =
      session_.compile(job.sources, options, source_hashes);

  Response r;
  r.status = result.status();
  if (result.success()) {
    r.set_payload(options.emit_vhdl ? std::move(result.vhdl_text)
                                    : std::move(result.ir_text));
  } else {
    r.set_payload(result.report());
    if (r.status.code() == StatusCode::kAborted &&
        state.cancel_reason() == CancelReason::kClientGone) {
      r.status = Status::error(StatusCode::kAborted, "watchdog",
                               "client disconnected; compile aborted");
      r.set_payload(r.status.render() + "\n");
    }
  }
  return r;
}

namespace {

/// The fields of a queued request line, as views into it.
struct QueuedRequest {
  std::string_view verb;
  std::string_view subject;  ///< SLEEP ms, TPCH query number, FILE path list
  std::vector<std::string_view> paths;  ///< FILE: the non-empty list entries
  std::string_view top;                 ///< FILE
  std::string_view emit;                ///< TPCH, FILE
  double ms = 0.0;                      ///< SLEEP duration, else budget_ms
};

Status usage_error(std::string message) {
  return Status::error(StatusCode::kInvalidArgument, "service",
                       std::move(message));
}

/// Splits a queued verb's line into its fields; the errors are the replies
/// a malformed line gets.
Status parse_queued(std::string_view line, QueuedRequest& out) {
  Tokens fields(line);
  out.verb = fields.next();
  out.subject = fields.next();
  if (out.verb == "SLEEP") {
    if (!parse_number(out.subject, out.ms) || out.ms < 0.0) {
      return usage_error("usage: SLEEP <ms>");
    }
    return Status::ok();
  }
  const bool file = out.verb == "FILE";
  if (!file && out.verb != "TPCH") {
    return Status::error(StatusCode::kInternal, "service",
                         "verb '" + std::string(out.verb) +
                             "' queued but not dispatchable");
  }
  if (file) out.top = fields.next();
  out.emit = fields.next();
  if (out.emit.empty()) {
    return usage_error(file ? "usage: FILE <path> <top> <vhdl|ir> [budget_ms]"
                            : "usage: TPCH <n> <vhdl|ir> [budget_ms]");
  }
  if (out.emit != "vhdl" && out.emit != "ir") {
    return usage_error("unknown emit kind '" + std::string(out.emit) +
                       "' (expected vhdl|ir)");
  }
  const std::string_view budget = fields.next();
  if (!budget.empty() && (!parse_number(budget, out.ms) || out.ms < 0.0)) {
    return usage_error("bad budget_ms '" + std::string(budget) + "'");
  }
  // Comma-separated file list, compiled in list order (each file keeps its
  // own `package` header) — same convention as the batch manifest.
  if (file) {
    out.paths = support::split_nonempty(out.subject, ',');
    if (out.paths.empty()) {
      return usage_error("no source files in '" + std::string(out.subject) +
                         "'");
    }
  }
  return Status::ok();
}

}  // namespace

std::optional<Response> CompileService::prepare(PendingRequest::State& state) {
  // TPCH and FILE both come down to sources + options + the durable key
  // (normalized request + per-source content stamps), built once here from
  // one look at each source (a source-cache hit or one read): it keys the
  // result cache and is what the journal records. Each stage is timed as
  // tydi.service.phase_ms.<stage> (parse, read, key, cache here; compile
  // and journal in run; the transport times reply).
  support::PhaseTimings stages;
  QueuedRequest request;
  Status parsed;
  {
    obs::PhaseTimer t(stages, "service", "parse");
    parsed = parse_queued(state.line, request);
  }
  if (!parsed.is_ok()) return error_response(parsed.code(), parsed.message());
  PreparedJob& job = state.job;
  job.ms = request.ms;
  if (request.verb == "SLEEP") {
    job.sleep = true;
    return std::nullopt;
  }

  const tpch::QueryCase* query = nullptr;  ///< TPCH: sources built on a miss
  std::vector<SourceCache::Source> texts;  ///< FILE: one per job.sources entry
  if (request.verb == "TPCH") {
    // TPCH sources are built into the binary: the key needs no stamps
    // (a different binary re-derives everything on replay anyway).
    query = tpch::find_query("TPC-H " + std::string(request.subject));
    if (query == nullptr) {
      return error_response(StatusCode::kInvalidArgument,
                            "unknown TPC-H query '" +
                                std::string(request.subject) + "'");
    }
  } else {
    obs::PhaseTimer t(stages, "service", "read");
    job.sources.reserve(request.paths.size());
    texts.reserve(request.paths.size());
    for (std::string_view path : request.paths) {
      driver::NamedSource& source = job.sources.emplace_back();
      source.name = path;
      const Status read = source_cache_.get(source.name, texts.emplace_back());
      if (!read.is_ok()) return error_response(read.code(), read.message());
    }
    job.options.top = request.top;
  }

  {
    // The normalized request (no envelope, no budget) plus a content stamp
    // per source, the hash of the exact bytes that compile: an edited file
    // is a different key, and replay skips the key when any file on disk no
    // longer matches.
    obs::PhaseTimer t(stages, "service", "key");
    warmup::JournalEntry& key = job.key;
    key.request.append(request.verb).append(" ").append(request.subject);
    if (!request.top.empty()) key.request.append(" ").append(request.top);
    key.request.append(" ").append(request.emit);
    key.stamps.reserve(job.sources.size());
    for (std::size_t i = 0; i < job.sources.size(); ++i) {
      key.stamps.push_back(
          warmup::SourceStampRecord{job.sources[i].name, texts[i].hash});
    }
    job.key_text = key.serialize();
  }
  ResultCache::Lookup cached;
  {
    obs::PhaseTimer t(stages, "service", "cache");
    cached = result_cache_.lookup(job.key_text);
  }
  if (cached.hit != nullptr) {
    Response r;
    r.body = std::move(cached.hit);
    r.frame = std::move(cached.frame);
    return r;
  }
  job.admit = cached.admit;
  if (query != nullptr) {
    job.sources = tpch::query_sources(*query);
    job.options = tpch::query_options(*query);
  }
  for (std::size_t i = 0; i < texts.size(); ++i) {
    job.sources[i].text = *texts[i].text;
  }
  job.options.emit_vhdl = request.emit == "vhdl";
  job.options.emit_ir = !job.options.emit_vhdl;
  return std::nullopt;
}

Response CompileService::run(PendingRequest::State& state) {
  PreparedJob& job = state.job;
  if (job.sleep) return sleep_request(job.ms, state);
  support::PhaseTimings stages;
  Response r;
  {
    obs::PhaseTimer t(stages, "service", "compile");
    r = compile_request(state);
  }
  if (r.ok()) {
    if (job.admit) {
      obs::PhaseTimer t(stages, "service", "cache");
      result_cache_.insert(job.key_text, r.body, r.header());
    }
    obs::PhaseTimer t(stages, "service", "journal");
    journal_success(job.key);
  }
  return r;
}

Response CompileService::dispatch_meta(std::string_view verb,
                                       std::uint64_t request_id) {
  obs::Span span("service.request");
  span.arg("verb", verb).arg("request_id", request_id);

  if (verb == "PING") {
    Response r;
    r.set_payload("pong");
    return r;
  }
  if (verb == "STATS") {
    Response r;
    r.set_payload(render_stats(status_fields()));
    return r;
  }
  if (verb == "METRICS") {
    Response r;
    r.set_payload(obs::MetricsRegistry::global().render_json());
    return r;
  }
  if (verb == "HEALTH") {
    Response r;
    r.set_payload(render_health(status_fields()));
    return r;
  }
  if (verb == "INVALIDATE") {
    session_.invalidate();
    result_cache_.clear();
    source_cache_.clear();
    Response r;
    r.set_payload("invalidated");
    return r;
  }
  if (verb == "SHUTDOWN") {
    // Stop admitting right away (in-flight + queued work still drains);
    // the transport sees the flag and runs the full drain + unlink path.
    begin_drain();
    Response r;
    r.set_payload("bye");
    r.shutdown = true;
    return r;
  }

  return error_response(StatusCode::kInvalidArgument,
                        "unknown verb '" + std::string(verb) + "'");
}

std::vector<StatusField> CompileService::status_fields() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const auto num = [](auto v) { return static_cast<double>(v); };
  const auto count = [&](std::string_view name) {
    return num(reg.counter(name).value());
  };
  const double memo_hits =
      count("tydi.memo.streamlet_hits") + count("tydi.memo.impl_hits");
  const double memo_lookups =
      memo_hits + count("tydi.memo.misses") + count("tydi.memo.stale");
  std::string last_abort;
  {
    std::lock_guard lock(last_abort_mu_);
    last_abort = last_abort_;
  }
  std::string journal_error = journal_ ? journal_->last_error() : "";
  if (journal_error.empty()) journal_error = journal_boot_error_;
  const bool is_draining = draining();
  return {
      {"status", std::string(is_draining ? "draining" : "ok")},
      {"uptime_ms", ms_since(start_)},
      {"in_flight", num(in_flight())},
      {"queue_depth", num(queue_.depth())},
      {"workers", num(worker_count_)},
      {"draining", is_draining},
      {"shed_total", count("tydi.service.shed_total")},
      {"requests", count("tydi.service.requests")},
      {"failures", count("tydi.service.failures")},
      {"memo_hit_rate", memo_lookups == 0.0 ? 0.0 : memo_hits / memo_lookups},
      {"memo_impls", num(session_.memo().impl_count())},
      {"memo_versions", num(session_.memo().version_count())},
      {"parse_cache", num(session_.parse_cache_size())},
      {"backend_entries", num(session_.backend().live_entries())},
      {"retained_compiles", num(session_.retained_compiles())},
      {"result_cache_hits", count("tydi.service.result_cache.hits")},
      {"result_cache_bytes",
       reg.gauge("tydi.service.result_cache.bytes").value()},
      {"result_cache_frames",
       reg.gauge("tydi.service.result_cache.frames").value()},
      {"source_cache_hits", count("tydi.service.source_cache.hits")},
      {"source_cache_reads", count("tydi.service.source_cache.reads")},
      {"source_cache_bytes",
       reg.gauge("tydi.service.source_cache.bytes").value()},
      {"journal_enabled", journal_ != nullptr},
      {"journal_bytes", journal_ ? num(journal_->journal_bytes()) : 0.0},
      {"journal_live_keys", journal_ ? num(journal_->live_keys()) : 0.0},
      {"journal_recovered_records",
       journal_ ? num(journal_->recovered_records()) : 0.0},
      {"journal_last_compaction_ms",
       journal_ ? journal_->last_compaction_ms() : -1.0},
      {"journal_error", journal_error},
      {"replay_done", replay_done()},
      {"replayed", count("tydi.service.replay.replayed")},
      {"replay_skipped_stale", count("tydi.service.replay.skipped_stale")},
      {"replay_shed", count("tydi.service.replay.shed")},
      {"replay_failed", count("tydi.service.replay.failed")},
      {"replay_budget_expired", count("tydi.service.replay.budget_expired")},
      {"last_abort", last_abort},
  };
}

void CompileService::record_abort(const support::Status& status) {
  std::lock_guard lock(last_abort_mu_);
  last_abort_ = status.render();
}

}  // namespace tydi::service
