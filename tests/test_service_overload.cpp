// Overload and degradation tests for the compile service: admission
// control (queue-full / draining sheds with kUnavailable + retry-after),
// two-class priority ordering, deadline propagation and expiry, client
// disconnect cancellation, graceful drain (verb- and signal-driven), and
// byte-identity of accepted work under saturation. The SLEEP debug verb is
// the deterministic load: it occupies exactly one worker for a known time
// and reports the global execution sequence number, so ordering assertions
// do not depend on compile timings. This binary also runs under TSan in CI
// (sim-shard-tsan) — keep sleeps short.
#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/service/queue.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/support/retry.hpp"
#include "src/support/status.hpp"
#include "tests/daemon_fixture.hpp"
#include "tests/q6_files.hpp"

namespace tydi {
namespace {

using support::StatusCode;

/// A process-wide registry counter. Every service in this process counts
/// into the same registry, so the tests compare deltas.
std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Polls `pred` every 2ms for up to `ms`; true when it held.
bool wait_until(const std::function<bool()>& pred, double ms = 2000.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Extracts the trailing sequence number from a SLEEP payload
/// ("slept <ms> seq <n>").
std::uint64_t sleep_seq(const std::string& payload) {
  const std::size_t pos = payload.rfind("seq ");
  EXPECT_NE(pos, std::string::npos) << payload;
  return pos == std::string::npos
             ? 0
             : std::stoull(payload.substr(pos + 4));
}

TEST(BoundedPriorityQueue, InteractiveDequeuesBeforeBatch) {
  service::BoundedPriorityQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, service::Priority::kBatch));
  ASSERT_TRUE(q.try_push(2, service::Priority::kInteractive));
  ASSERT_TRUE(q.try_push(3, service::Priority::kBatch));
  ASSERT_TRUE(q.try_push(4, service::Priority::kInteractive));
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 4);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
}

TEST(BoundedPriorityQueue, TryPushRespectsCapacityAndClose) {
  service::BoundedPriorityQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, service::Priority::kInteractive));
  EXPECT_TRUE(q.try_push(2, service::Priority::kBatch));
  EXPECT_FALSE(q.try_push(3, service::Priority::kInteractive));  // full
  q.close();
  int out = 0;
  EXPECT_TRUE(q.pop(out));  // queued items survive close
  EXPECT_TRUE(q.pop(out));
  EXPECT_FALSE(q.pop(out));  // closed + empty
  EXPECT_FALSE(q.try_push(4, service::Priority::kInteractive));
}

TEST(ServiceEnvelope, ParsesTokensInAnyOrder) {
  service::RequestEnvelope env;
  std::string error;
  ASSERT_TRUE(service::parse_envelope(
      "DEADLINE_MS 250 PRIO batch ATTEMPT 3 TPCH 6 vhdl", env, error));
  EXPECT_EQ(env.priority, service::Priority::kBatch);
  EXPECT_EQ(env.deadline_ms, 250.0);
  EXPECT_EQ(env.attempt, 3u);
  EXPECT_EQ(env.rest, "TPCH 6 vhdl");

  ASSERT_TRUE(service::parse_envelope("PING", env, error));
  EXPECT_EQ(env.priority, service::Priority::kInteractive);
  EXPECT_EQ(env.deadline_ms, 0.0);
  EXPECT_EQ(env.attempt, 1u);
  EXPECT_EQ(env.rest, "PING");

  EXPECT_FALSE(service::parse_envelope("PRIO wrong PING", env, error));
  EXPECT_FALSE(service::parse_envelope("DEADLINE_MS nope PING", env, error));
  EXPECT_FALSE(service::parse_envelope("DEADLINE_MS -5 PING", env, error));
  EXPECT_FALSE(service::parse_envelope("ATTEMPT 0 PING", env, error));
  EXPECT_FALSE(service::parse_envelope("ATTEMPT", env, error));
  EXPECT_EQ(error, "usage: ATTEMPT <n>");
  EXPECT_FALSE(service::parse_envelope("DEADLINE_MS", env, error));
  EXPECT_EQ(error, "usage: DEADLINE_MS <ms>");
  EXPECT_FALSE(service::parse_envelope("PRIO", env, error));
  EXPECT_EQ(error, "usage: PRIO <interactive|batch>");

  // Any whitespace separates tokens; the request keeps its own spacing up
  // to the end of the line.
  ASSERT_TRUE(service::parse_envelope("\tPRIO\tbatch  TPCH 6\tvhdl\r\nx",
                                      env, error));
  EXPECT_EQ(env.priority, service::Priority::kBatch);
  EXPECT_EQ(env.rest, "TPCH 6\tvhdl\r");
  ASSERT_TRUE(service::parse_envelope(" \t ", env, error));
  EXPECT_EQ(env.rest, "");
}

TEST(ServiceEnvelope, MalformedEnvelopeIsInvalidArgument) {
  service::ServiceConfig config;
  config.workers = 1;
  service::CompileService svc(config);
  const std::uint64_t failures0 = counter("tydi.service.failures");
  service::Response r = svc.handle_line("PRIO sideways PING");
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(counter("tydi.service.failures") - failures0, 1u);
}

TEST(ServiceOverload, ShedsWithRetryAfterWhenQueueFull) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  service::CompileService svc(config);
  const std::uint64_t shed0 = counter("tydi.service.shed_total");

  // Occupy the single worker, then fill the single queue slot.
  service::PendingRequest running = svc.submit("SLEEP 250");
  ASSERT_TRUE(wait_until([&] { return svc.queue_depth() == 0; }));
  service::PendingRequest queued = svc.submit("SLEEP 10");
  ASSERT_EQ(svc.queue_depth(), 1u);

  // Third compile admission sheds immediately — bounded, non-blocking.
  service::Response shed = svc.handle_line("SLEEP 10");
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.status.exit_code(), 12);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_NE(shed.payload().find("queue full"), std::string::npos);
  EXPECT_EQ(counter("tydi.service.shed_total") - shed0, 1u);

  // Meta verbs are never shed: introspection works while saturated.
  service::Response health = svc.handle_line("HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.payload().find("\"shed_total\":" +
                                  std::to_string(shed0 + 1)),
            std::string::npos)
      << health.payload();

  // The shed response round-trips its retry-after hint over the wire.
  service::Response parsed;
  ASSERT_TRUE(service::parse_response(shed.serialize(), parsed));
  EXPECT_EQ(parsed.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(parsed.retry_after_ms, 0.0);

  // Admitted work is unaffected by the shed.
  EXPECT_TRUE(running.take().ok());
  EXPECT_TRUE(queued.take().ok());
}

TEST(ServiceOverload, InteractiveRunsBeforeQueuedBatch) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  service::CompileService svc(config);

  service::PendingRequest running = svc.submit("SLEEP 150");
  ASSERT_TRUE(wait_until([&] { return svc.queue_depth() == 0; }));
  // Batch requests arrive first, interactive afterwards — the worker must
  // still drain every interactive item before any batch item.
  service::PendingRequest batch1 = svc.submit("PRIO batch SLEEP 5");
  service::PendingRequest batch2 = svc.submit("PRIO batch SLEEP 5");
  service::PendingRequest inter1 = svc.submit("SLEEP 5");
  service::PendingRequest inter2 = svc.submit("PRIO interactive SLEEP 5");

  service::Response r_b1 = batch1.take();
  service::Response r_b2 = batch2.take();
  service::Response r_i1 = inter1.take();
  service::Response r_i2 = inter2.take();
  ASSERT_TRUE(r_b1.ok() && r_b2.ok() && r_i1.ok() && r_i2.ok());
  EXPECT_LT(sleep_seq(r_i1.payload()), sleep_seq(r_b1.payload()));
  EXPECT_LT(sleep_seq(r_i2.payload()), sleep_seq(r_b1.payload()));
  EXPECT_LT(sleep_seq(r_b1.payload()), sleep_seq(r_b2.payload()));
  EXPECT_TRUE(running.take().ok());
}

TEST(ServiceOverload, DeadlineExpiredInQueueIsShed) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  service::CompileService svc(config);

  service::PendingRequest running = svc.submit("SLEEP 150");
  ASSERT_TRUE(wait_until([&] { return svc.queue_depth() == 0; }));
  // Deadline far shorter than the head-of-line sleep: expires in queue.
  service::PendingRequest doomed = svc.submit("DEADLINE_MS 20 SLEEP 10");
  service::Response r = doomed.take();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(r.retry_after_ms, 0.0);
  EXPECT_NE(r.payload().find("deadline expired"), std::string::npos);
  EXPECT_TRUE(running.take().ok());
}

TEST(ServiceOverload, DeadlineBoundsExecution) {
  service::ServiceConfig config;
  config.workers = 1;
  service::CompileService svc(config);
  // Free worker, but the deadline caps execution: SLEEP aborts early.
  const auto start = std::chrono::steady_clock::now();
  service::Response r = svc.handle_line("DEADLINE_MS 40 SLEEP 5000");
  const double elapsed =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status.code(), StatusCode::kAborted);
  EXPECT_LT(elapsed, 2000.0);
}

TEST(ServiceOverload, CancelledQueuedRequestNeverExecutes) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  service::CompileService svc(config);

  service::PendingRequest running = svc.submit("SLEEP 100");
  ASSERT_TRUE(wait_until([&] { return svc.queue_depth() == 0; }));
  service::PendingRequest queued = svc.submit("SLEEP 5");
  queued.cancel();  // client hung up while queued
  service::Response r = queued.take();
  EXPECT_EQ(r.status.code(), StatusCode::kAborted);
  EXPECT_NE(r.payload().find("disconnected"), std::string::npos);
  EXPECT_TRUE(running.take().ok());
}

TEST(ServiceOverload, CancelAbortsExecutingRequest) {
  service::ServiceConfig config;
  config.workers = 1;
  service::CompileService svc(config);
  service::PendingRequest running = svc.submit("SLEEP 5000");
  ASSERT_TRUE(wait_until([&] { return svc.queue_depth() == 0; }));
  const auto start = std::chrono::steady_clock::now();
  running.cancel();
  service::Response r = running.take();
  const double elapsed =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status.code(), StatusCode::kAborted);
  EXPECT_LT(elapsed, 2000.0);  // aborted at a poll, not after 5s
}

TEST(ServiceOverload, DrainCompletesInFlightThenShedsNewWork) {
  service::ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.drain_deadline_ms = 3000.0;
  service::CompileService svc(config);

  service::PendingRequest a = svc.submit("SLEEP 60");
  service::PendingRequest b = svc.submit("SLEEP 60");
  svc.begin_drain();
  EXPECT_TRUE(svc.draining());

  // New compile admissions shed; meta still answers, as "draining".
  service::Response shed = svc.handle_line("SLEEP 5");
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.payload().find("draining"), std::string::npos);
  service::Response health = svc.handle_line("HEALTH");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.payload().find("\"status\":\"draining\""),
            std::string::npos);
  EXPECT_NE(health.payload().find("\"draining\":true"), std::string::npos);

  svc.drain();
  // Drain completed the accepted work rather than dropping it.
  EXPECT_TRUE(a.take().ok());
  EXPECT_TRUE(b.take().ok());
}

TEST(ServiceOverload, DrainDeadlineCancelsStragglers) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.drain_deadline_ms = 40.0;
  service::CompileService svc(config);

  service::PendingRequest stuck = svc.submit("SLEEP 10000");
  ASSERT_TRUE(wait_until([&] { return svc.queue_depth() == 0; }));
  service::PendingRequest queued = svc.submit("SLEEP 10000");

  const auto start = std::chrono::steady_clock::now();
  svc.drain();
  const double elapsed =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5000.0);  // did not wait out two 10s sleeps

  service::Response r_stuck = stuck.take();
  EXPECT_EQ(r_stuck.status.code(), StatusCode::kAborted);
  service::Response r_queued = queued.take();
  EXPECT_EQ(r_queued.status.code(), StatusCode::kUnavailable);
}

TEST(ServiceOverload, SaturationPreservesByteIdentity) {
  // One warm reference compile, then the same query under saturation with
  // retries: every accepted response must be byte-identical.
  service::ServiceConfig reference_config;
  reference_config.workers = 1;
  service::CompileService reference_svc(reference_config);
  service::Response reference = reference_svc.handle_line("TPCH 6 vhdl");
  ASSERT_TRUE(reference.ok());

  service::ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 2;
  service::CompileService svc(config);
  const std::uint64_t shed0 = counter("tydi.service.shed_total");

  constexpr int kClients = 8;
  std::atomic<int> accepted{0};
  std::atomic<int> shed{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      support::RetryPolicy policy;
      policy.max_attempts = 10;
      policy.base_ms = 5.0;
      policy.seed = static_cast<std::uint64_t>(c);
      support::Retry retry(policy);
      for (;;) {
        service::Response r = svc.handle_line("TPCH 6 vhdl");
        if (r.ok()) {
          ++accepted;
          if (r.payload() != reference.payload()) ++wrong;
          return;
        }
        if (r.status.code() != StatusCode::kUnavailable) {
          ++wrong;
          return;
        }
        ++shed;
        double delay_ms = 0.0;
        if (!retry.next_delay_ms(r.retry_after_ms, delay_ms)) return;
        // Bound test wall-clock: the hint can reach seconds under load.
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::min(delay_ms, 50.0)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(accepted.load(), 0);
  EXPECT_EQ(counter("tydi.service.shed_total") - shed0,
            static_cast<std::uint64_t>(shed.load()));
}

// ---------------------------------------------------------------------------
// Socket end-to-end (TestDaemon and the raw client: tests/daemon_fixture.hpp).

/// Open file descriptors of this process.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

double frames_gauge() {
  return obs::MetricsRegistry::global()
      .gauge("tydi.service.result_cache.frames")
      .value();
}

TEST(ServiceServerOverload, SaturatedDaemonShedsAndServes) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  TestDaemon daemon(config);

  constexpr int kClients = 10;
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      service::Response r;
      support::Status s =
          service::request(daemon.config.socket_path, "SLEEP 20", r);
      if (!s.is_ok()) {
        errors[c] = s.render();
        return;
      }
      if (r.ok()) {
        ++ok;
        return;
      }
      if (r.status.code() == StatusCode::kUnavailable) {
        if (r.retry_after_ms <= 0.0) {
          errors[c] = "shed without retry-after hint";
        }
        ++shed;
        return;
      }
      errors[c] = "unexpected failure: " + r.payload();
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }
  // Capacity is worker + queue slot = 2 concurrent admissions; with 10
  // simultaneous clients both outcomes must occur.
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kClients);
}

TEST(ServiceServerOverload, RetryingClientLandsOnSaturatedDaemon) {
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  TestDaemon daemon(config);

  // Keep the daemon busy from a background thread.
  std::thread load([&]() {
    for (int i = 0; i < 6; ++i) {
      service::Response r;
      (void)service::request(daemon.config.socket_path, "SLEEP 30", r);
    }
  });

  support::RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_ms = 10.0;
  policy.seed = 99;
  service::Response r;
  int attempts = 0;
  support::Status s = service::request_with_retry(
      daemon.config.socket_path, "TPCH 6 vhdl", policy, r, &attempts);
  load.join();
  ASSERT_TRUE(s.is_ok()) << s.render();
  ASSERT_TRUE(r.ok()) << r.payload();
  EXPECT_GE(attempts, 1);
  EXPECT_NE(r.payload().find("VHDL generated"), std::string::npos);
}

TEST(ServiceServerOverload, ConnectionLimitShedsAtTransport) {
  service::ServiceConfig config;
  config.workers = 1;
  TestDaemon daemon(config, /*max_connections=*/1);

  // Hold one connection open mid-request, then connect again: the second
  // connection gets a one-frame kUnavailable shed.
  std::thread holder([&]() {
    service::Response r;
    (void)service::request(daemon.config.socket_path, "SLEEP 120", r);
  });
  // Give the holder time to be accepted.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service::Response r;
  support::Status s =
      service::request(daemon.config.socket_path, "PING", r);
  holder.join();
  ASSERT_TRUE(s.is_ok()) << s.render();
  if (!r.ok()) {
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_GT(r.retry_after_ms, 0.0);
    EXPECT_NE(r.payload().find("connection limit"), std::string::npos);
  }
  // Either way the daemon stays healthy afterwards — retry while the
  // holder's slot is released.
  ASSERT_TRUE(wait_until([&] {
    return service::request(daemon.config.socket_path, "PING", r).is_ok() &&
           r.ok();
  }));
}

TEST(ServiceServerOverload, DisconnectedClientAbortsInFlightCompile) {
  service::ServiceConfig config;
  config.workers = 1;
  TestDaemon daemon(config);
  const std::uint64_t failures0 = counter("tydi.service.failures");

  // Raw client: send a long SLEEP, then hang up without reading the reply.
  {
    const int fd = connect_raw(daemon.config.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_line(fd, "SLEEP 10000"));
    // Wait until the worker actually started the sleep, then vanish.
    ASSERT_TRUE(wait_until([&] { return daemon.service.in_flight() > 0; }));
    ::close(fd);
  }

  // The disconnect probe cancels the sleep, freeing the single worker far
  // sooner than the 10s it asked for.
  const auto start = std::chrono::steady_clock::now();
  service::Response r;
  support::Status s =
      service::request(daemon.config.socket_path, "SLEEP 10", r);
  const double elapsed =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(s.is_ok()) << s.render();
  EXPECT_TRUE(r.ok()) << r.payload();
  EXPECT_LT(elapsed, 5000.0);
  // The aborted sleep.
  EXPECT_EQ(counter("tydi.service.failures") - failures0, 1u);
}

TEST(ServiceServerOverload, ClientGoneDuringDrainIsADisconnectAbort) {
  // The drain shuts the read side of every connection, so the socket reads
  // EOF whether or not its client lives. A client that dies once the drain
  // began must still be cancelled as a disconnect, not run until the drain
  // deadline (generous here) cancels it.
  service::ServiceConfig config;
  config.workers = 1;
  config.drain_deadline_ms = 120000.0;
  TestDaemon daemon(config);
  const std::uint64_t disconnects0 = counter("tydi.service.disconnect_aborts");
  const std::uint64_t drain_cancelled0 =
      counter("tydi.service.drain_cancelled");

  const int fd = connect_raw(daemon.config.socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_line(fd, "SLEEP 30000"));
  ASSERT_TRUE(wait_until([&] { return daemon.service.in_flight() > 0; }));

  service::Response bye;
  ASSERT_TRUE(
      service::request(daemon.config.socket_path, "SHUTDOWN", bye).is_ok());
  ASSERT_TRUE(wait_until([&] { return daemon.service.draining(); }));
  ::close(fd);
  daemon.thread.join();

  EXPECT_TRUE(daemon.status.is_ok()) << daemon.status.render();
  EXPECT_EQ(counter("tydi.service.disconnect_aborts") - disconnects0, 1u);
  EXPECT_EQ(counter("tydi.service.drain_cancelled") - drain_cancelled0, 0u);
}

TEST(ServiceServerOverload, SigtermDrainsAndUnlinksSocket) {
  service::ServiceConfig config;
  config.workers = 2;
  config.drain_deadline_ms = 2000.0;
  TestDaemon daemon(config, /*max_connections=*/0, /*handle_signals=*/true);

  // In-flight work when the signal lands must still complete.
  std::thread worker_client([&]() {
    service::Response r;
    support::Status s =
        service::request(daemon.config.socket_path, "SLEEP 80", r);
    EXPECT_TRUE(s.is_ok()) << s.render();
    EXPECT_TRUE(r.ok()) << r.payload();
  });
  ASSERT_TRUE(wait_until([&] { return daemon.service.in_flight() > 0; }));

  ASSERT_EQ(std::raise(SIGTERM), 0);
  worker_client.join();
  daemon.thread.join();
  EXPECT_TRUE(daemon.status.is_ok()) << daemon.status.render();
  EXPECT_TRUE(daemon.service.draining());
  // No stale socket after a signal-driven shutdown.
  EXPECT_NE(::access(daemon.config.socket_path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// Result-cache hits sent from their reply frames (sendfile).

/// A daemon with Q6 cached: two FILE requests admit the key, so the third
/// is the first hit and is sent from its frame.
struct WarmQ6Daemon {
  explicit WarmQ6Daemon(const std::string& tag)
      : files(tag), daemon(config()) {
    for (int i = 0; i < 2; ++i) {
      service::Response r;
      EXPECT_TRUE(
          service::request(daemon.config.socket_path, files.request(), r)
              .is_ok());
      EXPECT_TRUE(r.ok()) << r.payload();
    }
  }
  static service::ServiceConfig config() {
    service::ServiceConfig c;
    c.workers = 1;
    return c;
  }
  /// The wire bytes every Q6 answer must have.
  [[nodiscard]] std::string expected_wire() const {
    service::Response r;
    r.set_payload(files.golden());
    return r.serialize();
  }

  Q6Files files;
  TestDaemon daemon;
};

TEST(ServiceServerHitFrames, FirstHitIsTheSessionFreeCompileByteForByte) {
  const double frames0 = frames_gauge();
  WarmQ6Daemon warm("frame_hit");
  const std::string expected = warm.expected_wire();
  ASSERT_GE(expected.size(), service::ResultCache::kMinFrameBytes);
  EXPECT_EQ(frames_gauge() - frames0, 1.0);

  const std::uint64_t hits0 = counter("tydi.service.result_cache.hits");
  const std::string wire =
      exchange_raw(warm.daemon.config.socket_path, warm.files.request());
  EXPECT_EQ(counter("tydi.service.result_cache.hits") - hits0, 1u);
  EXPECT_EQ(wire.size(), expected.size());
  EXPECT_TRUE(wire == expected);
}

TEST(ServiceServerHitFrames, InvalidateDuringASlowReadStillDeliversTheReply) {
  const std::size_t baseline = open_fds();
  WarmQ6Daemon warm("frame_invalidate");
  const std::string& path = warm.daemon.config.socket_path;
  const std::string expected = warm.expected_wire();
  const double frames0 = frames_gauge() - 1.0;  // before Q6 was cached

  // Three pipelined hits exceed the socket buffer: while this client has
  // read one header, the daemon is still sending from a frame.
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(write_line(fd, warm.files.request()));
  }
  std::string wire = read_header(fd);
  service::Response invalidated;
  ASSERT_TRUE(service::request(path, "INVALIDATE", invalidated).is_ok());
  ASSERT_TRUE(invalidated.ok());
  for (int i = 0; i < 3; ++i) {
    if (i > 0) wire = read_header(fd);
    wire += read_bytes(fd, payload_size(wire) + 1);
    EXPECT_TRUE(wire == expected) << "reply " << i;
  }
  ::close(fd);
  // Once the replies are out, the last owner closed the frame: the daemon
  // holds its listener, plus a new frame if the recompiled requests cached
  // Q6 again.
  EXPECT_TRUE(wait_until([&] {
    return open_fds() == baseline + 1 + static_cast<std::size_t>(
                                            frames_gauge() - frames0);
  })) << open_fds() << " open, baseline " << baseline;
}

TEST(ServiceServerHitFrames, ClientGoneMidReplyIsCountedAndTheDaemonServes) {
  WarmQ6Daemon warm("frame_hangup");
  const std::string& path = warm.daemon.config.socket_path;
  const std::uint64_t disconnects0 =
      counter("tydi.service.reply_disconnects");
  {
    // Pipelined hits exceed the socket buffer, so the daemon is still
    // sending when the client hangs up after one header.
    const int fd = connect_raw(path);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(write_line(fd, warm.files.request()));
    }
    EXPECT_EQ(read_header(fd).rfind("OK 0 ", 0), 0u);
    ::close(fd);
  }
  EXPECT_TRUE(wait_until([&] {
    return counter("tydi.service.reply_disconnects") - disconnects0 == 1;
  }));
  service::Response ping;
  ASSERT_TRUE(service::request(path, "PING", ping).is_ok());
  EXPECT_EQ(ping.payload(), "pong");
  EXPECT_TRUE(exchange_raw(path, warm.files.request()) ==
              warm.expected_wire());
}

TEST(ServiceServerHitFrames, FrameFdsCloseOnInvalidateAndTeardown) {
  const std::size_t baseline = open_fds();
  {
    WarmQ6Daemon warm("frame_fds");
    const std::string& path = warm.daemon.config.socket_path;
    ASSERT_TRUE(exchange_raw(path, warm.files.request()) ==
                warm.expected_wire());
    // The listener and the frame; client connections close asynchronously.
    EXPECT_TRUE(wait_until([&] { return open_fds() == baseline + 2; }))
        << open_fds() << " open, baseline " << baseline;
    service::Response invalidated;
    ASSERT_TRUE(service::request(path, "INVALIDATE", invalidated).is_ok());
    EXPECT_TRUE(wait_until([&] { return open_fds() == baseline + 1; }))
        << open_fds() << " open, baseline " << baseline;
    // Cached again, then torn down with the frame still held.
    for (int i = 0; i < 2; ++i) {
      service::Response r;
      ASSERT_TRUE(service::request(path, warm.files.request(), r).is_ok());
    }
    EXPECT_TRUE(wait_until([&] { return open_fds() == baseline + 2; }))
        << open_fds() << " open, baseline " << baseline;
  }
  EXPECT_EQ(open_fds(), baseline);
}

}  // namespace
}  // namespace tydi
