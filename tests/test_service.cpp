// Compile-service tests: the wire protocol (header/payload framing, verb
// parsing, status-code mapping) unit-tested against CompileService, plus
// the AF_UNIX server end-to-end — a daemon thread serving parallel client
// requests that must be byte-identical to in-process compiles.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/elab/memo.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/support/source.hpp"
#include "src/tpch/tpch.hpp"
#include "tests/q6_files.hpp"

namespace tydi {
namespace {

/// A process-wide registry counter. Every service in this process counts
/// into the same registry, so the tests compare deltas.
std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// The number after `"key":` in a flat JSON object such as HEALTH (-1 when
/// the key is missing).
double json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

TEST(ServiceProtocol, PingPong) {
  service::CompileService svc;
  service::Response r = svc.handle_line("PING");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.payload(), "pong");
  EXPECT_FALSE(r.shutdown);
  EXPECT_EQ(r.header(), "OK 0 4");
}

TEST(ServiceProtocol, ShutdownFlagsTransport) {
  service::CompileService svc;
  service::Response r = svc.handle_line("SHUTDOWN");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.shutdown);
}

TEST(ServiceProtocol, MalformedRequestsAreInvalidArgument) {
  service::CompileService svc;
  const std::uint64_t failures0 = counter("tydi.service.failures");
  for (const char* line :
       {"", "   ", "FROBNICATE", "TPCH", "TPCH 6", "TPCH 6 vhdl nonsense",
        "TPCH 99 vhdl", "TPCH 6 pdf", "FILE only_two args"}) {
    service::Response r = svc.handle_line(line);
    EXPECT_FALSE(r.ok()) << "line: '" << line << "'";
    EXPECT_EQ(r.status.code(), support::StatusCode::kInvalidArgument)
        << "line: '" << line << "'";
  }
  EXPECT_EQ(counter("tydi.service.failures") - failures0, 9u);
}

TEST(ServiceProtocol, MissingFileIsIoError) {
  service::CompileService svc;
  service::Response r =
      svc.handle_line("FILE /nonexistent/nope.td top vhdl");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), support::StatusCode::kIoError);
}

TEST(ServiceServer, FileOfADirectoryIsIoErrorAndTheDaemonServesOn) {
  // Reading a directory used to throw out of the worker and abort the
  // whole daemon; it is an ordinary kIoError reply now.
  const std::string socket_path =
      "/tmp/tydid_dir_test_" + std::to_string(::getpid()) + ".sock";
  service::CompileService svc;
  service::ServerConfig config;
  config.socket_path = socket_path;
  support::Status serve_status;
  std::thread daemon([&]() { serve_status = service::serve(svc, config); });
  service::Response ping;
  support::Status up;
  for (int attempt = 0; attempt < 200; ++attempt) {
    up = service::request(socket_path, "PING", ping);
    if (up.is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(up.is_ok()) << up.render();

  for (const char* line : {"FILE /tmp top vhdl", "FILE /tmp,/tmp top ir"}) {
    service::Response r;
    ASSERT_TRUE(service::request(socket_path, line, r).is_ok()) << line;
    EXPECT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.status.exit_code(), 3) << line;
    EXPECT_EQ(r.status.code(), support::StatusCode::kIoError) << line;
  }
  ASSERT_TRUE(service::request(socket_path, "PING", ping).is_ok());
  EXPECT_EQ(ping.payload(), "pong");

  service::Response bye;
  ASSERT_TRUE(service::request(socket_path, "SHUTDOWN", bye).is_ok());
  daemon.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.render();
}

TEST(ServiceProtocol, ParseErrorMapsToWireCode) {
  service::CompileService svc;
  const std::string path = "/tmp/tydi_service_bad.td";
  {
    std::ofstream out(path);
    out << "this is not tydi-lang\n";
  }
  service::Response r = svc.handle_line("FILE " + path + " top vhdl");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), support::StatusCode::kParseError);
  // The payload carries the rendered diagnostics.
  EXPECT_NE(r.payload().find("error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ServiceProtocol, TpchCompileMatchesInProcessCompile) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  service::CompileService svc;
  service::Response vhdl = svc.handle_line("TPCH 6 vhdl");
  ASSERT_TRUE(vhdl.ok()) << vhdl.payload();
  EXPECT_EQ(vhdl.payload(), golden.vhdl_text);

  service::Response ir = svc.handle_line("TPCH 6 ir");
  ASSERT_TRUE(ir.ok()) << ir.payload();
  EXPECT_EQ(ir.payload(), golden.ir_text);
}

TEST(ServiceProtocol, StatsReportsSessionCounters) {
  service::CompileService svc;
  const std::uint64_t requests0 = counter("tydi.service.requests");
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  service::Response stats = svc.handle_line("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.payload().find("requests " + std::to_string(requests0 + 2)),
            std::string::npos)
      << stats.payload();
  EXPECT_NE(stats.payload().find("memo_impls"), std::string::npos);
  service::Response inval = svc.handle_line("INVALIDATE");
  ASSERT_TRUE(inval.ok());
  service::Response stats2 = svc.handle_line("STATS");
  EXPECT_NE(stats2.payload().find("memo_impls 0"), std::string::npos)
      << stats2.payload();
  EXPECT_NE(stats2.payload().find("parse_cache 0"), std::string::npos);
}

// STATS is the numeric view of the HEALTH fields: every line is
// `name <number>`, so a `>> name >> value` reader sees all of them.
TEST(ServiceProtocol, EveryStatsLineIsNumeric) {
  service::CompileService svc;
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  const std::string stats = svc.handle_line("STATS").payload();
  std::istringstream lines(stats);
  std::string line;
  std::vector<std::string> names;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name;
    double value = 0.0;
    std::string rest;
    EXPECT_TRUE(fields >> name >> value) << "line: '" << line << "'";
    EXPECT_FALSE(fields >> rest) << "line: '" << line << "'";
    names.push_back(name);
  }
  for (const char* key : {"parse_cache", "memo_impls", "requests",
                          "shed_total", "draining", "replay_done"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), key), names.end())
        << "missing " << key << " in:\n" << stats;
  }
  EXPECT_EQ(std::find(names.begin(), names.end(), "status"), names.end());
  EXPECT_NE(stats.find("memo_impls "), std::string::npos);
  EXPECT_EQ(stats.find("memo_impls 0\n"), std::string::npos) << stats;
}

// With no traffic in flight, HEALTH reports exactly the registry counters.
TEST(ServiceProtocol, HealthMatchesTheRegistryWhenIdle) {
  service::CompileService svc;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(svc.handle_line("TPCH 6 ir").ok());
  EXPECT_FALSE(svc.handle_line("TPCH 99 ir").ok());
  svc.begin_drain();
  EXPECT_EQ(svc.handle_line("TPCH 6 ir").status.code(),
            support::StatusCode::kUnavailable);
  const std::string health = svc.handle_line("HEALTH").payload();
  ASSERT_TRUE(obs::json_valid(health)) << health;
  for (const auto& [key, name] :
       std::vector<std::pair<std::string, std::string>>{
           {"requests", "tydi.service.requests"},
           {"failures", "tydi.service.failures"},
           {"shed_total", "tydi.service.shed_total"},
           {"replayed", "tydi.service.replay.replayed"},
           {"result_cache_hits", "tydi.service.result_cache.hits"}}) {
    EXPECT_EQ(json_field(health, key), static_cast<double>(counter(name)))
        << key << " in " << health;
  }
  for (const auto& [key, name] :
       std::vector<std::pair<std::string, std::string>>{
           {"result_cache_bytes", "tydi.service.result_cache.bytes"},
           {"result_cache_frames", "tydi.service.result_cache.frames"}}) {
    EXPECT_EQ(json_field(health, key),
              obs::MetricsRegistry::global().gauge(name).value())
        << key << " in " << health;
  }
  EXPECT_GE(json_field(health, "shed_total"), 1.0);
  EXPECT_GE(json_field(health, "result_cache_hits"), 1.0);
  EXPECT_NE(health.find("\"status\":\"draining\""), std::string::npos);
}

// String fields go through the shared JSON escaper.
TEST(ServiceProtocol, HealthEscapesStringFields) {
  const std::string abort_text = "[watchdog] aborted: \"a\\b\"\nnext\tline";
  const std::vector<service::StatusField> fields = {
      {"status", std::string("ok")},
      {"draining", false},
      {"requests", 3.0},
      {"last_abort", abort_text},
  };
  const std::string health = service::render_health(fields);
  EXPECT_TRUE(obs::json_valid(health)) << health;
  const std::string escaped =
      R"("last_abort":"[watchdog] aborted: \"a\\b\"\nnext\u0009line")";
  EXPECT_NE(health.find(escaped), std::string::npos) << health;
  EXPECT_EQ(service::render_stats(fields), "draining 0\nrequests 3\n");
}

TEST(ServiceProtocol, ResponseSerializeParseRoundTrip) {
  service::Response in;
  in.status = support::Status::error(support::StatusCode::kParseError,
                                     "parser", "boom");
  in.set_payload("line one\nline two\n");
  const std::string wire = in.serialize();
  EXPECT_EQ(wire.substr(0, wire.find('\n')),
            "ERR " + std::to_string(in.status.exit_code()) + " " +
                std::to_string(in.payload().size()));

  service::Response out;
  ASSERT_TRUE(service::parse_response(wire, out));
  EXPECT_EQ(out.payload(), in.payload());
  EXPECT_EQ(out.status.exit_code(), in.status.exit_code());
  EXPECT_EQ(out.status.code(), support::StatusCode::kParseError);

  service::Response ok;
  ok.set_payload("pong");
  service::Response ok_out;
  ASSERT_TRUE(service::parse_response(ok.serialize(), ok_out));
  EXPECT_TRUE(ok_out.ok());
  EXPECT_EQ(ok_out.payload(), "pong");
}

TEST(ServiceProtocol, ParseResponseRejectsTruncatedFrames) {
  service::Response out;
  EXPECT_FALSE(service::parse_response("", out));
  EXPECT_FALSE(service::parse_response("OK 0", out));          // no newline
  EXPECT_FALSE(service::parse_response("OK 0 10\nshort", out));  // payload cut
  EXPECT_FALSE(service::parse_response("WAT 0 0\n", out));
  EXPECT_TRUE(service::parse_response("OK 0 0\n\n", out));
  EXPECT_TRUE(out.payload().empty());
}

// End-to-end: a real daemon on a real socket, eight parallel clients, every
// response byte-identical to the in-process compile of the same query.
TEST(ServiceServer, ParallelClientsByteIdentical) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  const std::string socket_path =
      "/tmp/tydid_test_" + std::to_string(::getpid()) + ".sock";
  service::CompileService svc;
  service::ServerConfig config;
  config.socket_path = socket_path;
  support::Status serve_status;
  std::thread daemon([&]() { serve_status = service::serve(svc, config); });

  // Wait for the socket to appear (bind is fast; PING confirms liveness).
  service::Response ping;
  support::Status up;
  for (int attempt = 0; attempt < 200; ++attempt) {
    up = service::request(socket_path, "PING", ping);
    if (up.is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(up.is_ok()) << up.render();

  constexpr int kClients = 8;
  std::vector<std::string> payloads(kClients);
  std::vector<std::string> errors(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        service::Response r;
        support::Status s = service::request(socket_path, "TPCH 6 vhdl", r);
        if (!s.is_ok()) {
          errors[c] = s.render();
        } else if (!r.ok()) {
          errors[c] = r.payload();
        } else {
          payloads[c] = r.payload();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
    EXPECT_EQ(payloads[c], golden.vhdl_text) << "client " << c;
  }

  service::Response bye;
  ASSERT_TRUE(service::request(socket_path, "SHUTDOWN", bye).is_ok());
  EXPECT_TRUE(bye.shutdown || bye.payload() == "bye");
  daemon.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.render();
  // Clean shutdown removes the socket file.
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
}

// One connection pipelining several requests gets ordered responses.
TEST(ServiceServer, BudgetedRequestStillSucceeds) {
  service::ServiceConfig config;
  config.default_budget_ms = 60000.0;  // generous; exercises the budget path
  service::CompileService svc(config);
  service::Response r = svc.handle_line("TPCH 6 vhdl");
  EXPECT_TRUE(r.ok()) << r.payload();
  service::Response budgeted = svc.handle_line("TPCH 6 vhdl 60000");
  EXPECT_TRUE(budgeted.ok()) << budgeted.payload();
  EXPECT_EQ(budgeted.payload(), r.payload());
}

// A compile's budget is the driver's phase-boundary check: a compile that
// cannot meet it aborts kAborted (phase "watchdog"), and the service serves
// on. Fresh services, so no answer comes from the result cache.
TEST(ServiceBudget, CompileOverItsBudgetAborts) {
  service::CompileService svc;
  service::Response r = svc.handle_line("TPCH 6 vhdl 0.001");
  EXPECT_EQ(r.status.code(), support::StatusCode::kAborted) << r.payload();
  EXPECT_EQ(r.status.phase(), "watchdog");
  service::Response next = svc.handle_line("TPCH 6 vhdl");
  ASSERT_TRUE(next.ok()) << next.payload();
  EXPECT_TRUE(next.payload() ==
              tpch::compile_query(*tpch::find_query("TPC-H 6")).vhdl_text);
}

TEST(ServiceBudget, DeadlineExpiringDuringACompileAbortsIt) {
  // A 4000-stage pipeline takes tens of ms to elaborate alone, and an idle
  // worker pops the request at once, so the 10 ms deadline runs out during
  // the compile rather than in the queue.
  const std::string path =
      "/tmp/tydid_deadline_" + std::to_string(::getpid()) + ".td";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << R"tydi(
package deadlinetest;
type t_word = Stream(Bit(32), d=1, c=2);
streamlet stage_s<T: type> { in_: T in, out: T out, }
impl pipeline_i<T: type, stage: impl of stage_s, n: int> of stage_s<type T> {
  instance st(stage) [n],
  in_ => st[0].in_,
  for i in 0->n-1 {
    st[i].out => st[i+1].in_,
  }
  st[n-1].out => out,
}
impl pass_stage of stage_s<type t_word> @ external {}
streamlet top_s { feed: t_word in, drained: t_word out, }
impl big_top of top_s {
  instance pipe(pipeline_i<type t_word, impl pass_stage, 4000>),
  feed => pipe.in_,
  pipe.out => drained,
}
)tydi";
  }
  service::CompileService svc;
  service::Response r =
      svc.handle_line("DEADLINE_MS 10 FILE " + path + " big_top vhdl");
  std::remove(path.c_str());
  EXPECT_EQ(r.status.code(), support::StatusCode::kAborted) << r.payload();
  EXPECT_EQ(r.status.phase(), "watchdog");
  service::Response next = svc.handle_line("TPCH 6 vhdl");
  ASSERT_TRUE(next.ok()) << next.payload();
  EXPECT_TRUE(next.payload() ==
              tpch::compile_query(*tpch::find_query("TPC-H 6")).vhdl_text);
}

TEST(ServiceProtocol, MetricsAndHealthReturnValidJson) {
  service::CompileService svc;
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());

  service::Response metrics = svc.handle_line("METRICS");
  ASSERT_TRUE(metrics.ok()) << metrics.payload();
  EXPECT_TRUE(obs::json_valid(metrics.payload())) << metrics.payload();
  for (const char* key :
       {"\"counters\"", "\"gauges\"", "\"histograms\"",
        "tydi.service.requests", "tydi.compile.total", "tydi.memo."}) {
    EXPECT_NE(metrics.payload().find(key), std::string::npos)
        << "missing " << key;
  }

  service::Response health = svc.handle_line("HEALTH");
  ASSERT_TRUE(health.ok()) << health.payload();
  EXPECT_TRUE(obs::json_valid(health.payload())) << health.payload();
  for (const char* key :
       {"\"status\":\"ok\"", "\"uptime_ms\"", "\"in_flight\"", "\"requests\"",
        "\"failures\"", "\"memo_hit_rate\"", "\"last_abort\""}) {
    EXPECT_NE(health.payload().find(key), std::string::npos)
        << "missing " << key << " in " << health.payload();
  }
  // Three requests so far (TPCH, METRICS, HEALTH happened before the
  // HEALTH snapshot was taken — the snapshot counts the first two).
  EXPECT_NE(health.payload().find("\"requests\":"), std::string::npos);
}

// Acceptance gate: the daemon answers METRICS/HEALTH with parseable JSON
// while FILE compile requests are in flight on other connections.
TEST(ServiceServer, MetricsAndHealthDuringConcurrentFileRequests) {
  // Materialise the TPC-H Q6 sources as real files for the FILE verb.
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const std::string base = "/tmp/tydid_obs_" + std::to_string(::getpid());
  const std::string fletcher_path = base + "_fletcher.td";
  const std::string query_path = base + "_q6.td";
  {
    std::ofstream f(fletcher_path);
    f << tpch::fletcher_source();
    std::ofstream g(query_path);
    g << q->source;
  }
  const std::string file_line = "FILE " + fletcher_path + "," + query_path +
                                " " + q->top_impl + " vhdl";

  const std::string socket_path = base + ".sock";
  service::CompileService svc;
  service::ServerConfig config;
  config.socket_path = socket_path;
  support::Status serve_status;
  std::thread daemon([&]() { serve_status = service::serve(svc, config); });

  service::Response ping;
  support::Status up;
  for (int attempt = 0; attempt < 200; ++attempt) {
    up = service::request(socket_path, "PING", ping);
    if (up.is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(up.is_ok()) << up.render();

  constexpr int kCompilers = 4;
  constexpr int kCompilesEach = 3;
  constexpr int kPollers = 2;
  std::atomic<bool> compiling{true};
  std::vector<std::string> errors(kCompilers + kPollers);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kCompilers; ++c) {
      threads.emplace_back([&, c]() {
        for (int i = 0; i < kCompilesEach; ++i) {
          service::Response r;
          support::Status s = service::request(socket_path, file_line, r);
          if (!s.is_ok()) {
            errors[c] = s.render();
            return;
          }
          if (!r.ok()) {
            errors[c] = r.payload();
            return;
          }
        }
      });
    }
    for (int p = 0; p < kPollers; ++p) {
      threads.emplace_back([&, p]() {
        const std::string verb = (p % 2 == 0) ? "METRICS" : "HEALTH";
        while (compiling.load(std::memory_order_relaxed)) {
          service::Response r;
          support::Status s = service::request(socket_path, verb, r);
          if (!s.is_ok()) {
            errors[kCompilers + p] = s.render();
            return;
          }
          if (!r.ok() || !obs::json_valid(r.payload())) {
            errors[kCompilers + p] = verb + " bad payload: " + r.payload();
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    // Compiler threads are the first kCompilers entries; join them, then
    // release the pollers.
    for (int c = 0; c < kCompilers; ++c) threads[c].join();
    compiling.store(false, std::memory_order_relaxed);
    for (int p = 0; p < kPollers; ++p) threads[kCompilers + p].join();
  }
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_TRUE(errors[i].empty()) << "thread " << i << ": " << errors[i];
  }

  // Post-run introspection reflects the work just served.
  service::Response health;
  ASSERT_TRUE(service::request(socket_path, "HEALTH", health).is_ok());
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(obs::json_valid(health.payload())) << health.payload();
  EXPECT_NE(health.payload().find("\"in_flight\":"), std::string::npos);
  EXPECT_NE(health.payload().find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(health.payload().find("\"shed_total\":"), std::string::npos);
  EXPECT_NE(health.payload().find("\"workers\":"), std::string::npos);
  // Nothing shed or draining in this test: a healthy daemon reports so.
  EXPECT_NE(health.payload().find("\"draining\":false"), std::string::npos);
  EXPECT_NE(health.payload().find("\"status\":\"ok\""), std::string::npos);

  service::Response bye;
  ASSERT_TRUE(service::request(socket_path, "SHUTDOWN", bye).is_ok());
  daemon.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.render();
  std::remove(fletcher_path.c_str());
  std::remove(query_path.c_str());
}

// ---------------------------------------------------------------------------
// Whole-result cache.
// ---------------------------------------------------------------------------

std::uint64_t result_cache_counter(const char* name) {
  return counter(std::string("tydi.service.result_cache.") + name);
}

TEST(ResultCache, SecondSightingAdmitsAndHits) {
  service::ResultCache cache(1 << 20);
  service::ResultCache::Lookup first = cache.lookup("k");
  EXPECT_EQ(first.hit, nullptr);
  EXPECT_FALSE(first.admit);  // first sighting: not worth storing yet
  service::ResultCache::Lookup second = cache.lookup("k");
  EXPECT_EQ(second.hit, nullptr);
  EXPECT_TRUE(second.admit);
  auto payload = std::make_shared<const std::string>("payload");
  cache.insert("k", payload, "OK 0");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), std::string("k").size() + payload->size());
  // A hit hands out the stored object itself, not a copy.
  EXPECT_EQ(cache.lookup("k").hit, payload);
  // A journal-recovered key counts as sighted: its first lookup admits.
  cache.mark_sighted("recovered");
  EXPECT_TRUE(cache.lookup("recovered").admit);
}

TEST(ResultCache, LruEvictionHoldsTheByteBudget) {
  constexpr std::size_t kBudget = 1000;
  service::ResultCache cache(kBudget);
  const std::uint64_t evictions0 = result_cache_counter("evictions");
  auto payload = [](char c) {
    return std::make_shared<const std::string>(300, c);
  };
  cache.insert("a", payload('a'), "OK 0");
  cache.insert("b", payload('b'), "OK 0");
  cache.insert("c", payload('c'), "OK 0");
  EXPECT_EQ(cache.entries(), 3u);
  ASSERT_NE(cache.lookup("a").hit, nullptr);  // "a" is now most recent
  cache.insert("d", payload('d'), "OK 0");  // evicts "b", the LRU entry
  EXPECT_LE(cache.bytes(), kBudget);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.lookup("b").hit, nullptr);
  EXPECT_NE(cache.lookup("a").hit, nullptr);
  EXPECT_NE(cache.lookup("c").hit, nullptr);
  EXPECT_NE(cache.lookup("d").hit, nullptr);
  EXPECT_EQ(result_cache_counter("evictions") - evictions0, 1u);
  // Larger than the whole budget: never stored, nothing evicted for it.
  cache.insert("huge", std::make_shared<const std::string>(kBudget, 'x'),
               "OK 0");
  EXPECT_EQ(cache.lookup("huge").hit, nullptr);
  EXPECT_EQ(cache.entries(), 3u);
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCache, LargePayloadKeepsItsReplyFrame) {
  service::ResultCache cache(1 << 20);
  const obs::Gauge& frames =
      obs::MetricsRegistry::global().gauge("tydi.service.result_cache.frames");
  const double frames0 = frames.value();
  auto small = std::make_shared<const std::string>(
      service::ResultCache::kMinFrameBytes - 1, 's');
  auto large = std::make_shared<const std::string>(
      service::ResultCache::kMinFrameBytes, 'l');
  cache.insert("small", small, "OK 0 65535");
  cache.insert("large", large, "OK 0 65536");
  EXPECT_EQ(cache.lookup("small").frame, nullptr);
  service::ResultCache::Lookup hit = cache.lookup("large");
  ASSERT_NE(hit.frame, nullptr);
  EXPECT_EQ(frames.value() - frames0, 1.0);

  // The frame is the whole reply, and the budget counts it.
  const std::string expected = "OK 0 65536\n" + *large + "\n";
  ASSERT_EQ(hit.frame->size(), expected.size());
  std::string bytes(expected.size(), '\0');
  ASSERT_EQ(::pread(hit.frame->fd(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  EXPECT_EQ(bytes, expected);
  EXPECT_EQ(cache.bytes(), std::string("small").size() + small->size() +
                               std::string("large").size() + large->size() +
                               expected.size());
  // Sealed: nobody can rewrite a frame a hit may be sending.
  EXPECT_LT(::pwrite(hit.frame->fd(), "x", 1, 0), 0);

  // Dropping the entry leaves the frame to whoever still holds it.
  cache.clear();
  EXPECT_EQ(frames.value() - frames0, 0.0);
  EXPECT_EQ(::pread(hit.frame->fd(), bytes.data(), 2, 0), 2);
}

TEST(ServiceResultCache, HitIsByteIdenticalToSessionFreeCompile) {
  const std::string golden =
      tpch::compile_query(*tpch::find_query("TPC-H 6")).vhdl_text;
  service::CompileService svc;
  const std::uint64_t hits0 = result_cache_counter("hits");
  // First sighting compiles, second compiles and admits, third hits.
  for (int i = 0; i < 3; ++i) {
    service::Response r = svc.handle_line("TPCH 6 vhdl");
    ASSERT_TRUE(r.ok()) << r.payload();
    EXPECT_TRUE(r.payload() == golden) << "request " << i;
    EXPECT_EQ(svc.result_cache().entries(), i == 0 ? 0u : 1u);
  }
  EXPECT_EQ(result_cache_counter("hits") - hits0, 1u);
  // HEALTH reads the cache from the registry.
  const std::string health = svc.handle_line("HEALTH").payload();
  EXPECT_TRUE(obs::json_valid(health)) << health;
  EXPECT_NE(health.find("\"result_cache_hits\":"), std::string::npos);
  EXPECT_NE(health.find("\"result_cache_bytes\":"), std::string::npos);
}

TEST(ServiceResultCache, RewrittenSourceMissesAndCompilesTheNewText) {
  Q6Files files("rewrite");
  service::CompileService svc;
  const std::string before = files.golden();
  for (int i = 0; i < 3; ++i) {
    service::Response r = svc.handle_line(files.request());
    ASSERT_TRUE(r.ok()) << r.payload();
    EXPECT_TRUE(r.payload() == before);
  }
  // Same request line, new bytes on disk (a type edit, the kind the template
  // memo once replayed stale): a different key, so a miss.
  files.edit_query("type t_q6_mul = Stream(Bit(100)",
                   "type t_q6_mul = Stream(Bit(64)");
  const std::string after = files.golden();
  ASSERT_NE(after, before);
  const std::uint64_t hits0 = result_cache_counter("hits");
  service::Response r = svc.handle_line(files.request());
  ASSERT_TRUE(r.ok()) << r.payload();
  EXPECT_TRUE(r.payload() == after);
  EXPECT_EQ(result_cache_counter("hits"), hits0);
}

TEST(ServiceResultCache, SameSizeRewriteIsANewKey) {
  // A same-length edit keeps the file's size (and, within a second, its
  // mtime): the answer must follow the bytes. (test_service_sources.cpp
  // has the same edit on files the source cache already trusts.)
  Q6Files files("samesize");
  service::CompileService svc;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.handle_line(files.request()).ok());
  }
  files.edit_query("const qty_hi = 24;", "const qty_hi = 25;");
  const std::string after = files.golden();
  const std::uint64_t hits0 = result_cache_counter("hits");
  service::Response r = svc.handle_line(files.request());
  ASSERT_TRUE(r.ok()) << r.payload();
  EXPECT_TRUE(r.payload() == after);
  EXPECT_EQ(result_cache_counter("hits"), hits0);
}

TEST(ServiceResultCache, EveryStageOfAFileRequestIsTimed) {
  Q6Files files("stages");
  service::CompileService svc;
  auto count = [](const char* stage) {
    return obs::MetricsRegistry::global()
        .histogram(std::string("tydi.service.phase_ms.") + stage)
        .count();
  };
  const std::vector<const char*> stages{"parse", "read", "key", "cache",
                                        "compile"};
  std::vector<std::uint64_t> before;
  for (const char* stage : stages) before.push_back(count(stage));
  ASSERT_TRUE(svc.handle_line(files.request()).ok());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_GE(count(stages[i]), before[i] + 1) << stages[i];
  }
  // A malformed line is still parsed (and timed) before it is refused.
  const std::uint64_t parses = count("parse");
  EXPECT_EQ(svc.handle_line("FILE only_two args").status.code(),
            support::StatusCode::kInvalidArgument);
  EXPECT_EQ(count("parse"), parses + 1);
}

/// The count of a `tydi.service.*` histogram.
std::uint64_t service_observations(const std::string& name) {
  return obs::MetricsRegistry::global()
      .histogram("tydi.service." + name)
      .count();
}

/// Waits until every queued request has been picked up by a worker (false
/// if that takes implausibly long, so a broken pool fails instead of hangs).
bool wait_for_empty_queue(const service::CompileService& svc) {
  for (int i = 0; i < 30000 && svc.queue_depth() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return svc.queue_depth() == 0;
}

TEST(ServiceResultCache, AHitIsAnsweredAtAdmission) {
  Q6Files files("inline");
  service::CompileService svc;
  // First sighting compiles, second compiles and admits, third hits. Each
  // request reads its sources exactly once; only the misses queue.
  for (int i = 0; i < 3; ++i) {
    const bool hit = i == 2;
    const std::uint64_t reads = service_observations("phase_ms.read");
    const std::uint64_t waits = service_observations("queue_wait_ms");
    const std::uint64_t requests = service_observations("request_ms");
    const std::uint64_t hits0 = result_cache_counter("hits");
    ASSERT_TRUE(svc.handle_line(files.request()).ok());
    EXPECT_EQ(service_observations("phase_ms.read"), reads + 1) << i;
    EXPECT_EQ(service_observations("queue_wait_ms"), waits + (hit ? 0 : 1))
        << i;
    EXPECT_EQ(service_observations("request_ms"), requests + 1) << i;
    EXPECT_EQ(result_cache_counter("hits"), hits0 + (hit ? 1 : 0)) << i;
  }
}

TEST(ServiceResultCache, AHitIsServedWhileTheQueueIsFull) {
  Q6Files files("saturated");
  service::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  service::CompileService svc(config);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(svc.handle_line(files.request()).ok());
  }
  ASSERT_EQ(svc.result_cache().entries(), 1u);
  // The one worker is busy and the one queue slot is taken.
  service::PendingRequest running = svc.submit("SLEEP 60000");
  ASSERT_TRUE(wait_for_empty_queue(svc));
  service::PendingRequest queued = svc.submit("SLEEP 60000");
  ASSERT_EQ(svc.queue_depth(), 1u);
  const service::Response shed_before = svc.handle_line("SLEEP 1");
  ASSERT_EQ(shed_before.status.code(), support::StatusCode::kUnavailable);

  const std::uint64_t shed0 = counter("tydi.service.shed_total");
  const std::uint64_t hits0 = result_cache_counter("hits");
  service::Response r = svc.handle_line(files.request());
  ASSERT_TRUE(r.ok()) << r.payload();
  EXPECT_TRUE(r.payload() == files.golden());
  EXPECT_EQ(counter("tydi.service.shed_total"), shed0);
  EXPECT_EQ(result_cache_counter("hits") - hits0, 1u);
  EXPECT_FALSE(running.wait_for(0.0));
  // Hits hold no worker, so they leave the retry-after hint (an average of
  // worker executions) where the two compiles above put it.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(svc.handle_line(files.request()).ok());
  }
  const service::Response shed_after = svc.handle_line("SLEEP 1");
  ASSERT_EQ(shed_after.status.code(), support::StatusCode::kUnavailable);
  EXPECT_EQ(shed_after.retry_after_ms, shed_before.retry_after_ms);

  running.cancel();
  queued.cancel();
  EXPECT_EQ(running.take().status.code(), support::StatusCode::kAborted);
  EXPECT_EQ(queued.take().status.code(), support::StatusCode::kAborted);
}

TEST(ServiceResultCache, TheCompileUsesTheBytesReadAtAdmission) {
  Q6Files files("admitted");
  const std::string journal_path =
      "/tmp/tydid_rc_admitted_" + std::to_string(::getpid()) + ".jnl";
  std::remove(journal_path.c_str());
  service::ServiceConfig config;
  config.workers = 1;
  config.journal_path = journal_path;
  const std::string admitted_golden = files.golden();
  std::string admitted_text;
  ASSERT_TRUE(support::read_file(files.query_path, admitted_text).is_ok());
  {
    service::CompileService svc(config);
    service::PendingRequest hold = svc.submit("SLEEP 60000");
    ASSERT_TRUE(wait_for_empty_queue(svc));
    // The miss is read and stamped now, then waits for the worker while
    // its file is rewritten.
    service::PendingRequest miss = svc.submit(files.request());
    files.edit_query("type t_q6_mul = Stream(Bit(100)",
                     "type t_q6_mul = Stream(Bit(64)");
    const std::string rewritten_golden = files.golden();
    ASSERT_NE(rewritten_golden, admitted_golden);
    hold.cancel();
    service::Response r = miss.take();
    ASSERT_TRUE(r.ok()) << r.payload();
    EXPECT_TRUE(r.payload() == admitted_golden);
    // The next request reads the new text: a new key, compiled.
    const std::uint64_t hits0 = result_cache_counter("hits");
    service::Response next = svc.handle_line(files.request());
    ASSERT_TRUE(next.ok()) << next.payload();
    EXPECT_TRUE(next.payload() == rewritten_golden);
    EXPECT_EQ(result_cache_counter("hits"), hits0);
    (void)hold.take();
  }
  // The journal stamped the admitted bytes, then the rewrite's (the
  // service ended without a compaction, so both records remain on disk;
  // a reopened journal would replay only the newest).
  support::RecoveredJournal recovered;
  ASSERT_TRUE(support::recover_journal(journal_path, recovered).is_ok());
  std::vector<service::warmup::JournalEntry> entries(recovered.records.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(service::warmup::JournalEntry::parse(recovered.records[i],
                                                     entries[i]));
  }
  std::string rewritten_text;
  ASSERT_TRUE(support::read_file(files.query_path, rewritten_text).is_ok());
  ASSERT_EQ(entries.size(), 2u);
  ASSERT_EQ(entries[0].stamps.size(), 2u);
  ASSERT_EQ(entries[1].stamps.size(), 2u);
  EXPECT_EQ(entries[0].stamps[1].hash, elab::source_hash(admitted_text));
  EXPECT_EQ(entries[1].stamps[1].hash, elab::source_hash(rewritten_text));
  std::remove(journal_path.c_str());
}

TEST(ServiceResultCache, InvalidateEmptiesTheCache) {
  service::CompileService svc;
  ASSERT_TRUE(svc.handle_line("TPCH 6 ir").ok());
  ASSERT_TRUE(svc.handle_line("TPCH 6 ir").ok());
  ASSERT_EQ(svc.result_cache().entries(), 1u);
  ASSERT_GT(svc.result_cache().bytes(), 0u);
  ASSERT_TRUE(svc.handle_line("INVALIDATE").ok());
  EXPECT_EQ(svc.result_cache().entries(), 0u);
  EXPECT_EQ(svc.result_cache().bytes(), 0u);
  // Sightings went too: the next request is a first sighting again.
  const std::uint64_t hits0 = result_cache_counter("hits");
  ASSERT_TRUE(svc.handle_line("TPCH 6 ir").ok());
  EXPECT_EQ(svc.result_cache().entries(), 0u);
  EXPECT_EQ(result_cache_counter("hits"), hits0);
}

TEST(ServiceResultCache, JournalRecoveredKeyHitsOnFirstLiveRequest) {
  Q6Files files("journal");
  const std::string journal_path =
      "/tmp/tydid_rc_" + std::to_string(::getpid()) + ".jnl";
  std::remove(journal_path.c_str());
  service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;
  {
    service::CompileService svc(config);
    ASSERT_TRUE(svc.handle_line(files.request()).ok());
    svc.drain();
  }
  service::CompileService svc(config);
  const std::uint64_t replayed0 = counter("tydi.service.replay.replayed");
  svc.start_replay();
  svc.wait_replay();
  ASSERT_EQ(counter("tydi.service.replay.replayed") - replayed0, 1u);
  EXPECT_EQ(svc.result_cache().entries(), 1u);  // replay admitted the key
  const std::uint64_t hits0 = result_cache_counter("hits");
  service::Response r = svc.handle_line(files.request());
  ASSERT_TRUE(r.ok()) << r.payload();
  EXPECT_TRUE(r.payload() == files.golden());
  EXPECT_EQ(result_cache_counter("hits") - hits0, 1u);
  svc.drain();
  std::remove(journal_path.c_str());
}

// Hits, misses (first and second sightings of fresh keys) and INVALIDATE
// racing on eight threads: every answer byte-identical to its golden. Runs
// under TSan in CI.
TEST(ServiceResultCache, ConcurrentHitsMissesAndInvalidate) {
  const std::vector<std::string> lines = {"TPCH 6 vhdl", "TPCH 6 ir",
                                          "TPCH 3 vhdl", "TPCH 1 ir"};
  std::vector<std::string> goldens;
  for (const std::string& line : lines) {
    const tpch::QueryCase* q = tpch::find_query("TPC-H " + line.substr(5, 1));
    driver::CompileResult r = tpch::compile_query(*q);
    goldens.push_back(line.ends_with("ir") ? r.ir_text : r.vhdl_text);
  }
  service::ServiceConfig config;
  config.workers = 4;
  service::CompileService svc(config);
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<std::string> errors(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        for (int round = 0; round < kRounds; ++round) {
          if (t == 0 && round % 2 == 1) {
            if (!svc.handle_line("INVALIDATE").ok()) errors[t] = "INVALIDATE";
            continue;
          }
          const std::size_t k = static_cast<std::size_t>(t + round) %
                                lines.size();
          service::Response r = svc.handle_line(lines[k]);
          if (!r.ok() || r.payload() != goldens[k]) {
            errors[t] = lines[k] + " differs: " + r.payload().substr(0, 200);
            return;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  EXPECT_LE(svc.result_cache().bytes(), service::ResultCache::kBudgetBytes);
}

}  // namespace
}  // namespace tydi
