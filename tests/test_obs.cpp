// Observability layer tests: metrics registry semantics (counter / gauge /
// histogram, bucket boundaries, stable JSON export), span tracer behaviour
// (ring overwrite, args escaping, Chrome trace schema), and — the part CI
// runs under TSan in the sim-shard-tsan job — 8 threads hammering shared
// counters/histograms and emitting spans concurrently, which is where the
// registry's registration locking and the tracer's per-ring discipline are
// actually enforced, and `clear()` reclaiming the rings of exited threads. Ends with the golden-schema test: a traced TPC-H
// batch compile must export valid Chrome trace-event JSON containing the
// pipeline's span taxonomy. The bench JSON writer and sampler statistics
// (bench/harness.hpp) are checked at the end.
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "src/driver/compiler.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {
namespace {

TEST(Metrics, CounterGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("t.c");
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c += 41;
  EXPECT_EQ(c.value(), 42u);
  // Re-requesting the name returns the same instrument.
  EXPECT_EQ(&reg.counter("t.c"), &c);
  EXPECT_EQ(reg.counter("t.c").value(), 42u);

  obs::Gauge& g = reg.gauge("t.g");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, HistogramBucketBoundaries) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("t.h", {1.0, 2.0, 5.0});
  // A value exactly on a bound lands in that bound's bucket (v <= bound).
  h.observe(1.0);   // le=1
  h.observe(1.5);   // le=2
  h.observe(2.0);   // le=2
  h.observe(5.0);   // le=5
  h.observe(5.001); // overflow
  h.observe(0.0);   // le=1
  h.observe(-3.0);  // le=1 (no underflow bucket; first bucket catches all)
  const std::vector<std::uint64_t> cum = h.bucket_counts();
  ASSERT_EQ(cum.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(cum[0], 3u);      // <= 1
  EXPECT_EQ(cum[1], 5u);      // <= 2
  EXPECT_EQ(cum[2], 6u);      // <= 5
  EXPECT_EQ(cum[3], 7u);      // everything
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.5 + 2.0 + 5.0 + 5.001 + 0.0 - 3.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_counts().back(), 0u);
}

TEST(Metrics, RenderJsonIsValidSortedAndStable) {
  obs::MetricsRegistry reg;
  reg.counter("tydi.b.count") += 2;
  reg.counter("tydi.a.count") += 1;
  reg.gauge("tydi.z.depth").set(3.25);
  reg.histogram("tydi.m.ms", {1.0, 10.0}).observe(0.5);
  const std::string json = reg.render_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  // Name-sorted within each section.
  EXPECT_LT(json.find("tydi.a.count"), json.find("tydi.b.count"));
  EXPECT_NE(json.find("\"tydi.z.depth\":3.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos) << json;
  // Byte-stable across renders with unchanged values.
  EXPECT_EQ(json, reg.render_json());
}

TEST(Metrics, EightThreadsHammerSharedInstruments) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, t]() {
      // Mixed first-sight registration and hot-path increments: half the
      // names are shared by all threads, half are per-thread, so both the
      // shared-lock lookup and the exclusive create race are exercised.
      obs::Counter& shared_counter = reg.counter("hammer.shared");
      obs::Histogram& shared_hist = reg.histogram("hammer.ms", {1.0, 10.0});
      obs::Counter& own = reg.counter("hammer.t" + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        ++shared_counter;
        ++own;
        shared_hist.observe(static_cast<double>(i % 20));
        if (i % 1024 == 0) {
          // Concurrent export while writers are hot must stay well-formed.
          EXPECT_TRUE(obs::json_valid(reg.render_json()));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(reg.counter("hammer.shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("hammer.t" + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
  }
  obs::Histogram& h = reg.histogram("hammer.ms");
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.bucket_counts().back(), h.count());
}

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::SpanTracer tracer;
  {
    obs::Span span(tracer, "noop");
    span.arg("k", std::string_view("v"));
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Trace, SpansRecordNamesArgsAndDurations) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span span(tracer, "work");
    span.arg("query", std::int64_t{6}).arg("kind", std::string_view("vhdl"));
  }
  tracer.record("manual", -1000, 50, "\"x\":1");
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // snapshot() sorts by start time; the manual record's negative start
  // sorts deterministically before the RAII span's clock reading.
  EXPECT_EQ(spans[0].name, "manual");
  EXPECT_EQ(spans[1].name, "work");
  EXPECT_EQ(spans[1].args, "\"query\":6,\"kind\":\"vhdl\"");
  EXPECT_GE(spans[1].dur_ns, 0);

  const std::string json = tracer.export_chrome_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"query\":6,\"kind\":\"vhdl\"}"),
            std::string::npos)
      << json;
}

TEST(Trace, ArgsWithQuotesAndNewlinesStayValidJson) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span span(tracer, "weird \"name\"");
    span.arg("path", std::string_view("a\"b\\c\nd"));
  }
  EXPECT_TRUE(obs::json_valid(tracer.export_chrome_json()));
}

// One escaper serves the registry, HEALTH and the trace export: every byte
// value comes out as valid JSON, and span args are spelled exactly as
// append_json_string spells them.
TEST(Trace, SpanArgsUseTheSharedJsonEscaper) {
  std::string every_byte;
  for (int c = 1; c < 256; ++c) every_byte += static_cast<char>(c);
  std::string quoted;
  obs::append_json_string(quoted, every_byte);
  EXPECT_TRUE(obs::json_valid(quoted)) << quoted;

  const std::string_view value = "a\"b\\c\nd\te";
  std::string expected = "\"args\":{";
  obs::append_json_string(expected, "path");
  expected += ':';
  obs::append_json_string(expected, value);
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span span(tracer, "escape");
    span.arg("path", value);
  }
  const std::string json = tracer.export_chrome_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find(expected + "}"), std::string::npos) << json;
}

TEST(Trace, RingOverwritesOldestWhenFull) {
  obs::SpanTracer tracer(/*ring_capacity=*/8);
  tracer.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    tracer.record("span" + std::to_string(i), i * 100, 10);
  }
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // The latest window survives: spans 12..19.
  EXPECT_EQ(spans.front().name, "span12");
  EXPECT_EQ(spans.back().name, "span19");

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Trace, EightThreadsEmitSpansConcurrently) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpans = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tracer, t]() {
      for (int i = 0; i < kSpans; ++i) {
        obs::Span span(tracer, "worker");
        span.arg("thread", static_cast<std::int64_t>(t));
        if (i % 512 == 0) {
          // Export racing the writers stays well-formed (approximate
          // snapshot, like any live profiler).
          EXPECT_TRUE(obs::json_valid(tracer.export_chrome_json()));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kThreads) * kSpans);
  // Each thread got its own tid; 8 distinct tids in the export.
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  std::vector<bool> seen(kThreads + 2, false);
  for (const obs::SpanRecord& s : spans) {
    ASSERT_LT(s.tid, seen.size());
    seen[s.tid] = true;
  }
  int tids = 0;
  for (bool b : seen) tids += b ? 1 : 0;
  EXPECT_EQ(tids, kThreads);
}

TEST(Trace, ClearDropsTheRingsOfExitedThreads) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  tracer.record("main", 0, 1);
  // One thread stays alive across clear(); its ring must stay registered.
  std::mutex mu;
  std::condition_variable cv;
  bool recorded = false;
  bool release = false;
  std::thread live([&] {
    tracer.record("live", 0, 1);
    std::unique_lock lock(mu);
    recorded = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    tracer.record("live again", 0, 1);
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return recorded; });
  }
  // Short-lived threads, four at a time, each leave one ring behind.
  constexpr int kBatches = 8;
  constexpr int kPerBatch = 4;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::thread> batch;
    for (int t = 0; t < kPerBatch; ++t) {
      batch.emplace_back([&tracer] {
        for (int i = 0; i < 3; ++i) tracer.record("short", i, 1);
      });
    }
    for (std::thread& t : batch) t.join();
  }
  constexpr std::size_t kShortLived = kBatches * kPerBatch;
  EXPECT_EQ(tracer.ring_count(), 2 + kShortLived);
  EXPECT_EQ(tracer.size(), 2 + 3 * kShortLived);

  tracer.clear();
  EXPECT_EQ(tracer.ring_count(), 2u);  // the main and the live thread
  EXPECT_EQ(tracer.size(), 0u);

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  live.join();
  EXPECT_EQ(tracer.size(), 1u);  // recorded into its kept ring
  EXPECT_EQ(tracer.ring_count(), 2u);
  tracer.clear();
  EXPECT_EQ(tracer.ring_count(), 1u);
}

// Golden-schema test: a traced TPC-H batch compile exports Chrome
// trace-event JSON that (a) parses, (b) has the trace-event envelope, and
// (c) contains the span taxonomy the wiring promises — per-phase compile
// spans, per-worker batch job spans with worker args.
TEST(Trace, TpchBatchCompileExportsChromeTraceSchema) {
  obs::SpanTracer& tracer = obs::SpanTracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    driver::CompileSession session;
    driver::BatchOptions options;
    options.jobs = 2;
    driver::BatchResult result =
        driver::compile_batch(session, tpch::batch_jobs(), options);
    EXPECT_EQ(result.failures, 0u);
  }
  tracer.set_enabled(false);
  const std::string json = tracer.export_chrome_json();
  tracer.clear();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"tydi\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  for (const char* phase : {"compile.phase.parse", "compile.phase.elaborate",
                            "compile.phase.lower", "compile.phase.vhdl"}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(json.find("\"name\":\"batch.job\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\":"), std::string::npos);
}

// The registry mirrors of the session cache stats can never disagree with
// the per-compile structs: the deltas of a sessionless compile and of a
// warm session compile must match what the result structs report.
TEST(Metrics, RegistryAgreesWithCompileResultStructs) {
  auto& reg = obs::MetricsRegistry::global();
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileSession session;
  ASSERT_TRUE(tpch::compile_query(*q, session).success());  // warms it
  for (const bool warm : {false, true}) {
    const std::uint64_t vhdl_before =
        reg.counter("tydi.vhdl.bytes_emitted").value();
    const std::uint64_t hits_before =
        reg.counter("tydi.elab.instantiation_hits").value();
    const std::uint64_t misses_before =
        reg.counter("tydi.elab.instantiation_misses").value();

    driver::CompileResult r =
        warm ? tpch::compile_query(*q, session) : tpch::compile_query(*q);
    ASSERT_TRUE(r.success()) << r.report();

    EXPECT_EQ(reg.counter("tydi.vhdl.bytes_emitted").value() - vhdl_before,
              r.vhdl_text.size())
        << "warm " << warm;
    EXPECT_EQ(
        reg.counter("tydi.elab.instantiation_hits").value() - hits_before,
        r.template_cache.hits())
        << "warm " << warm;
    EXPECT_EQ(
        reg.counter("tydi.elab.instantiation_misses").value() - misses_before,
        r.template_cache.misses())
        << "warm " << warm;
  }
}

// ---------------------------------------------------------------------------
// The bench JSON writer and sampler (bench/harness.hpp)
// ---------------------------------------------------------------------------

TEST(BenchJson, WriterEscapesNamesAndWritesNonFiniteAsNull) {
  const std::string awkward = "a \"quoted\" \\ back\nslash";
  harness::JsonWriter json;
  json.begin_object()
      .field(awkward, awkward)
      .field("inf", std::numeric_limits<double>::infinity())
      .field("nan", std::nan(""))
      .field("count", std::uint64_t{42})
      .field("flag", true)
      .field("spread", harness::Quartiles{1.0, 2.0, 3.5})
      .key("list")
      .begin_array()
      .value(-std::numeric_limits<double>::infinity())
      .begin_object()
      .field(awkward, 0.25)
      .end_object()
      .begin_array()
      .end_array()
      .end_array()
      .end_object();
  const std::string& text = json.str();
  EXPECT_TRUE(obs::json_valid(text)) << text;
  EXPECT_NE(text.find("\"inf\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"nan\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"list\": [null,"), std::string::npos) << text;
  EXPECT_NE(text.find("\\\"quoted\\\" \\\\ back\\nslash"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("inf,"), std::string::npos) << text;
}

TEST(BenchJson, SectionsUpsertIntoOneValidArray) {
  const std::string path = ::testing::TempDir() + "bench_json_upsert.json";
  std::remove(path.c_str());
  auto write = [&](std::string_view name, double value) {
    return harness::write_section(path, name, [&](harness::JsonWriter& json) {
      json.field("value", value).field("note", "a \"}\" in a string");
    });
  };
  ASSERT_TRUE(write("first", 1.0));
  ASSERT_TRUE(write("second", 2.0));
  ASSERT_TRUE(write("first", 3.0));  // replaces the first section
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_TRUE(obs::json_valid(text)) << text;
  EXPECT_EQ(text.find("\"value\": 1,"), std::string::npos) << text;
  EXPECT_LT(text.find("\"second\""), text.find("\"first\"")) << text;
  EXPECT_NE(text.find("\"value\": 3,"), std::string::npos) << text;
}

TEST(BenchJson, QuartilesInterpolateBetweenRanks) {
  const harness::Quartiles q = harness::quartiles({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.0);
  const harness::Quartiles even = harness::quartiles({1.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 1.5);
  EXPECT_DOUBLE_EQ(harness::quartiles({}).median, 0.0);
}

}  // namespace
}  // namespace tydi
