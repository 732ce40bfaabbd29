// Concurrency tests of the shared compile session: many threads compiling
// through one CompileSession must produce byte-identical output to serial
// standalone compiles — hit or miss, with or without a racing
// invalidation — and the parallel compile_batch must be schedule-
// independent. These tests run under TSan in CI (the sim-shard-tsan job),
// which is where the locking discipline of the memo / parse / lowering /
// emission caches is actually enforced.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {
namespace {

// Serial standalone compile of a query — the golden bytes every concurrent
// compile is compared against.
std::string golden_vhdl(const tpch::QueryCase& q) {
  driver::CompileResult r = tpch::compile_query(q);
  EXPECT_TRUE(r.success()) << r.report();
  return r.vhdl_text;
}

TEST(ConcurrentCompile, SameQueryManyThreadsByteIdentical) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const std::string golden = golden_vhdl(*q);

  driver::CompileSession session;
  constexpr int kThreads = 8;
  std::vector<std::string> vhdl(kThreads);
  std::vector<std::string> reports(kThreads);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        driver::CompileResult r = tpch::compile_query(*q, session);
        vhdl[t] = r.success() ? r.vhdl_text : "";
        reports[t] = r.report();
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(vhdl[t], golden) << "thread " << t << ": " << reports[t];
  }
}

TEST(ConcurrentCompile, DifferentQueriesManyThreadsByteIdentical) {
  const std::vector<tpch::QueryCase>& queries = tpch::queries();
  std::vector<std::string> goldens(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    goldens[i] = golden_vhdl(queries[i]);
  }

  driver::CompileSession session;
  std::vector<std::string> vhdl(queries.size());
  {
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      pool.emplace_back([&, i]() {
        driver::CompileResult r = tpch::compile_query(queries[i], session);
        vhdl[i] = r.success() ? r.vhdl_text : r.report();
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(vhdl[i], goldens[i]) << queries[i].id << queries[i].note;
  }
}

TEST(ConcurrentCompile, WarmConcurrentCompilesHitRateOne) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileSession session;
  // Warm the session serially; every concurrent compile afterwards must be
  // a pure replay (per-compile hit rate 1.0).
  {
    driver::CompileResult warm = tpch::compile_query(*q, session);
    ASSERT_TRUE(warm.success()) << warm.report();
  }
  constexpr int kThreads = 8;
  std::vector<double> hit_rates(kThreads, 0.0);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        driver::CompileResult r = tpch::compile_query(*q, session);
        hit_rates[t] = r.success() ? r.template_cache.hit_rate() : -1.0;
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(hit_rates[t], 1.0) << "thread " << t;
  }
}

TEST(ConcurrentCompile, InvalidationRacingCompilesIsSafe) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 3");
  ASSERT_NE(q, nullptr);
  const std::string golden = golden_vhdl(*q);

  driver::CompileSession session;
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::atomic<bool> done{false};
  std::vector<std::string> failures(kThreads);

  std::thread invalidator([&]() {
    // Hammer invalidate() while compiles are in flight: in-flight compiles
    // keep the shared payloads they captured and re-elaborate on their
    // next lookup; outputs must not change.
    while (!done.load(std::memory_order_acquire)) {
      session.invalidate();
      std::this_thread::yield();
    }
  });
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        for (int round = 0; round < kRounds; ++round) {
          driver::CompileResult r = tpch::compile_query(*q, session);
          if (!r.success()) {
            failures[t] = r.report();
            return;
          }
          if (r.vhdl_text != golden) {
            failures[t] = "round " + std::to_string(round) +
                          ": VHDL differs from serial golden";
            return;
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  done.store(true, std::memory_order_release);
  invalidator.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
}

// The whole TPC-H batch at --jobs {2,4,8} must reproduce the --jobs 1 run
// byte for byte: same entries in the same order, same emitted texts, and a
// fully warm second round at every worker count.
TEST(ConcurrentCompile, ParallelBatchByteIdenticalAcrossWorkerCounts) {
  std::vector<driver::BatchJob> jobs = tpch::batch_jobs();
  driver::BatchOptions serial_options;
  serial_options.jobs = 1;
  serial_options.keep_texts = true;

  driver::CompileSession serial_session;
  driver::BatchResult serial =
      driver::compile_batch(serial_session, jobs, serial_options);
  ASSERT_TRUE(serial.success()) << serial.render();

  for (int workers : {2, 4, 8}) {
    driver::BatchOptions options;
    options.jobs = workers;
    options.keep_texts = true;
    driver::CompileSession session;
    driver::BatchResult cold = driver::compile_batch(session, jobs, options);
    ASSERT_TRUE(cold.success()) << "jobs=" << workers << "\n" << cold.render();
    ASSERT_EQ(cold.entries.size(), serial.entries.size());
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_EQ(cold.entries[i].name, serial.entries[i].name);
      EXPECT_EQ(cold.entries[i].vhdl_text, serial.entries[i].vhdl_text)
          << "jobs=" << workers << " entry " << serial.entries[i].name;
      EXPECT_EQ(cold.entries[i].ir_text, serial.entries[i].ir_text)
          << "jobs=" << workers << " entry " << serial.entries[i].name;
    }
    EXPECT_EQ(cold.bytes_emitted, serial.bytes_emitted) << "jobs=" << workers;

    // Warm round through the same session: every job replays from the memo.
    driver::BatchResult warm = driver::compile_batch(session, jobs, options);
    ASSERT_TRUE(warm.success()) << warm.render();
    EXPECT_EQ(warm.template_cache.hit_rate(), 1.0) << "jobs=" << workers;
    EXPECT_EQ(warm.bytes_emitted, serial.bytes_emitted) << "jobs=" << workers;
  }
}

// Q6's sources with `from` replaced by `to` in the query file (the last
// source; the Fletcher interfaces come first).
std::vector<driver::NamedSource> edited_q6(const std::string& from,
                                           const std::string& to) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  std::vector<driver::NamedSource> sources = tpch::query_sources(*q);
  std::string& text = sources.back().text;
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return sources;
}

// A warm session must not replay instantiations whose type arguments
// changed structure under an unchanged name: `mul2_i<..., type t_q6_mul>`
// mangles by the argument's name, so after a width edit of t_q6_mul the
// memo entry has the same key but describes the old type.
TEST(ConcurrentCompile, TypeArgumentEditIsNotReplayedStale) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const driver::CompileOptions options = tpch::query_options(*q);
  const std::string decl = "type t_q6_mul = Stream(Bit(100), d=1, c=2)";
  // Original, width edit, complexity edit, and back to the original.
  const std::vector<std::string> variants = {
      decl, "type t_q6_mul = Stream(Bit(64), d=1, c=2)",
      "type t_q6_mul = Stream(Bit(100), d=1, c=3)", decl};
  driver::CompileSession session;
  for (const std::string& variant : variants) {
    const std::vector<driver::NamedSource> sources = edited_q6(decl, variant);
    driver::CompileResult cold = driver::compile(sources, options);
    ASSERT_TRUE(cold.success()) << cold.report();
    driver::CompileResult warm = session.compile(sources, options);
    ASSERT_TRUE(warm.success()) << warm.report();
    // Whole-text comparisons without the multi-KB diff dump.
    EXPECT_TRUE(warm.vhdl_text == cold.vhdl_text) << variant;
    EXPECT_TRUE(warm.ir_text == cold.ir_text) << variant;
  }
}

// The structural check must not cost the edit loop its warm hits: an edit
// that leaves every type unchanged (a constant threshold) re-elaborates
// only the query's own impl and the one instantiation the constant feeds.
TEST(ConcurrentCompile, ConstantEditKeepsTypeArgumentEntriesWarm) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const driver::CompileOptions options = tpch::query_options(*q);
  driver::CompileSession session;
  ASSERT_TRUE(session.compile(tpch::query_sources(*q), options).success());
  const std::vector<driver::NamedSource> sources =
      edited_q6("const qty_hi = 24;", "const qty_hi = 25;");
  driver::CompileResult warm = session.compile(sources, options);
  ASSERT_TRUE(warm.success()) << warm.report();
  EXPECT_TRUE(warm.vhdl_text == driver::compile(sources, options).vhdl_text);
  EXPECT_EQ(warm.template_cache.impl_misses.get(), 2u);
}

TEST(ConcurrentCompile, CancellationClassifiesAsAborted) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileSession session;
  driver::CompileOptions options = tpch::query_options(*q);
  options.cancelled = []() { return true; };
  driver::CompileResult r =
      session.compile(tpch::query_sources(*q), options);
  EXPECT_FALSE(r.success());
  support::Status status = r.status();
  EXPECT_EQ(status.code(), support::StatusCode::kAborted);
  EXPECT_EQ(status.phase(), "watchdog");
}

TEST(ConcurrentCompile, ExhaustedBudgetClassifiesAsAborted) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileSession session;
  driver::CompileOptions options = tpch::query_options(*q);
  // A sub-microsecond budget is always exceeded by the first phase-boundary
  // check (the parse phase itself takes longer), so this is deterministic.
  options.budget_ms = 1e-6;
  driver::CompileResult r =
      session.compile(tpch::query_sources(*q), options);
  EXPECT_FALSE(r.success());
  EXPECT_EQ(r.status().code(), support::StatusCode::kAborted);
}

}  // namespace
}  // namespace tydi
