// Concurrency tests of the shared compile session: many threads compiling
// through one CompileSession must produce byte-identical output to serial
// standalone compiles — hit or miss, with or without a racing
// invalidation — and the parallel compile_batch must be schedule-
// independent. These tests run under TSan in CI (the sim-shard-tsan job),
// which is where the locking discipline of the memo / parse / lowering /
// emission caches is actually enforced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <regex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/engine.hpp"
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

// ---------------------------------------------------------------------------
// Session retention: the caches keep only what the retained compiles of
// each compile identity (top + ordered source names) used, at most
// kRetainedCompiles per identity.

/// An editable token of a query source, found the way the edit_loop
/// benchmark finds them: a `const` threshold, an integer threshold passed
/// to const_compare_int_i, or its comparison operator.
struct EditSpot {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::string value;
  std::int64_t lo = 0;               ///< numeric spots: new value range
  std::int64_t hi = 0;
  std::vector<std::string> choices;  ///< operator spots
};

std::vector<EditSpot> edit_spots(const std::string& source) {
  std::vector<EditSpot> spots;
  auto scan = [&](const char* pattern, bool numeric) {
    const std::regex re(pattern);
    for (std::sregex_iterator it(source.begin(), source.end(), re), end;
         it != end; ++it) {
      EditSpot spot;
      spot.offset = static_cast<std::size_t>(it->position(1));
      spot.length = static_cast<std::size_t>(it->length(1));
      spot.value = it->str(1);
      if (numeric) {
        const std::int64_t v = std::stoll(spot.value);
        spot.lo = std::max<std::int64_t>(0, v / 2);
        spot.hi = v * 2 + 1000;
      } else {
        spot.choices = {"<", "<=", ">", ">="};
      }
      spots.push_back(std::move(spot));
    }
  };
  scan(R"(const \w+ = (\d+);)", true);
  scan(R"(type std_bool, (\d+), "[<>=]+">)", true);
  scan(R"re(const_compare_int_i<[^>]*, "([<>]=?)">)re", false);
  return spots;
}

/// One seeded edit: 1-3 spots moved to new values.
std::string edit_source(const std::string& source,
                        const std::vector<EditSpot>& spots,
                        std::mt19937_64& rng) {
  auto below = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::vector<std::pair<const EditSpot*, std::string>> edits;
  const std::size_t count = 1 + below(3);
  for (std::size_t i = 0; i < count; ++i) {
    const EditSpot& spot = spots[below(spots.size())];
    if (std::any_of(edits.begin(), edits.end(),
                    [&](const auto& e) { return e.first == &spot; })) {
      continue;
    }
    std::string v = spot.value;
    while (v == spot.value) {
      v = spot.choices.empty()
              ? std::to_string(std::uniform_int_distribution<std::int64_t>(
                    spot.lo, spot.hi)(rng))
              : spot.choices[below(spot.choices.size())];
    }
    edits.emplace_back(&spot, std::move(v));
  }
  std::sort(edits.begin(), edits.end(), [](const auto& a, const auto& b) {
    return a.first->offset > b.first->offset;
  });
  std::string out = source;
  for (const auto& [spot, v] : edits) out.replace(spot->offset, spot->length, v);
  return out;
}

/// The five FILE-reachable TPC-H queries with their edit spots.
struct EditableQuery {
  const tpch::QueryCase* query = nullptr;
  std::string name;  ///< "q6"
  std::vector<EditSpot> spots;
};

std::vector<EditableQuery> editable_queries() {
  std::vector<EditableQuery> out;
  for (const char* n : {"1", "3", "5", "6", "19"}) {
    const tpch::QueryCase* q = tpch::find_query(std::string("TPC-H ") + n);
    EXPECT_NE(q, nullptr);
    if (q == nullptr) continue;
    out.push_back({q, std::string("q") + n,
                   edit_spots(std::string(q->source))});
  }
  return out;
}

/// The query's sources with its logic file replaced by `text` under the
/// edit file name `edit/<name>.td` (one compile identity per query).
std::vector<driver::NamedSource> edit_sources(const EditableQuery& q,
                                              std::string text) {
  std::vector<driver::NamedSource> sources = tpch::query_sources(*q.query);
  sources.back() = {"edit/" + q.name + ".td", std::move(text)};
  return sources;
}

/// Checks the retention rule's bounds for `identities` compile identities
/// and returns the live back-end entries.
std::size_t expect_retention_bounds(driver::CompileSession& session,
                                    std::size_t identities) {
  constexpr std::size_t kK = driver::kRetainedCompiles;
  EXPECT_LE(session.retained_compiles(), kK * identities);
  EXPECT_LE(session.parse_cache_size(), 2 + kK * identities);
  session.sweep();
  std::unordered_set<const void*> versions;
  std::unordered_set<const void*> payloads;
  std::unordered_set<const void*> held;
  session.for_each_retained(
      [&](const elab::MemoFootprint& f, const support::CacheHold& backend) {
        for (const auto& s : f.streamlets) {
          versions.insert(s.get());
          payloads.insert(s->payload.get());
        }
        for (const auto& i : f.impls) {
          versions.insert(i.get());
          payloads.insert(i->payload.get());
        }
        for (const auto& entry : backend) held.insert(entry.get());
      });
  EXPECT_EQ(session.memo().version_count(), versions.size());

  // The back-end memo holds exactly the entries retained footprints hold...
  const driver::BackEndMemo& backend = session.backend();
  std::unordered_set<const void*> live;
  backend.for_each_live(
      [&](const support::IdentityKey&, const void* value) { live.insert(value); });
  EXPECT_EQ(backend.live_entries(), live.size());
  EXPECT_TRUE(live == held) << live.size() << " live back-end entries, "
                            << held.size() << " held by retained compiles";
  // ...and each is keyed on payloads a retained footprint holds: memo
  // payloads, or the rewritten impls and voiders/duplicators of a held
  // sugaring entry (never a type, never a payload only an evicted edit used).
  backend.sugar.impls.for_each_live(
      [&](const support::IdentityKey&, const sugar::SugarEntry& entry) {
        payloads.insert(entry.sugared.get());
        for (const auto& m : entry.materialized) {
          payloads.insert(m->streamlet.get());
          payloads.insert(m->impl.get());
        }
      });
  std::size_t unheld = 0;
  backend.for_each_live([&](const support::IdentityKey& key, const void*) {
    for (const support::Identity& part : key.parts) {
      if (part.id != nullptr && !payloads.contains(part.id)) ++unheld;
    }
  });
  EXPECT_EQ(unheld, 0u) << "back-end entries keyed on unretained payloads";
  return backend.live_entries();
}

// 2000 seeded edits over the five queries, drawn like the edit_loop
// benchmark's (a shuffled 20-card deck weighted 5/4/3/6/2): the caches hold
// exactly what the retained footprints hold, never more.
TEST(SessionRetention, EditLoopKeepsCachesBounded) {
  const std::vector<EditableQuery> queries = editable_queries();
  ASSERT_EQ(queries.size(), 5u);
  driver::CompileSession session;
  for (const EditableQuery& q : queries) {
    ASSERT_TRUE(tpch::compile_query(*q.query, session).success());
  }
  const std::size_t identities = 2 * queries.size();  // base + edit file
  std::size_t first_live = 0;
  std::mt19937_64 rng(21);
  std::vector<std::size_t> deck;
  for (int i = 0; i < 2000; ++i) {
    if (deck.empty()) {
      const int weights[] = {5, 4, 3, 6, 2};
      for (std::size_t q = 0; q < 5; ++q) deck.insert(deck.end(), weights[q], q);
      std::shuffle(deck.begin(), deck.end(), rng);
    }
    const EditableQuery& q = queries[deck.back()];
    deck.pop_back();
    (void)session.compile(
        edit_sources(q, edit_source(std::string(q.query->source), q.spots,
                                    rng)),
        tpch::query_options(*q.query));
    if ((i + 1) % 500 == 0) {
      SCOPED_TRACE("after edit " + std::to_string(i + 1));
      // The back-end memo stays flat: what an evicted edit alone used (its
      // top, its edited template instances) leaves with its footprint.
      const std::size_t live = expect_retention_bounds(session, identities);
      if (first_live == 0) first_live = live;
      EXPECT_GT(live, 0u);
      EXPECT_LE(live, first_live + first_live / 4);
    }
  }
}

// Edit → revert → edit → revert, then enough edits to evict the reverted
// version, then a Bit(n) width edit: every session compile is byte-identical
// to a session-free compile, warm or evicted.
TEST(SessionRetention, EvictionNeverChangesOutput) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const driver::CompileOptions options = tpch::query_options(*q);
  const std::string base(q->source);
  auto with = [&](const std::string& from, const std::string& to) {
    std::string text = base;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  const std::string qty = "const qty_hi = 24;";
  const std::vector<std::string> sequence = {
      base,
      with(qty, "const qty_hi = 25;"),
      base,
      with(qty, "const qty_hi = 26;"),
      base,
      with(qty, "const qty_hi = 27;"),
      with(qty, "const qty_hi = 28;"),
      with(qty, "const qty_hi = 29;"),
      base,  // its version left the ring two compiles ago
      with("type t_q6_mul = Stream(Bit(100)", "type t_q6_mul = Stream(Bit(64)"),
      base,
  };
  driver::CompileSession session;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    std::vector<driver::NamedSource> sources = tpch::query_sources(*q);
    sources.back().text = sequence[i];
    driver::CompileResult cold = driver::compile(sources, options);
    ASSERT_TRUE(cold.success()) << cold.report();
    driver::CompileResult warm = session.compile(sources, options);
    ASSERT_TRUE(warm.success()) << warm.report();
    EXPECT_TRUE(warm.vhdl_text == cold.vhdl_text) << "compile " << i;
    EXPECT_TRUE(warm.ir_text == cold.ir_text) << "compile " << i;
    // Diagnostics too: replayed sugaring notes and emission notes match.
    EXPECT_EQ(warm.report(), cold.report()) << "compile " << i;
    if (i == 2) {
      // An undo right after an edit is fully warm.
      EXPECT_EQ(warm.template_cache.misses(), 0u);
    }
    if (i == 8) {
      // Three edits later the base version's own entries are gone.
      EXPECT_GT(warm.template_cache.misses(), 0u);
    }
  }
}

/// The block of the first entity whose name starts with `prefix`, from its
/// entity line to the next library clause.
std::string entity_block(const std::string& vhdl, const std::string& prefix) {
  const std::size_t at = vhdl.find("\nentity " + prefix);
  if (at == std::string::npos) return "";
  const std::size_t end = vhdl.find("library ieee;", at);
  return vhdl.substr(at, end == std::string::npos ? end : end - at);
}

// Type edits after warm compiles: a Bit(n) width edit and a stream
// complexity edit change the payloads behind the typed template instances,
// so their entities re-render — byte-identical to a session-free compile,
// never the cached text of the previous type.
TEST(SessionRetention, TypeEditsReRenderAffectedEntities) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const driver::CompileOptions options = tpch::query_options(*q);
  auto sources_of = [&](const std::string& text) {
    std::vector<driver::NamedSource> sources = tpch::query_sources(*q);
    sources.back().text = text;
    return sources;
  };
  std::string text(q->source);
  driver::CompileSession session;
  driver::CompileResult previous;
  for (int round = 0; round < 2; ++round) {
    previous = session.compile(sources_of(text), options);
    ASSERT_TRUE(previous.success()) << previous.report();
  }
  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("tydi.vhdl.memo_misses");
  struct Edit {
    std::string from;
    std::string to;
    std::string entity;  ///< prefix of an entity the edit must change
  };
  // Complexity shows in the physical signals only with more than one lane,
  // so the complexity edit runs on a two-lane t_q6_total.
  const std::vector<Edit> edits = {
      {"t_q6_mul = Stream(Bit(100)", "t_q6_mul = Stream(Bit(64)", "mul2_i"},
      {"t_q6_total = Stream(Bit(100), d=1, c=2)",
       "t_q6_total = Stream(Bit(100), t=2, d=1, c=2)", "accumulator_i"},
      {"t=2, d=1, c=2", "t=2, d=1, c=6", "accumulator_i"},
  };
  for (const Edit& edit : edits) {
    SCOPED_TRACE(edit.to);
    const std::size_t at = text.find(edit.from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, edit.from.size(), edit.to);
    const driver::CompileResult cold = driver::compile(sources_of(text), options);
    ASSERT_TRUE(cold.success()) << cold.report();
    const std::uint64_t misses_before = misses.value();
    driver::CompileResult warm = session.compile(sources_of(text), options);
    ASSERT_TRUE(warm.success()) << warm.report();
    EXPECT_TRUE(warm.vhdl_text == cold.vhdl_text);
    EXPECT_EQ(warm.report(), cold.report());
    EXPECT_GT(misses.value(), misses_before) << "nothing re-rendered";
    const std::string before = entity_block(previous.vhdl_text, edit.entity);
    const std::string after = entity_block(warm.vhdl_text, edit.entity);
    ASSERT_FALSE(after.empty());
    EXPECT_NE(before, after) << "the edited type's entity kept its old text";
    EXPECT_EQ(after, entity_block(cold.vhdl_text, edit.entity));
    previous = std::move(warm);
  }
}

// Four threads each edit their own query while a fifth compiles the
// unedited queries, all through one session: every output matches its
// cold compile.
TEST(SessionRetention, ConcurrentEditorsMatchColdCompiles) {
  const std::vector<EditableQuery> queries = editable_queries();
  ASSERT_EQ(queries.size(), 5u);
  std::vector<std::string> goldens;
  for (const EditableQuery& q : queries) goldens.push_back(golden_vhdl(*q.query));
  driver::CompileSession session;
  constexpr int kEdits = 12;
  std::vector<std::string> failures(5);
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < 4; ++t) {
      pool.emplace_back([&, t]() {
        const EditableQuery& q = queries[t];
        const driver::CompileOptions options = tpch::query_options(*q.query);
        std::mt19937_64 rng(100 + t);
        for (int i = 0; i < kEdits && failures[t].empty(); ++i) {
          const std::vector<driver::NamedSource> sources = edit_sources(
              q, edit_source(std::string(q.query->source), q.spots, rng));
          driver::CompileResult warm = session.compile(sources, options);
          driver::CompileResult cold = driver::compile(sources, options);
          if (warm.success() != cold.success() ||
              warm.vhdl_text != cold.vhdl_text) {
            failures[t] = q.name + " edit " + std::to_string(i) +
                          " differs from its cold compile";
          }
        }
      });
    }
    pool.emplace_back([&]() {
      for (int round = 0; round < kEdits / 2 && failures[4].empty(); ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          driver::CompileResult r = tpch::compile_query(*queries[i].query,
                                                        session);
          if (r.vhdl_text != goldens[i]) {
            failures[4] = queries[i].name + " round " + std::to_string(round) +
                          " differs from its cold compile";
          }
        }
      }
    });
    for (std::thread& th : pool) th.join();
  }
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

// Two threads draw seeded edits of the five FILE queries through one
// session, so each edited top is written in place into the same file writer
// as external blocks cached by either thread's earlier compiles: every VHDL
// text and diagnostic report matches a session-free compile of the sources.
TEST(SessionRetention, TwoThreadEditsMatchSessionFreeCompiles) {
  const std::vector<EditableQuery> queries = editable_queries();
  ASSERT_EQ(queries.size(), 5u);
  obs::Counter& block_hits =
      obs::MetricsRegistry::global().counter("tydi.vhdl.memo_hits");
  const std::uint64_t hits_before = block_hits.value();
  driver::CompileSession session;
  constexpr int kEdits = 60;
  std::vector<std::string> failures(2);
  std::vector<int> compiled(2, 0);
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < 2; ++t) {
      pool.emplace_back([&, t]() {
        std::mt19937_64 rng(400 + t);
        for (int i = 0; i < kEdits && failures[t].empty(); ++i) {
          const EditableQuery& q = queries[std::uniform_int_distribution<
              std::size_t>(0, queries.size() - 1)(rng)];
          const driver::CompileOptions options = tpch::query_options(*q.query);
          const std::vector<driver::NamedSource> sources = edit_sources(
              q, edit_source(std::string(q.query->source), q.spots, rng));
          driver::CompileResult warm = session.compile(sources, options);
          driver::CompileResult cold = driver::compile(sources, options);
          if (warm.success() != cold.success() ||
              warm.vhdl_text != cold.vhdl_text ||
              warm.report() != cold.report()) {
            failures[t] = q.name + " edit " + std::to_string(i) +
                          " of thread " + std::to_string(t) +
                          " differs from its session-free compile";
          }
          if (cold.success()) ++compiled[t];
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  EXPECT_EQ(compiled[0] + compiled[1], 2 * kEdits);
  // The edits did interleave cached external blocks with fresh tops.
  EXPECT_GT(block_hits.value() - hits_before, 0u);
}

// A kept CompileResult whose design replayed a sim-block impl from another
// identity's compile stays simulatable after every footprint holding that
// impl left its ring; the AST it points into lives exactly as long as the
// result. Meant for the ASan job: a missing pin is a use-after-free.
TEST(SessionRetention, KeptDesignOutlivesItsFootprints) {
  const std::string source = R"tydi(
package keep;

type t_data = Stream(Bit(16), d=1, c=2);

impl worker_i of process_unit_s<type t_data, type t_data> @ external {
  sim {
    state s = "idle";
    on in_.receive {
      set s = "busy";
      delay(2);
      send(out);
      ack(in_);
      set s = "idle";
    }
  }
}

streamlet keep_top_s {
  feed: t_data in,
  result: t_data out,
}

impl keep_top of keep_top_s {
  instance par(parallelize_i<type t_data, type t_data, impl worker_i, 2>),
  feed => par.in_,
  par.out => result,
}
)tydi";
  auto variant = [&](int channels) {
    std::string text = source;
    const std::string needle = "impl worker_i, 2>";
    text.replace(text.find(needle), needle.size(),
                 "impl worker_i, " + std::to_string(channels) + ">");
    return text;
  };
  driver::CompileOptions options;
  options.top = "keep_top";
  options.emit_vhdl = false;
  driver::CompileSession session;

  // Same bytes under two names: b.td's compile replays worker_i from
  // a.td's elaboration, whose sim block points into a.td's AST.
  std::weak_ptr<const lang::SourceFile> a_ast;
  {
    driver::CompileResult a = session.compile({{"a.td", source}}, options);
    ASSERT_TRUE(a.success()) << a.report();
    a_ast = a.program->files.back();
  }
  driver::CompileResult kept = session.compile({{"b.td", source}}, options);
  ASSERT_TRUE(kept.success()) << kept.report();
  EXPECT_GT(kept.template_cache.session_hits(), 0u);

  // K + 1 edits of both identities evict every footprint holding worker_i.
  for (int edit = 0; edit <= static_cast<int>(driver::kRetainedCompiles);
       ++edit) {
    for (const char* name : {"a.td", "b.td"}) {
      ASSERT_TRUE(
          session.compile({{name, variant(3 + edit)}}, options).success());
    }
  }
  session.sweep();
  EXPECT_FALSE(a_ast.expired()) << "the kept design must pin a.td's AST";

  support::DiagnosticEngine diags;
  sim::Engine engine(kept.design, diags);
  sim::SimOptions sim_options;
  sim_options.max_time_ns = 1.0e6;
  sim::Stimulus stim;
  stim.port = "feed";
  constexpr int kPackets = 16;
  for (int i = 0; i < kPackets; ++i) {
    sim::Packet p;
    p.value = i;
    p.last = i == kPackets - 1;
    stim.packets.emplace_back(10.0 * i, p);
  }
  sim_options.stimuli.push_back(std::move(stim));
  sim::SimResult result = engine.run(sim_options);
  ASSERT_TRUE(result.top_outputs.contains("result"));
  EXPECT_EQ(result.top_outputs.at("result").size(),
            static_cast<std::size_t>(kPackets));

  kept = driver::CompileResult();
  EXPECT_TRUE(a_ast.expired()) << "nothing else may keep a.td's AST alive";
}

// A cached AST outlives the compile that parsed it: compile B replays the
// parses of compile A after A's result, its SourceManager and the source
// strings it was handed are all destroyed. So the tree may hold no view
// into a compile's source text. Meant for the ASan and TSan jobs: a view
// that outlived its text is a use-after-free.
TEST(SessionRetention, CachedParseOutlivesItsSourceText) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 19");
  ASSERT_NE(q, nullptr);
  const driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("tydi.parse.cache_hits");
  driver::CompileSession session;
  {
    auto sources =
        std::make_unique<std::vector<driver::NamedSource>>(
            tpch::query_sources(*q));
    driver::CompileResult a =
        session.compile(*sources, tpch::query_options(*q));
    ASSERT_TRUE(a.success()) << a.report();
    a.sources.reset();
    sources.reset();
  }
  const std::uint64_t hits_before = hits.value();
  const std::vector<driver::NamedSource> sources = tpch::query_sources(*q);
  driver::CompileResult b = session.compile(sources, tpch::query_options(*q));
  ASSERT_TRUE(b.success()) << b.report();
  // Every file (stdlib, Fletcher interfaces, the query) was a cache hit.
  EXPECT_EQ(hits.value() - hits_before, sources.size() + 1);
  EXPECT_EQ(b.ir_text, golden.ir_text);
  EXPECT_EQ(b.vhdl_text, golden.vhdl_text);
  EXPECT_EQ(b.report(), golden.report());
}

}  // namespace
}  // namespace tydi
