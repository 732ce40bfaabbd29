// Experiment E6 — compiler pipeline performance (Fig. 3).
//
// google-benchmark timings for each frontend phase (parse, elaborate,
// sugar, lower, DRC, IR emission, VHDL emission) on the real TPC-H inputs,
// plus a template-instantiation scaling benchmark (parallelize with growing
// channel counts exercises the monomorphiser and the generative for).
//
// With `--json <path>` it instead runs five sections and upserts each into
// the JSON trajectory file at <path> (BENCH_compile.json at the repo root).
// Every timing gate is a bench/harness.hpp pair sample: the two sides run
// alternately, >= 50 ms of each per pair, and the gate reads the median of
// the per-pair ratios. The thresholds are the constants below. The process
// exits non-zero when any gate fails.
//
//  - "compile_pipeline_tpch": cold rounds (every TPC-H query in a fresh
//    driver::CompileSession) against warm rounds (the same queries in one
//    surviving session). Gates: no compile fails, every round is
//    byte-identical to the first cold round, the warm template-cache hit
//    rate is >= 0.9 and cold/warm >= 1.25x. It records per-phase ms (the
//    mean over each side's rounds), hit rates, bytes and peak RSS.
//  - "compile_parallel": compile_batch at --jobs {1, 2, 4}, warm rounds of
//    the workload repeated to >= 50 ms at jobs=1. Gates: every worker count
//    byte-identical to jobs=1 with warm hit rate >= 0.9, and jobs=1/jobs=4
//    >= 1.5x on a host with >= 4 hardware threads (>= 0.7 otherwise).
//  - "obs_overhead": warm rounds with the span tracer enabled against
//    disabled; traced/untraced <= 1.05, outputs unchanged.
//  - "service_overload": the admission-controlled compile service at 4x its
//    capacity (4x as many retrying clients as workers) against the same
//    work at capacity (one client per worker). A request alternates
//    `SLEEP 2` (queued, run by a worker) with `TPCH 6 vhdl` (a result-cache
//    hit answered at admission). Gates: accepted replies byte-identical to
//    a single-shot compile, sheds classified kUnavailable, at least one
//    shed, the slowest shed reply <= 250 ms, and the accepted throughput at
//    4x >= 0.95 of the throughput at capacity on a >= 4-thread host (0.7
//    otherwise).
//  - "service_restart": a journaled daemon compiles the workload cold,
//    restarts on the same journal and replays. Gates: every journaled key
//    replays, post-replay responses are byte-identical to the first
//    daemon's, their result-cache hit rate is >= 0.9, and interactive
//    traffic racing the replay is served byte-identically or shed within
//    250 ms.
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parser/parser.hpp"
#include "src/service/service.hpp"
#include "src/stdlib/stdlib.hpp"
#include "src/support/retry.hpp"
#include "src/support/status.hpp"
#include "src/tpch/tpch.hpp"

namespace {

const tydi::tpch::QueryCase& query(std::size_t index) {
  return tydi::tpch::queries()[index];
}

std::vector<tydi::driver::NamedSource> sources_for(
    const tydi::tpch::QueryCase& q) {
  return {{"fletcher.td", tydi::tpch::fletcher_source()},
          {"query.td", std::string(q.source)}};
}

void BM_ParseOnly(benchmark::State& state) {
  const auto& q = query(static_cast<std::size_t>(state.range(0)));
  std::string text = std::string(tydi::stdlib::stdlib_source()) +
                     tydi::tpch::fletcher_source() + std::string(q.source);
  for (auto _ : state) {
    tydi::support::SourceManager sm;
    tydi::support::DiagnosticEngine diags(&sm);
    auto id = sm.add("bench.td", text);
    auto file = tydi::lang::parse(sm.text(id), id, diags);
    benchmark::DoNotOptimize(file);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_FullPipeline(benchmark::State& state) {
  const auto& q = query(static_cast<std::size_t>(state.range(0)));
  auto sources = sources_for(q);
  tydi::driver::CompileOptions options;
  options.top = q.top_impl;
  options.sugaring = q.sugaring;
  for (auto _ : state) {
    auto result = tydi::driver::compile(sources, options);
    benchmark::DoNotOptimize(result.vhdl_text);
  }
}

void BM_FrontendOnly(benchmark::State& state) {
  const auto& q = query(static_cast<std::size_t>(state.range(0)));
  auto sources = sources_for(q);
  tydi::driver::CompileOptions options;
  options.top = q.top_impl;
  options.sugaring = q.sugaring;
  options.emit_ir = false;
  options.emit_vhdl = false;
  for (auto _ : state) {
    auto result = tydi::driver::compile(sources, options);
    benchmark::DoNotOptimize(result.design);
  }
}

void BM_TemplateInstantiationScaling(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  std::string source = R"tydi(
type t_data = Stream(Bit(64), d=1, c=2);
impl pu of process_unit_s<type t_data, type t_data> @ external { }
streamlet top_s { feed: t_data in, result: t_data out, }
impl scale_top of top_s {
  instance par(parallelize_i<type t_data, type t_data, impl pu, @CH@>),
  feed => par.in_,
  par.out => result,
}
)tydi";
  std::string needle = "@CH@";
  source.replace(source.find(needle), needle.size(),
                 std::to_string(channels));
  tydi::driver::CompileOptions options;
  options.top = "scale_top";
  options.emit_vhdl = false;
  for (auto _ : state) {
    auto result = tydi::driver::compile_source(source, options);
    benchmark::DoNotOptimize(result.design);
  }
  state.SetComplexityN(channels);
}


// Pre-overhaul numbers measured on this container at the seed of this PR
// (single-string CodeWriter, per-compile template cache): the JSON section
// records them so the trajectory shows the emission-phase reduction against
// the same workload.
constexpr double kPreOverhaulTotalMs = 11.02;
constexpr double kPreOverhaulVhdlMs = 5.00;
constexpr double kPreOverhaulHitRate = 0.104;

// Thresholds of the --json gates (see the file comment).
constexpr double kMinWarmHitRate = 0.9;
constexpr double kMinWarmSpeedup = 1.25;
/// On a host with fewer than 4 hardware threads the two scaling gates fall
/// back to a no-regression floor: dispatch on an undersized machine must
/// not cost more than scheduling noise.
constexpr double kMinParallelSpeedup = 1.5;
constexpr double kMinParallelNoRegression = 0.7;
constexpr double kMaxObsOverhead = 1.05;
constexpr double kMinServiceThroughputRatio = 0.95;
constexpr double kMinServiceNoRegression = 0.7;
constexpr double kMaxShedReplyMs = 250.0;

/// The rounds one side of a comparison ran: phase ms summed over them, the
/// other figures from the last round (every round does the same work).
struct RoundMetrics {
  int rounds = 0;
  tydi::support::PhaseTimings phases;
  tydi::elab::InstantiationStats cache;
  std::size_t bytes = 0;   ///< IR + VHDL bytes emitted
  std::size_t failed = 0;  ///< over all rounds
};

/// One pass over every TPC-H query through `session`, added to `m`. The
/// first pass fills `texts` (VHDL + IR per query); every later pass must
/// reproduce them, or `identical` turns false. A failed compile keeps an
/// empty slot, so slots align by query index and failures are skipped.
void run_round(tydi::driver::CompileSession& session, RoundMetrics& m,
               std::vector<std::string>& texts, bool& identical) {
  // Seed canonical pipeline order: some cases skip phases (Q1 runs without
  // sugaring), and the aggregate must still print in pipeline order.
  for (const char* phase : tydi::driver::kPipelinePhases) {
    m.phases.add(phase, 0.0);
  }
  const bool reference = texts.empty();
  tydi::elab::InstantiationStats cache;
  ++m.rounds;
  m.bytes = 0;
  std::size_t index = 0;
  for (const tydi::tpch::QueryCase& q : tydi::tpch::queries()) {
    auto result = tydi::tpch::compile_query(q, session);
    std::string text;
    if (!result.success()) {
      ++m.failed;
    } else {
      for (const auto& e : result.phase_ms.entries()) {
        m.phases.add(e.phase, e.ms);
      }
      cache += result.template_cache;
      m.bytes += result.vhdl_text.size() + result.ir_text.size();
      text = std::move(result.vhdl_text);
      text += '\x01';
      text += result.ir_text;
    }
    if (reference) {
      texts.push_back(std::move(text));
    } else if (!text.empty() && !texts[index].empty() &&
               text != texts[index]) {
      identical = false;
    }
    ++index;
  }
  m.cache = cache;
}

long peak_rss_kb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;  // kilobytes on Linux
}

void round_json(harness::JsonWriter& json, std::string_view name,
                const RoundMetrics& m) {
  const double rounds = std::max(1, m.rounds);
  json.key(name).begin_object().field("rounds", m.rounds);
  json.key("phase_ms").begin_object();
  for (const auto& e : m.phases.entries()) json.field(e.phase, e.ms / rounds);
  json.end_object()
      .field("total_ms", m.phases.total_ms() / rounds)
      .key("template_cache")
      .begin_object()
      .field("streamlet_hits", std::uint64_t{m.cache.streamlet_hits})
      .field("streamlet_misses", std::uint64_t{m.cache.streamlet_misses})
      .field("impl_hits", std::uint64_t{m.cache.impl_hits})
      .field("impl_misses", std::uint64_t{m.cache.impl_misses})
      .field("session_hits", m.cache.session_hits())
      .field("hit_rate", m.cache.hit_rate())
      .end_object()
      .field("bytes_emitted", m.bytes)
      .end_object();
}

/// Cold rounds (a fresh session each) against warm rounds (one surviving
/// session), single-threaded, so timed in CPU time.
bool run_compile_json(const std::string& path) {
  std::vector<std::string> texts;
  bool identical = true;
  RoundMetrics reference, cold, warm;
  tydi::driver::CompileSession session;  // warmed by the reference round
  run_round(session, reference, texts, identical);
  const harness::PairSample speedup = harness::sample_pairs(
      harness::Clock::kCpu,
      [&] {
        tydi::driver::CompileSession fresh;
        run_round(fresh, cold, texts, identical);
      },
      [&] { run_round(session, warm, texts, identical); });
  const std::size_t failed = reference.failed + cold.failed + warm.failed;
  const double warm_hit_rate = warm.cache.hit_rate();

  const bool written = harness::write_section(
      path, "compile_pipeline_tpch", [&](harness::JsonWriter& json) {
        json.field("queries_compiled",
                   tydi::tpch::queries().size() - reference.failed)
            .field("queries_failed", failed)
            .key("baseline_pre_overhaul")
            .begin_object()
            .field("total_ms", kPreOverhaulTotalMs)
            .field("vhdl_ms", kPreOverhaulVhdlMs)
            .field("hit_rate", kPreOverhaulHitRate)
            .end_object();
        round_json(json, "cold", cold);
        round_json(json, "warm", warm);
        json.sample("cold_vs_warm", "cold", "warm", speedup)
            .field("warm_speedup", speedup.ratio.median)
            .field("min_warm_speedup", kMinWarmSpeedup)
            .field("warm_hit_rate", warm_hit_rate)
            .field("determinism_ok", identical)
            .field("hardware_concurrency", std::thread::hardware_concurrency())
            .field("peak_rss_kb", peak_rss_kb());
      });

  const double rounds = std::max(1, warm.rounds);
  std::cout << "compile pipeline: cold " << cold.rounds << " rounds, warm "
            << warm.rounds << " rounds; warm round " << warm.phases.total_ms() /
                                                            rounds
            << " ms of phases, hit rate " << warm_hit_rate
            << ", session hits " << warm.cache.session_hits() << "; bytes "
            << warm.bytes << "; peak RSS " << peak_rss_kb()
            << " kB\n";
  bool ok = harness::timing_gate(
      "warm speedup (cold/warm CPU ms, " + harness::describe(speedup) + ")",
      speedup.ratio.median, harness::Bound::kFloor, kMinWarmSpeedup);
  ok = harness::check(failed == 0,
                      std::to_string(failed) + " compile(s) failed") && ok;
  ok = harness::check(identical, "a recompile is not byte-identical to the "
                                 "first cold compile") && ok;
  ok = harness::check(warm_hit_rate >= kMinWarmHitRate,
                      "warm hit rate " + std::to_string(warm_hit_rate) +
                          " below " + std::to_string(kMinWarmHitRate)) && ok;
  return written && ok;
}

/// compile_batch at jobs {1, 2, 4} through one session per worker count.
/// A warm round compiles the workload repeated until a jobs=1 round takes
/// >= kMinRoundMs, so the rounds time compiles, not thread start-up.
bool run_compile_parallel_json(const std::string& path) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<tydi::driver::BatchJob> queries = tydi::tpch::batch_jobs();
  struct Lane {
    int workers = 0;
    std::unique_ptr<tydi::driver::CompileSession> session =
        std::make_unique<tydi::driver::CompileSession>();
    double cold_ms = 0.0;
    double warm_hit_rate = 0.0;
    bool identical = true;  ///< byte-identical to the jobs=1 texts
    std::size_t failed = 0;
  };
  std::vector<Lane> lanes;
  // Texts of the jobs=1 cold round; every other (lane, round) must match.
  std::vector<std::string> golden_vhdl;
  std::vector<std::string> golden_ir;
  auto run = [&](Lane& lane, const std::vector<tydi::driver::BatchJob>& work) {
    tydi::driver::BatchOptions batch_options;
    batch_options.jobs = lane.workers;
    batch_options.keep_texts = true;
    tydi::driver::BatchResult result =
        tydi::driver::compile_batch(*lane.session, work, batch_options);
    lane.failed += result.failures;
    lane.warm_hit_rate = result.template_cache.hit_rate();
    if (golden_vhdl.empty()) {
      for (const tydi::driver::BatchEntry& e : result.entries) {
        golden_vhdl.push_back(e.vhdl_text);
        golden_ir.push_back(e.ir_text);
      }
    }
    for (std::size_t i = 0; i < result.entries.size(); ++i) {
      const std::size_t q = i % golden_vhdl.size();
      if (result.entries[i].vhdl_text != golden_vhdl[q] ||
          result.entries[i].ir_text != golden_ir[q]) {
        lane.identical = false;
      }
    }
  };

  for (int workers : {1, 2, 4}) {
    Lane& lane = lanes.emplace_back();
    lane.workers = workers;
    const double start = harness::now_ms(harness::Clock::kWall);
    run(lane, queries);
    lane.cold_ms = harness::now_ms(harness::Clock::kWall) - start;
  }
  const double pass_ms = harness::round_ms(
      harness::Clock::kWall, [&] { run(lanes.front(), queries); });
  const auto repeats = static_cast<std::size_t>(
      std::ceil(harness::kMinRoundMs / std::max(pass_ms, 0.01)));
  std::vector<tydi::driver::BatchJob> work;
  for (std::size_t r = 0; r < repeats; ++r) {
    work.insert(work.end(), queries.begin(), queries.end());
  }
  run(lanes[1], work);  // jobs=2: identity and hit rate only
  const harness::PairSample speedup = harness::sample_pairs(
      harness::Clock::kWall, [&] { run(lanes.front(), work); },
      [&] { run(lanes.back(), work); });
  const bool scaling_expected = hw >= 4;
  const double required =
      scaling_expected ? kMinParallelSpeedup : kMinParallelNoRegression;

  const bool written = harness::write_section(
      path, "compile_parallel", [&](harness::JsonWriter& json) {
        json.field("hardware_concurrency", hw)
            .field("queries", queries.size())
            .field("queries_per_warm_round", work.size())
            .key("lanes")
            .begin_array();
        for (const Lane& lane : lanes) {
          json.begin_object()
              .field("jobs", lane.workers)
              .field("cold_ms", lane.cold_ms)
              .field("warm_hit_rate", lane.warm_hit_rate)
              .field("identical", lane.identical)
              .end_object();
        }
        json.end_array()
            .sample("jobs1_vs_jobs4", "jobs1", "jobs4", speedup)
            .field("speedup_jobs4_over_jobs1", speedup.ratio.median)
            .field("scaling_expected", scaling_expected)
            .field("required_speedup", required);
      });

  std::cout << "compile parallel: warm rounds of " << work.size()
            << " queries, jobs=1 " << speedup.a_ms.median << " ms, jobs=4 "
            << speedup.b_ms.median << " ms\n";
  bool ok = harness::timing_gate(
      "jobs=4 speedup (" + harness::describe(speedup) +
          (scaling_expected ? ", hw >= 4)" : ", no-regression floor)"),
      speedup.ratio.median, harness::Bound::kFloor, required);
  for (const Lane& lane : lanes) {
    const std::string jobs = "jobs=" + std::to_string(lane.workers);
    ok = harness::check(lane.failed == 0,
                        jobs + ": " + std::to_string(lane.failed) +
                            " compile(s) failed") && ok;
    ok = harness::check(lane.identical, jobs + " output differs from jobs=1") &&
         ok;
    ok = harness::check(lane.warm_hit_rate >= kMinWarmHitRate,
                        jobs + " warm hit rate " +
                            std::to_string(lane.warm_hit_rate) + " below " +
                            std::to_string(kMinWarmHitRate)) && ok;
  }
  return written && ok;
}

/// Warm rounds with the span tracer enabled against disabled, in CPU time
/// (one thread). Tracing must not change a byte of the output.
bool run_obs_overhead_json(const std::string& path) {
  tydi::obs::SpanTracer& tracer = tydi::obs::SpanTracer::global();
  tydi::driver::CompileSession session;
  std::vector<std::string> texts;
  bool identical = true;
  RoundMetrics rounds;
  run_round(session, rounds, texts, identical);  // warms the caches
  std::size_t spans_per_round = 0;
  auto round = [&](bool traced) {
    tracer.clear();
    tracer.set_enabled(traced);
    run_round(session, rounds, texts, identical);
    if (traced) spans_per_round = tracer.size();
    tracer.set_enabled(false);
  };
  const harness::PairSample overhead = harness::sample_pairs(
      harness::Clock::kCpu, [&] { round(true); }, [&] { round(false); });
  tracer.clear();

  const bool written = harness::write_section(
      path, "obs_overhead", [&](harness::JsonWriter& json) {
        json.sample("traced_vs_untraced", "traced", "untraced", overhead)
            .field("overhead_ratio", overhead.ratio.median)
            .field("max_overhead_ratio", kMaxObsOverhead)
            .field("spans_per_round", spans_per_round);
      });

  std::cout << "obs overhead: untraced " << overhead.b_ms.median
            << " ms, traced " << overhead.a_ms.median << " ms per round; "
            << spans_per_round << " span(s)/round\n";
  bool ok = harness::timing_gate(
      "traced/untraced CPU ms (" + harness::describe(overhead) + ")",
      overhead.ratio.median, harness::Bound::kCeiling, kMaxObsOverhead);
  ok = harness::check(rounds.failed == 0,
                      std::to_string(rounds.failed) + " compile(s) failed") &&
       ok;
  ok = harness::check(identical, "a traced compile changed the output") && ok;
  return written && ok;
}

/// Overload safety of the admission-controlled compile service. One burst
/// lands kRequestsPerBurst requests through `clients` retrying client
/// threads; a client alternates `SLEEP 2` (queued for a worker) with
/// `TPCH 6 vhdl` (a result-cache hit answered at admission). The baseline
/// burst runs one client per worker against a queue that never fills; the
/// overloaded burst runs 4x as many clients against a queue of 2x the
/// workers, so the excess is shed. Both do the same work, so the ratio of
/// their burst times is the accepted-throughput ratio.
bool run_service_overload_json(const std::string& path) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = static_cast<int>(std::min(4u, std::max(2u, hw)));
  const int clients = 4 * workers;
  constexpr int kRequestsPerBurst = 192;
  constexpr const char* kQueued = "SLEEP 2";
  constexpr const char* kHit = "TPCH 6 vhdl";
  using Clock = std::chrono::steady_clock;

  // Single-shot reference payload: one request against an idle service.
  std::string reference;
  {
    tydi::service::ServiceConfig config;
    config.workers = 1;
    tydi::service::CompileService svc(config);
    tydi::service::Response r = svc.handle_line(kHit);
    if (!harness::check(r.ok(), "reference compile failed: " + r.payload())) {
      return false;
    }
    reference = r.payload();
  }

  struct Tally {
    std::atomic<int> accepted{0};
    std::atomic<int> mismatched{0};
    std::atomic<int> unexpected{0};
    std::atomic<int> shed{0};
    std::atomic<std::int64_t> worst_shed_reply_us{0};
  };
  auto burst = [&](tydi::service::CompileService& svc, int n_clients,
                   Tally& tally) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_clients));
    for (int c = 0; c < n_clients; ++c) {
      threads.emplace_back([&, c]() {
        int attempt = 0;
        for (int landed = 0; landed < kRequestsPerBurst / n_clients;) {
          const bool hit = landed % 2 == 1;
          ++attempt;
          const auto t0 = Clock::now();
          tydi::service::Response r = svc.handle_line(hit ? kHit : kQueued);
          const auto reply_us =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - t0)
                  .count();
          if (r.ok()) {
            ++landed;
            ++tally.accepted;
            if (hit && r.payload() != reference) ++tally.mismatched;
            continue;
          }
          if (r.status.code() != tydi::support::StatusCode::kUnavailable) {
            ++tally.unexpected;
            return;
          }
          ++tally.shed;
          std::int64_t prev = tally.worst_shed_reply_us.load();
          while (prev < reply_us &&
                 !tally.worst_shed_reply_us.compare_exchange_weak(prev,
                                                                  reply_us)) {
          }
          // Jittered backoff, floored by the hint but capped low: the
          // point of the bench is sustained 4x offered load.
          const double delay_ms = std::min(
              std::max(r.retry_after_ms,
                       tydi::support::retry_jitter(
                           static_cast<std::uint64_t>(c), attempt)),
              5.0);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay_ms));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };

  tydi::service::ServiceConfig config;
  config.workers = workers;
  tydi::service::CompileService at_capacity(config);
  config.queue_capacity = static_cast<std::size_t>(2 * workers);
  tydi::service::CompileService overloaded(config);
  for (tydi::service::CompileService* svc : {&at_capacity, &overloaded}) {
    for (int i = 0; i < 3; ++i) {  // the third repeat is a result-cache hit
      tydi::service::Response warm = svc->handle_line(kHit);
      if (!harness::check(warm.ok(),
                          "warmup request failed: " + warm.payload())) {
        return false;
      }
    }
  }
  Tally base, over;
  const harness::PairSample throughput = harness::sample_pairs(
      harness::Clock::kWall, [&] { burst(at_capacity, workers, base); },
      [&] { burst(overloaded, clients, over); });
  const double worst_shed_reply_ms =
      static_cast<double>(over.worst_shed_reply_us.load()) / 1000.0;
  const bool full_gate = hw >= 4;
  const double floor =
      full_gate ? kMinServiceThroughputRatio : kMinServiceNoRegression;

  const bool written = harness::write_section(
      path, "service_overload", [&](harness::JsonWriter& json) {
        json.field("workers", workers)
            .field("queue_capacity", config.queue_capacity)
            .field("clients", clients)
            .field("requests_per_burst", kRequestsPerBurst)
            .field("accepted", over.accepted.load())
            .field("shed", over.shed.load())
            .field("shed_at_capacity", base.shed.load())
            .field("accepted_identical",
                   base.mismatched.load() + over.mismatched.load() == 0)
            .field("worst_shed_reply_ms", worst_shed_reply_ms)
            .field("max_shed_reply_ms", kMaxShedReplyMs)
            .sample("capacity_vs_overloaded", "at_capacity", "overloaded",
                    throughput)
            .field("throughput_ratio", throughput.ratio.median)
            .field("min_throughput_ratio", floor)
            .field("full_gate", full_gate);
      });

  std::cout << "service overload: " << over.accepted.load() << " accepted, "
            << over.shed.load() << " shed; burst at capacity "
            << throughput.a_ms.median << " ms, overloaded "
            << throughput.b_ms.median << " ms\n";
  bool ok = harness::timing_gate(
      "overloaded/at-capacity throughput (" + harness::describe(throughput) +
          (full_gate ? ")" : ", no-regression floor)"),
      throughput.ratio.median, harness::Bound::kFloor, floor);
  ok = harness::timing_gate("slowest shed reply ms", worst_shed_reply_ms,
                            harness::Bound::kCeiling, kMaxShedReplyMs) &&
       ok;
  ok = harness::check(over.shed.load() > 0,
                      "4x offered load shed no request") && ok;
  ok = harness::check(base.mismatched.load() + over.mismatched.load() == 0,
                      "an accepted response diverged from the single-shot "
                      "compile") && ok;
  ok = harness::check(base.unexpected.load() + over.unexpected.load() == 0,
                      "a request failed with a class other than "
                      "unavailable") && ok;
  return written && ok;
}

/// Crash-safe warm restarts: a journaled daemon compiles the full query
/// set, restarts on the same journal, and replays. Gates: every journaled
/// key replays, post-replay responses are byte-identical to the first
/// daemon's, the share of post-replay requests answered from the result
/// cache clears kMinWarmHitRate, and live interactive traffic arriving
/// *during* replay still gets prompt service — shed replies within
/// kMaxShedReplyMs, accepted replies byte-identical (replay is batch-class
/// work; it must never capture the queue).
bool run_service_restart_json(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  const std::string journal_path =
      "/tmp/tydi_bench_restart_" + std::to_string(::getpid()) + ".jnl";
  ::unlink(journal_path.c_str());

  std::vector<std::string> requests;
  for (const int q : {1, 3, 5, 6, 19}) {
    for (const char* emit : {"vhdl", "ir"}) {
      requests.push_back("TPCH " + std::to_string(q) + " " + emit);
    }
  }
  const std::size_t q6_vhdl_index = 6;  // "TPCH 6 vhdl" in `requests`

  tydi::service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;

  // Pass 1 — cold journaled daemon: serve the workload (recording every
  // key), keep the reference payloads, drain (which compacts).
  std::vector<std::string> reference(requests.size());
  double cold_workload_ms = 0.0;
  {
    tydi::service::CompileService svc(config);
    if (!harness::check(svc.journal() != nullptr,
                        "journal " + journal_path + " unusable")) {
      return false;
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      tydi::service::Response r = svc.handle_line(requests[i]);
      if (!harness::check(r.ok(), "cold compile '" + requests[i] +
                                      "' failed: " + r.payload())) {
        return false;
      }
      reference[i] = r.payload();
    }
    cold_workload_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    svc.drain();
  }

  // Pass 2 — restart + replay with no competing traffic: time-to-warm,
  // first-request latency, byte identity, and the warm hit rate over the
  // replayed workload.
  double replay_ms = 0.0;
  double first_request_ms = 0.0;
  double warm_workload_ms = 0.0;
  double post_replay_hit_rate = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t skipped_stale = 0;
  int mismatched = 0;
  {
    auto& reg = tydi::obs::MetricsRegistry::global();
    tydi::obs::Counter& replayed_metric =
        reg.counter("tydi.service.replay.replayed");
    tydi::obs::Counter& stale_metric =
        reg.counter("tydi.service.replay.skipped_stale");
    const std::uint64_t replayed0 = replayed_metric.value();
    const std::uint64_t stale0 = stale_metric.value();
    tydi::service::CompileService svc(config);
    const std::size_t recovered =
        svc.journal() ? svc.journal()->recovered_records() : 0;
    if (!harness::check(recovered == requests.size(),
                        "restart recovered " + std::to_string(recovered) +
                            " record(s), expected " +
                            std::to_string(requests.size()))) {
      return false;
    }
    const auto t0 = Clock::now();
    svc.start_replay();
    svc.wait_replay();
    replay_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    replayed = replayed_metric.value() - replayed0;
    skipped_stale = stale_metric.value() - stale0;

    // Replay admitted every recovered key, so each post-replay request
    // should be a whole-result hit.
    tydi::obs::Counter& result_hits =
        reg.counter("tydi.service.result_cache.hits");
    const std::uint64_t hits0 = result_hits.value();
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto tr = Clock::now();
      tydi::service::Response r = svc.handle_line(requests[i]);
      if (i == 0) {
        first_request_ms = std::chrono::duration<double, std::milli>(
                               Clock::now() - tr)
                               .count();
      }
      if (!r.ok() || r.payload() != reference[i]) ++mismatched;
    }
    warm_workload_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
    post_replay_hit_rate = static_cast<double>(result_hits.value() - hits0) /
                           static_cast<double>(requests.size());
    svc.drain();
  }

  // Pass 3 — restart again with a tiny queue and an interactive flood
  // racing the replay: replay is batch work, so live traffic must still be
  // served (byte-identically) or shed with a prompt kUnavailable reply.
  int live_accepted = 0;
  int live_shed = 0;
  int live_unexpected = 0;
  int live_mismatched = 0;
  double worst_live_shed_ms = 0.0;
  {
    tydi::service::ServiceConfig tight = config;
    tight.queue_capacity = 2;
    tydi::service::CompileService svc(tight);
    svc.start_replay();
    constexpr int kLiveClients = 4;
    constexpr int kLiveRequests = 3;
    std::mutex mu;
    std::vector<std::thread> threads;
    for (int c = 0; c < kLiveClients; ++c) {
      threads.emplace_back([&]() {
        for (int i = 0; i < kLiveRequests; ++i) {
          const auto t0 = Clock::now();
          tydi::service::Response r = svc.handle_line("TPCH 6 vhdl");
          const double reply_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
          std::lock_guard lock(mu);
          if (r.ok()) {
            ++live_accepted;
            if (r.payload() != reference[q6_vhdl_index]) ++live_mismatched;
          } else if (r.status.code() ==
                     tydi::support::StatusCode::kUnavailable) {
            ++live_shed;
            worst_live_shed_ms = std::max(worst_live_shed_ms, reply_ms);
          } else {
            ++live_unexpected;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    svc.wait_replay();
    svc.drain();
  }
  ::unlink(journal_path.c_str());


  const bool written = harness::write_section(
      path, "service_restart", [&](harness::JsonWriter& json) {
        json.field("journaled_keys", requests.size())
            .field("cold_workload_ms", cold_workload_ms)
            .field("replay_ms", replay_ms)
            .field("first_request_after_restart_ms", first_request_ms)
            .field("warm_workload_ms", warm_workload_ms)
            .field("replayed", replayed)
            .field("replay_skipped_stale", skipped_stale)
            .field("post_replay_hit_rate", post_replay_hit_rate)
            .field("min_warm_hit_rate", kMinWarmHitRate)
            .field("post_replay_identical", mismatched == 0)
            .field("live_accepted_during_replay", live_accepted)
            .field("live_shed_during_replay", live_shed)
            .field("worst_live_shed_reply_ms", worst_live_shed_ms)
            .field("max_shed_reply_ms", kMaxShedReplyMs);
      });

  std::cout << "service restart: " << replayed << "/" << requests.size()
            << " key(s) replayed in " << replay_ms
            << " ms (cold workload " << cold_workload_ms
            << " ms, warm workload " << warm_workload_ms
            << " ms); post-replay hit rate " << post_replay_hit_rate
            << "; during replay " << live_accepted << " live accepted, "
            << live_shed << " shed (worst shed reply "
            << worst_live_shed_ms << " ms)\n";

  bool ok = harness::check(replayed == requests.size(),
                           std::to_string(replayed) + "/" +
                               std::to_string(requests.size()) +
                               " journaled key(s) replayed");
  ok = harness::check(mismatched == 0,
                      std::to_string(mismatched) +
                          " post-replay response(s) diverged from the "
                          "pre-restart daemon") && ok;
  ok = harness::check(post_replay_hit_rate >= kMinWarmHitRate,
                      "post-replay hit rate " +
                          std::to_string(post_replay_hit_rate) + " below " +
                          std::to_string(kMinWarmHitRate)) && ok;
  ok = harness::check(live_unexpected == 0,
                      std::to_string(live_unexpected) +
                          " live request(s) during replay failed with a "
                          "class other than unavailable") && ok;
  ok = harness::check(live_mismatched == 0,
                      std::to_string(live_mismatched) +
                          " live response(s) during replay diverged") && ok;
  ok = harness::check(live_shed == 0 || worst_live_shed_ms <= kMaxShedReplyMs,
                      "slowest shed reply during replay " +
                          std::to_string(worst_live_shed_ms) +
                          " ms above " + std::to_string(kMaxShedReplyMs) +
                          " ms") && ok;
  return written && ok;
}

}  // namespace

BENCHMARK(BM_ParseOnly)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FrontendOnly)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FullPipeline)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TemplateInstantiationScaling)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const std::string path = argv[i + 1];
      bool ok = run_compile_json(path);
      ok = run_compile_parallel_json(path) && ok;
      ok = run_obs_overhead_json(path) && ok;
      ok = run_service_overload_json(path) && ok;
      ok = run_service_restart_json(path) && ok;
      return ok ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
