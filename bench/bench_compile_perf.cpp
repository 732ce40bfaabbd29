// Experiment E6 — compiler pipeline performance (Fig. 3).
//
// google-benchmark timings for each frontend phase (parse, elaborate,
// sugar, lower, DRC, IR emission, VHDL emission) on the real TPC-H inputs,
// plus a template-instantiation scaling benchmark (parallelize with growing
// channel counts exercises the monomorphiser and the generative for).
//
// With `--json <path>` the harness instead measures the cold-vs-warm
// behaviour of a driver::CompileSession on the TPC-H workload: cold rounds
// (default 3) each compile every query in a *fresh* session, warm rounds
// (default 5) recompile the same queries in one surviving session so the
// process-wide template memo and parse cache serve them. Identical work per
// round, so each side reports its fastest round (noise-robust minimum).
// Per-phase wall-clock (pipeline order), template-cache hit rates, emitted
// bytes, emission chunk allocations and peak RSS are upserted as the
// "compile_pipeline_tpch" section of the given JSON trajectory file
// (BENCH_compile.json at the repo root).
//
// The JSON run also *gates*: it exits non-zero when any query fails, when a
// warm recompile is not byte-identical to the cold compile, when the warm
// template-cache hit rate falls below --min-warm-hit-rate (default 0.9), or
// when the warm speedup falls below --min-warm-speedup (default 1.25; the
// committed BENCH_compile.json tracks the actual measured value).
//
// A second section, "compile_parallel", measures the parallel
// compile_batch at --jobs {1, 2, 4}: per-lane cold wall clock, and warm
// rounds of the workload repeated to >= 50 ms at jobs=1, interleaved across
// the worker counts. It reports the median warm round, throughput and warm
// hit rate, and gates on byte-identity across worker counts, the warm
// hit-rate threshold at every count, and a jobs=4-over-jobs=1 speedup (the
// median of the per-round ratios) of --min-parallel-speedup (default 1.5)
// when the machine has >= 4 hardware threads (a no-regression floor of
// --min-parallel-no-regression, default 0.7, otherwise).
//
// A third section, "obs_overhead", interleaves warm rounds (the workload
// repeated to >= 50 ms) with the span tracer enabled and disabled and gates
// the median of the per-pair traced/untraced ratios at
// --max-obs-overhead (default 1.05), plus a registry-vs-result-struct
// consistency check — the metrics the daemon exports and the numbers this
// harness writes come from the same counters and must agree exactly.
//
// A fourth section, "service_overload", drives the admission-controlled
// compile service at 4x its capacity (4x as many retrying clients as
// workers) and gates overload safety: every accepted response must be
// byte-identical to a single-shot compile, every shed must classify as
// kUnavailable (exit 12) with a retry-after hint inside
// --max-shed-reply-ms (default 250), and the warm accepted throughput must
// stay within --min-service-throughput-ratio (default 0.95) of the pre-
// queue thread-per-request baseline (same worker count compiling directly
// through one shared session) when the machine has >= 4 hardware threads
// (no-regression floor of 0.7 otherwise).
//
// A fifth section, "service_restart", exercises the durable compile
// journal: a journaled daemon compiles the workload cold, restarts on the
// same journal, and replays. Gates: every journaled key replays, the
// post-replay responses are byte-identical to the pre-restart daemon's,
// the post-replay memo hit rate clears --min-warm-hit-rate, and
// interactive traffic racing the replay is either served byte-identically
// or shed within --max-shed-reply-ms.
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parser/parser.hpp"
#include "src/service/service.hpp"
#include "src/stdlib/stdlib.hpp"
#include "src/support/retry.hpp"
#include "src/support/status.hpp"
#include "src/support/text.hpp"
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

/// One batch round (all TPC-H queries through one session pass).
struct RoundMetrics {
  tydi::support::PhaseTimings phases;
  tydi::elab::InstantiationStats cache;
  std::size_t bytes = 0;                    ///< IR + VHDL bytes emitted
  std::uint64_t emission_chunk_allocs = 0;  ///< CodeWriter chunks allocated
  std::size_t failed = 0;
};

RoundMetrics run_round(tydi::driver::CompileSession& session,
                       std::vector<std::string>* texts_out,
                       bool* determinism_ok,
                       const std::vector<std::string>* cold_texts) {
  RoundMetrics m;
  // Seed canonical pipeline order: some cases skip phases (Q1 runs without
  // sugaring), and the aggregate must still print in pipeline order.
  for (const char* phase : tydi::driver::kPipelinePhases) {
    m.phases.add(phase, 0.0);
  }
  std::size_t index = 0;
  const std::uint64_t allocs_before =
      tydi::support::CodeWriter::process_chunk_allocs();
  for (const tydi::tpch::QueryCase& q : tydi::tpch::queries()) {
    auto result = tydi::tpch::compile_query(q, session);
    // One text slot per query, failed or not, so determinism comparisons
    // across rounds always align by query index. Failed compiles keep an
    // empty slot and are excluded from the byte comparison.
    std::string text;
    if (!result.success()) {
      ++m.failed;
    } else {
      for (const auto& e : result.phase_ms.entries()) {
        m.phases.add(e.phase, e.ms);
      }
      m.cache += result.template_cache;
      m.bytes += result.vhdl_text.size() + result.ir_text.size();
      text = std::move(result.vhdl_text);
      text += '\x01';
      text += result.ir_text;
      if (cold_texts != nullptr && determinism_ok != nullptr &&
          index < cold_texts->size() && !(*cold_texts)[index].empty() &&
          text != (*cold_texts)[index]) {
        *determinism_ok = false;
      }
    }
    if (texts_out != nullptr) texts_out->push_back(std::move(text));
    ++index;
  }
  m.emission_chunk_allocs =
      tydi::support::CodeWriter::process_chunk_allocs() - allocs_before;
  return m;
}

long peak_rss_kb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;  // kilobytes on Linux
}

void append_round_json(std::ostream& out, const char* name,
                       const RoundMetrics& m) {
  out << "  \"" << name << "\": {\n    \"phase_ms\": {";
  const auto& entries = m.phases.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << entries[i].phase
        << "\": " << entries[i].ms;
  }
  out << "},\n"
      << "    \"total_ms\": " << m.phases.total_ms() << ",\n"
      << "    \"template_cache\": {\n"
      << "      \"streamlet_hits\": " << m.cache.streamlet_hits << ",\n"
      << "      \"streamlet_misses\": " << m.cache.streamlet_misses << ",\n"
      << "      \"impl_hits\": " << m.cache.impl_hits << ",\n"
      << "      \"impl_misses\": " << m.cache.impl_misses << ",\n"
      << "      \"session_hits\": " << m.cache.session_hits() << ",\n"
      << "      \"hit_rate\": " << m.cache.hit_rate() << "\n"
      << "    },\n"
      << "    \"bytes_emitted\": " << m.bytes << ",\n"
      << "    \"emission_chunk_allocs\": " << m.emission_chunk_allocs << "\n"
      << "  }";
}

struct JsonOptions {
  const char* path = nullptr;
  int cold_rounds = 5;
  int warm_rounds = 7;
  double min_warm_hit_rate = 0.9;
  double min_warm_speedup = 1.25;
  /// Required warm speedup of --jobs 4 over --jobs 1 when the machine has
  /// >= 4 hardware threads. Below that the gate degrades to a
  /// no-regression floor: parallel dispatch on an undersized machine must
  /// not cost more than scheduling noise.
  double min_parallel_speedup = 1.5;
  double min_parallel_no_regression = 0.7;
  /// Ceiling on (warm ms with span tracing enabled) / (warm ms with it
  /// disabled). The obs layer promises low single-digit-percent overhead;
  /// this gate is where that promise is enforced.
  double max_obs_overhead = 1.05;
  /// Floor on (accepted throughput at 4x offered load) / (thread-per-
  /// request baseline throughput) when the machine has >= 4 hardware
  /// threads. The bounded queue + worker pool must not tax the accepted
  /// path; admission control only sheds the excess.
  double min_service_throughput_ratio = 0.95;
  /// A no-regression floor used instead on undersized machines, mirroring
  /// the parallel-compile gate.
  double min_service_no_regression = 0.7;
  /// Ceiling on the slowest observed shed reply, in ms: overload answers
  /// must be prompt precisely when the service is busiest.
  double max_shed_reply_ms = 250.0;
};

/// Observability overhead + consistency: warm TPC-H rounds with the span
/// tracer enabled vs disabled, interleaved (ABAB...) so machine drift hits
/// both sides equally, minimum-of-rounds per side. Gates on the
/// traced/untraced ratio and on the registry counters agreeing exactly
/// with the per-compile result structs (the "metrics can never disagree
/// with BENCH_*.json" invariant).
/// Shortest timed round of the two timing gates below: long enough that a
/// round times compiles, not thread start-up or timer noise.
constexpr double kMinRoundMs = 50.0;

int run_obs_overhead_json(const JsonOptions& options) {
  tydi::obs::SpanTracer& tracer = tydi::obs::SpanTracer::global();
  auto& reg = tydi::obs::MetricsRegistry::global();
  constexpr int kRoundsPerSide = 9;

  tydi::driver::CompileSession session;
  run_round(session, nullptr, nullptr, nullptr);  // warm the caches

  // Registry-vs-struct consistency on one warm compile.
  const std::uint64_t vhdl_bytes_before =
      reg.counter("tydi.vhdl.bytes_emitted").value();
  const std::uint64_t elab_before =
      reg.counter("tydi.elab.instantiation_hits").value() +
      reg.counter("tydi.elab.instantiation_misses").value();
  const tydi::tpch::QueryCase* probe = tydi::tpch::find_query("TPC-H 6");
  tydi::driver::CompileResult probe_result =
      tydi::tpch::compile_query(*probe, session);
  const bool registry_consistent =
      probe_result.success() &&
      reg.counter("tydi.vhdl.bytes_emitted").value() - vhdl_bytes_before ==
          probe_result.vhdl_text.size() &&
      reg.counter("tydi.elab.instantiation_hits").value() +
              reg.counter("tydi.elab.instantiation_misses").value() -
              elab_before ==
          probe_result.template_cache.hits() +
              probe_result.template_cache.misses();

  // One timed round is `passes` warm passes over the workload, enough for
  // kMinRoundMs untraced. Traced and untraced rounds alternate in pairs
  // (the order flips every pair) and the gate reads the median of the
  // per-pair ratios.
  std::size_t spans_per_round = 0;
  std::size_t failed = 0;
  auto timed_round = [&](bool traced, int passes) {
    tracer.clear();
    tracer.set_enabled(traced);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < passes; ++i) {
      failed += run_round(session, nullptr, nullptr, nullptr).failed;
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (traced) spans_per_round = tracer.size() / passes;
    return ms;
  };
  double one_pass_ms = timed_round(false, 1);
  for (int i = 0; i < 2; ++i) {
    one_pass_ms = std::min(one_pass_ms, timed_round(false, 1));
  }
  const int passes =
      static_cast<int>(std::ceil(kMinRoundMs / std::max(one_pass_ms, 0.01)));
  std::vector<double> traced_rounds;
  std::vector<double> untraced_rounds;
  std::vector<double> ratios;
  for (int pair = 0; pair < kRoundsPerSide; ++pair) {
    const bool traced_first = pair % 2 == 0;
    const double first = timed_round(traced_first, passes);
    const double second = timed_round(!traced_first, passes);
    traced_rounds.push_back(traced_first ? first : second);
    untraced_rounds.push_back(traced_first ? second : first);
    ratios.push_back(traced_rounds.back() / untraced_rounds.back());
  }
  tracer.set_enabled(false);
  tracer.clear();

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double traced_ms = median(traced_rounds);
  const double untraced_ms = median(untraced_rounds);
  const double overhead_ratio = median(ratios);

  std::ostringstream section;
  section << "{\n"
          << "  \"benchmark\": \"obs_overhead\",\n"
          << "  \"rounds_per_side\": " << kRoundsPerSide << ",\n"
          << "  \"passes_per_round\": " << passes << ",\n"
          << "  \"warm_ms_untraced\": " << untraced_ms << ",\n"
          << "  \"warm_ms_traced\": " << traced_ms << ",\n"
          << "  \"overhead_ratio\": " << overhead_ratio << ",\n"
          << "  \"max_overhead_ratio\": " << options.max_obs_overhead << ",\n"
          << "  \"spans_per_round\": " << spans_per_round << ",\n"
          << "  \"registry_consistent\": "
          << (registry_consistent ? "true" : "false") << "\n"
          << "}";
  if (!benchjson::upsert_section(options.path, "obs_overhead",
                                 section.str())) {
    std::cerr << "error: cannot write " << options.path << "\n";
    return 1;
  }

  std::cout << "obs overhead: untraced " << untraced_ms << " ms, traced "
            << traced_ms << " ms, ratio " << overhead_ratio << " (max "
            << options.max_obs_overhead << "); " << spans_per_round
            << " span(s)/round; registry "
            << (registry_consistent ? "consistent" : "INCONSISTENT") << "\n";

  int rc = 0;
  if (failed > 0) {
    std::cerr << "error: " << failed << " compile(s) failed\n";
    rc = 1;
  }
  if (!registry_consistent) {
    std::cerr << "error: metrics registry disagrees with compile result "
                 "structs\n";
    rc = 1;
  }
  if (overhead_ratio > options.max_obs_overhead) {
    std::cerr << "error: span tracing overhead " << overhead_ratio
              << "x above ceiling " << options.max_obs_overhead << "x\n";
    rc = 1;
  }
  return rc;
}

/// Parallel compile_batch throughput at --jobs {1, 2, 4}: a cold round
/// (fresh session) per worker count, then interleaved warm rounds through
/// the surviving sessions. A warm round compiles the workload repeated
/// until a jobs=1 round takes >= kMinRoundMs, so the rounds time compiles,
/// not thread start-up. Gates: every worker count must reproduce the
/// jobs=1 texts byte for byte (cold and warm), reach the warm hit-rate
/// threshold, and — when the machine actually has >= 4 hardware threads —
/// jobs=4 must beat jobs=1 by min_parallel_speedup in the median of the
/// per-round jobs=1/jobs=4 ratios (no-regression floor otherwise; the
/// committed BENCH_compile.json records what was measured).
int run_compile_parallel_json(const JsonOptions& options) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<tydi::driver::BatchJob> queries = tydi::tpch::batch_jobs();
  constexpr int kWorkerCounts[] = {1, 2, 4};
  constexpr int kWarmRounds = 9;

  struct Lane {
    int workers = 0;
    std::unique_ptr<tydi::driver::CompileSession> session =
        std::make_unique<tydi::driver::CompileSession>();
    double cold_ms = 0.0;
    std::vector<double> warm_round_ms;
    double warm_ms = 0.0;  ///< median warm round
    double warm_hit_rate = 0.0;
    double warm_queries_per_sec = 0.0;
    bool identical = true;  ///< byte-identical to the jobs=1 texts
    std::size_t failed = 0;
  };
  std::vector<Lane> lanes;
  // Texts of the jobs=1 cold round; every other (lane, round) must match.
  std::vector<std::string> golden_vhdl;
  std::vector<std::string> golden_ir;

  auto timed_round = [&](Lane& lane,
                         const std::vector<tydi::driver::BatchJob>& work) {
    tydi::driver::BatchOptions batch_options;
    batch_options.jobs = lane.workers;
    batch_options.keep_texts = true;
    const auto start = std::chrono::steady_clock::now();
    tydi::driver::BatchResult result =
        tydi::driver::compile_batch(*lane.session, work, batch_options);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
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
    return ms;
  };

  for (int workers : kWorkerCounts) {
    lanes.emplace_back().workers = workers;
    lanes.back().cold_ms = timed_round(lanes.back(), queries);
  }
  // Size the warm rounds on the fastest of three warm jobs=1 passes.
  double one_pass_ms = timed_round(lanes.front(), queries);
  for (int i = 0; i < 2; ++i) {
    one_pass_ms = std::min(one_pass_ms, timed_round(lanes.front(), queries));
  }
  const auto repeats = static_cast<std::size_t>(
      std::ceil(kMinRoundMs / std::max(one_pass_ms, 0.01)));
  std::vector<tydi::driver::BatchJob> work;
  for (std::size_t r = 0; r < repeats; ++r) {
    work.insert(work.end(), queries.begin(), queries.end());
  }
  std::vector<double> ratios;
  for (int round = 0; round < kWarmRounds; ++round) {
    for (Lane& lane : lanes) {
      lane.warm_round_ms.push_back(timed_round(lane, work));
    }
    ratios.push_back(lanes.front().warm_round_ms.back() /
                     lanes.back().warm_round_ms.back());
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (Lane& lane : lanes) {
    lane.warm_ms = median(lane.warm_round_ms);
    lane.warm_queries_per_sec =
        static_cast<double>(work.size()) / (lane.warm_ms / 1000.0);
  }

  const double speedup_j4 = median(ratios);
  const bool scaling_expected = hw >= 4;
  const double required =
      scaling_expected ? options.min_parallel_speedup
                       : options.min_parallel_no_regression;

  std::ostringstream section;
  section << "{\n"
          << "  \"benchmark\": \"compile_parallel\",\n"
          << "  \"hardware_concurrency\": " << hw << ",\n"
          << "  \"queries\": " << queries.size() << ",\n"
          << "  \"queries_per_warm_round\": " << work.size() << ",\n"
          << "  \"warm_rounds\": " << kWarmRounds << ",\n"
          << "  \"lanes\": [\n";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const Lane& lane = lanes[i];
    section << "    {\"jobs\": " << lane.workers
            << ", \"cold_ms\": " << lane.cold_ms
            << ", \"warm_ms\": " << lane.warm_ms
            << ", \"warm_queries_per_sec\": " << lane.warm_queries_per_sec
            << ", \"warm_hit_rate\": " << lane.warm_hit_rate
            << ", \"identical\": " << (lane.identical ? "true" : "false")
            << "}" << (i + 1 < lanes.size() ? "," : "") << "\n";
  }
  section << "  ],\n"
          << "  \"speedup_jobs4_over_jobs1\": " << speedup_j4 << ",\n"
          << "  \"scaling_expected\": "
          << (scaling_expected ? "true" : "false") << ",\n"
          << "  \"required_speedup\": " << required << "\n"
          << "}";
  if (!benchjson::upsert_section(options.path, "compile_parallel",
                                 section.str())) {
    std::cerr << "error: cannot write " << options.path << "\n";
    return 1;
  }

  std::cout << "compile parallel (median of " << kWarmRounds
            << " interleaved warm rounds of " << work.size() << " queries):";
  for (const Lane& lane : lanes) {
    std::cout << " jobs=" << lane.workers << " warm " << lane.warm_ms
              << " ms (hit rate " << lane.warm_hit_rate << ")";
  }
  std::cout << "; jobs=4 speedup " << speedup_j4 << "x (required " << required
            << (scaling_expected ? ", hw >= 4" : ", no-regression floor")
            << ")\n";

  int rc = 0;
  for (const Lane& lane : lanes) {
    if (lane.failed > 0) {
      std::cerr << "error: jobs=" << lane.workers << ": " << lane.failed
                << " compile(s) failed\n";
      rc = 1;
    }
    if (!lane.identical) {
      std::cerr << "error: jobs=" << lane.workers
                << " output differs from jobs=1\n";
      rc = 1;
    }
    if (lane.warm_hit_rate < options.min_warm_hit_rate) {
      std::cerr << "error: jobs=" << lane.workers << " warm hit rate "
                << lane.warm_hit_rate << " below threshold "
                << options.min_warm_hit_rate << "\n";
      rc = 1;
    }
  }
  if (speedup_j4 < required) {
    std::cerr << "error: jobs=4 speedup " << speedup_j4
              << "x below required " << required << "x\n";
    rc = 1;
  }
  return rc;
}

int run_compile_json(const JsonOptions& options) {
  // Cold: every round in a *fresh* session, so each pays the full
  // monomorphisation cost; the fastest round is reported (identical work
  // per round, so the minimum is the noise-robust statistic on shared
  // machines). The last cold session is kept and becomes the warm one.
  std::vector<std::string> cold_texts;
  bool determinism_ok = true;
  RoundMetrics cold;
  bool have_cold = false;
  auto session = std::make_unique<tydi::driver::CompileSession>();
  for (int round = 0; round < options.cold_rounds; ++round) {
    if (round > 0) session = std::make_unique<tydi::driver::CompileSession>();
    RoundMetrics candidate = run_round(
        *session, cold_texts.empty() ? &cold_texts : nullptr,
        &determinism_ok, cold_texts.empty() ? nullptr : &cold_texts);
    if (!have_cold || candidate.phases.total_ms() < cold.phases.total_ms()) {
      cold.phases = candidate.phases;
      cold.bytes = candidate.bytes;
      cold.emission_chunk_allocs = candidate.emission_chunk_allocs;
    }
    cold.cache = candidate.cache;  // identical work per round; keep the last
    cold.failed = std::max(cold.failed, candidate.failed);
    have_cold = true;
  }

  // Warm: recompile the identical workload in the surviving session — the
  // memo and parse cache serve it. Every warm round must reproduce the
  // cold bytes exactly; minimum-of-rounds again.
  RoundMetrics warm;
  bool have_warm = false;
  for (int round = 0; round < options.warm_rounds; ++round) {
    RoundMetrics candidate =
        run_round(*session, nullptr, &determinism_ok, &cold_texts);
    if (!have_warm ||
        candidate.phases.total_ms() < warm.phases.total_ms()) {
      warm.phases = candidate.phases;
      warm.bytes = candidate.bytes;
      warm.emission_chunk_allocs = candidate.emission_chunk_allocs;
    }
    warm.cache = candidate.cache;  // identical work per round; keep the last
    warm.failed = std::max(warm.failed, candidate.failed);
    have_warm = true;
  }

  const double warm_speedup =
      warm.phases.total_ms() > 0.0
          ? cold.phases.total_ms() / warm.phases.total_ms()
          : 0.0;
  const double warm_hit_rate = warm.cache.hit_rate();

  std::ostringstream section;
  section << "{\n"
          << "  \"benchmark\": \"compile_pipeline_tpch\",\n"
          << "  \"queries_compiled\": "
          << (tydi::tpch::queries().size() - cold.failed) << ",\n"
          << "  \"queries_failed\": " << cold.failed + warm.failed << ",\n"
          << "  \"baseline_pre_overhaul\": {\"total_ms\": "
          << kPreOverhaulTotalMs << ", \"vhdl_ms\": " << kPreOverhaulVhdlMs
          << ", \"hit_rate\": " << kPreOverhaulHitRate << "},\n";
  append_round_json(section, "cold", cold);
  section << ",\n";
  append_round_json(section, "warm", warm);
  section << ",\n"
          << "  \"cold_rounds\": " << options.cold_rounds << ",\n"
          << "  \"warm_rounds\": " << options.warm_rounds << ",\n"
          << "  \"warm_speedup\": " << warm_speedup << ",\n"
          << "  \"warm_hit_rate\": " << warm_hit_rate << ",\n"
          << "  \"determinism_ok\": " << (determinism_ok ? "true" : "false")
          << ",\n"
          << "  \"hardware_concurrency\": "
          << std::thread::hardware_concurrency() << ",\n"
          << "  \"peak_rss_kb\": " << peak_rss_kb() << "\n"
          << "}";

  if (!benchjson::upsert_section(options.path, "compile_pipeline_tpch",
                                 section.str())) {
    std::cerr << "error: cannot write " << options.path << "\n";
    return 1;
  }

  std::cout << "compile pipeline (cold): " << cold.phases.total_ms()
            << " ms (" << cold.phases.render() << "); hit rate "
            << cold.cache.hit_rate() << "\n"
            << "compile pipeline (warm): " << warm.phases.total_ms()
            << " ms (" << warm.phases.render() << "); hit rate "
            << warm_hit_rate << "; session hits "
            << warm.cache.session_hits() << "\n"
            << "warm speedup " << warm_speedup << "x; determinism "
            << (determinism_ok ? "ok" : "VIOLATED") << "; bytes "
            << cold.bytes << "; emission chunk allocs cold "
            << cold.emission_chunk_allocs << " / warm "
            << warm.emission_chunk_allocs << "; peak RSS " << peak_rss_kb()
            << " kB; JSON written to " << options.path << "\n";

  int rc = 0;
  if (cold.failed + warm.failed > 0) {
    std::cerr << "error: " << cold.failed + warm.failed
              << " compile(s) failed\n";
    rc = 1;
  }
  if (!determinism_ok) {
    std::cerr << "error: warm recompile is not byte-identical to cold\n";
    rc = 1;
  }
  if (warm_hit_rate < options.min_warm_hit_rate) {
    std::cerr << "error: warm hit rate " << warm_hit_rate
              << " below threshold " << options.min_warm_hit_rate << "\n";
    rc = 1;
  }
  if (warm_speedup < options.min_warm_speedup) {
    std::cerr << "error: warm speedup " << warm_speedup
              << "x below threshold " << options.min_warm_speedup << "x\n";
    rc = 1;
  }
  return rc;
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

/// Overload safety of the admission-controlled compile service: 4x as many
/// retrying clients as workers, all requesting warm TPC-H Q6. Gates:
/// accepted responses byte-identical to a single-shot compile, sheds
/// classified kUnavailable with a prompt retry-after reply, and accepted
/// throughput within min_service_throughput_ratio of the pre-queue
/// thread-per-request baseline (same worker count, same shared session).
int run_service_overload_json(const JsonOptions& options) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = static_cast<int>(std::min(4u, std::max(2u, hw)));
  const int clients = 4 * workers;
  constexpr int kAcceptedPerClient = 12;
  const int accepted_target = clients * kAcceptedPerClient;
  using Clock = std::chrono::steady_clock;

  // Single-shot reference payload: one request against an idle service.
  std::string reference;
  {
    tydi::service::ServiceConfig config;
    config.workers = 1;
    tydi::service::CompileService svc(config);
    tydi::service::Response r = svc.handle_line("TPCH 6 vhdl");
    if (!r.ok()) {
      std::cerr << "error: reference compile failed: " << r.payload() << "\n";
      return 1;
    }
    reference = r.payload();
  }

  // Baseline: the pre-queue thread-per-request shape — `workers` threads
  // compiling the same total directly through one shared warm session.
  double baseline_rps = 0.0;
  {
    tydi::driver::CompileSession session;
    const tydi::tpch::QueryCase* q = tydi::tpch::find_query("TPC-H 6");
    (void)tydi::tpch::compile_query(*q, session);  // warm the caches
    std::atomic<int> baseline_failed{0};
    const int per_thread = accepted_target / workers;
    const auto start = Clock::now();
    {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&]() {
          for (int i = 0; i < per_thread; ++i) {
            if (!tydi::tpch::compile_query(*q, session).success()) {
              ++baseline_failed;
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (baseline_failed.load() != 0) {
      std::cerr << "error: " << baseline_failed.load()
                << " baseline compile(s) failed\n";
      return 1;
    }
    baseline_rps =
        wall_s > 0.0 ? static_cast<double>(per_thread * workers) / wall_s
                     : 0.0;
  }

  // Overloaded service: bounded queue, fixed pool, 4x clients retrying on
  // shed (honoring the retry-after hint, capped so the queue stays fed).
  tydi::service::ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = static_cast<std::size_t>(2 * workers);
  tydi::service::CompileService svc(config);
  {
    tydi::service::Response warm = svc.handle_line("TPCH 6 vhdl");
    if (!warm.ok()) {
      std::cerr << "error: warmup request failed: " << warm.payload() << "\n";
      return 1;
    }
  }

  std::atomic<int> accepted{0};
  std::atomic<int> mismatched{0};
  std::atomic<int> unexpected{0};
  std::atomic<int> shed{0};
  std::atomic<std::int64_t> worst_shed_reply_us{0};
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c]() {
        int landed = 0;
        int attempt = 0;
        while (landed < kAcceptedPerClient) {
          ++attempt;
          const auto t0 = Clock::now();
          tydi::service::Response r = svc.handle_line("TPCH 6 vhdl");
          const auto reply_us =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - t0)
                  .count();
          if (r.ok()) {
            ++landed;
            ++accepted;
            if (r.payload() != reference) ++mismatched;
            continue;
          }
          if (r.status.code() !=
              tydi::support::StatusCode::kUnavailable) {
            ++unexpected;
            return;
          }
          ++shed;
          std::int64_t prev = worst_shed_reply_us.load();
          while (prev < reply_us &&
                 !worst_shed_reply_us.compare_exchange_weak(prev,
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
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double overload_rps =
      wall_s > 0.0 ? static_cast<double>(accepted.load()) / wall_s : 0.0;
  const double ratio =
      baseline_rps > 0.0 ? overload_rps / baseline_rps : 0.0;
  const double worst_shed_reply_ms =
      static_cast<double>(worst_shed_reply_us.load()) / 1000.0;
  const bool full_gate = hw >= 4;
  const double floor = full_gate ? options.min_service_throughput_ratio
                                 : options.min_service_no_regression;

  std::ostringstream section;
  section << "{\n"
          << "  \"benchmark\": \"service_overload\",\n"
          << "  \"workers\": " << workers << ",\n"
          << "  \"queue_capacity\": " << config.queue_capacity << ",\n"
          << "  \"clients\": " << clients << ",\n"
          << "  \"accepted\": " << accepted.load() << ",\n"
          << "  \"shed\": " << shed.load() << ",\n"
          << "  \"accepted_identical\": "
          << (mismatched.load() == 0 ? "true" : "false") << ",\n"
          << "  \"worst_shed_reply_ms\": " << worst_shed_reply_ms << ",\n"
          << "  \"max_shed_reply_ms\": " << options.max_shed_reply_ms
          << ",\n"
          << "  \"baseline_rps\": " << baseline_rps << ",\n"
          << "  \"overload_rps\": " << overload_rps << ",\n"
          << "  \"throughput_ratio\": " << ratio << ",\n"
          << "  \"min_throughput_ratio\": " << floor << ",\n"
          << "  \"full_gate\": " << (full_gate ? "true" : "false") << "\n"
          << "}";
  if (!benchjson::upsert_section(options.path, "service_overload",
                                 section.str())) {
    std::cerr << "error: cannot write " << options.path << "\n";
    return 1;
  }

  std::cout << "service overload: " << accepted.load() << " accepted, "
            << shed.load() << " shed; baseline " << baseline_rps
            << " req/s, overloaded " << overload_rps << " req/s (ratio "
            << ratio << ", floor " << floor << "); worst shed reply "
            << worst_shed_reply_ms << " ms\n";

  int rc = 0;
  if (accepted.load() != accepted_target) {
    std::cerr << "error: " << accepted.load() << "/" << accepted_target
              << " requests accepted\n";
    rc = 1;
  }
  if (mismatched.load() != 0) {
    std::cerr << "error: " << mismatched.load()
              << " accepted response(s) diverged from the single-shot "
                 "compile\n";
    rc = 1;
  }
  if (unexpected.load() != 0) {
    std::cerr << "error: " << unexpected.load()
              << " request(s) failed with a class other than "
                 "unavailable\n";
    rc = 1;
  }
  if (shed.load() > 0 && worst_shed_reply_ms > options.max_shed_reply_ms) {
    std::cerr << "error: slowest shed reply " << worst_shed_reply_ms
              << " ms above ceiling " << options.max_shed_reply_ms
              << " ms\n";
    rc = 1;
  }
  if (ratio < floor) {
    std::cerr << "error: overloaded throughput ratio " << ratio
              << " below floor " << floor << "\n";
    rc = 1;
  }
  return rc;
}

/// Crash-safe warm restarts: a journaled daemon compiles the full query
/// set, restarts on the same journal, and replays. Gates: every journaled
/// key replays, post-replay responses are byte-identical to the first
/// daemon's, the share of post-replay requests answered from the result
/// cache clears min_warm_hit_rate, and
/// live interactive traffic arriving *during* replay still gets prompt
/// service — shed replies within max_shed_reply_ms, accepted replies
/// byte-identical (replay is batch-class work; it must never capture the
/// queue).
int run_service_restart_json(const JsonOptions& options) {
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
    if (svc.journal() == nullptr) {
      std::cerr << "error: journal " << journal_path << " unusable\n";
      return 1;
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      tydi::service::Response r = svc.handle_line(requests[i]);
      if (!r.ok()) {
        std::cerr << "error: cold compile '" << requests[i]
                  << "' failed: " << r.payload() << "\n";
        return 1;
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
    if (svc.journal() == nullptr ||
        svc.journal()->recovered_records() != requests.size()) {
      std::cerr << "error: restart recovered "
                << (svc.journal() ? svc.journal()->recovered_records() : 0)
                << " record(s), expected " << requests.size() << "\n";
      return 1;
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

  std::ostringstream section;
  section << "{\n"
          << "  \"benchmark\": \"service_restart\",\n"
          << "  \"journaled_keys\": " << requests.size() << ",\n"
          << "  \"cold_workload_ms\": " << cold_workload_ms << ",\n"
          << "  \"replay_ms\": " << replay_ms << ",\n"
          << "  \"first_request_after_restart_ms\": " << first_request_ms
          << ",\n"
          << "  \"warm_workload_ms\": " << warm_workload_ms << ",\n"
          << "  \"replayed\": " << replayed << ",\n"
          << "  \"replay_skipped_stale\": " << skipped_stale << ",\n"
          << "  \"post_replay_hit_rate\": " << post_replay_hit_rate << ",\n"
          << "  \"min_warm_hit_rate\": " << options.min_warm_hit_rate
          << ",\n"
          << "  \"post_replay_identical\": "
          << (mismatched == 0 ? "true" : "false") << ",\n"
          << "  \"live_accepted_during_replay\": " << live_accepted << ",\n"
          << "  \"live_shed_during_replay\": " << live_shed << ",\n"
          << "  \"worst_live_shed_reply_ms\": " << worst_live_shed_ms
          << ",\n"
          << "  \"max_shed_reply_ms\": " << options.max_shed_reply_ms << "\n"
          << "}";
  if (!benchjson::upsert_section(options.path, "service_restart",
                                 section.str())) {
    std::cerr << "error: cannot write " << options.path << "\n";
    return 1;
  }

  std::cout << "service restart: " << replayed << "/" << requests.size()
            << " key(s) replayed in " << replay_ms
            << " ms (cold workload " << cold_workload_ms
            << " ms, warm workload " << warm_workload_ms
            << " ms); post-replay hit rate " << post_replay_hit_rate
            << "; during replay " << live_accepted << " live accepted, "
            << live_shed << " shed (worst shed reply "
            << worst_live_shed_ms << " ms)\n";

  int rc = 0;
  if (replayed != requests.size()) {
    std::cerr << "error: " << replayed << "/" << requests.size()
              << " journaled key(s) replayed\n";
    rc = 1;
  }
  if (mismatched != 0) {
    std::cerr << "error: " << mismatched
              << " post-replay response(s) diverged from the pre-restart "
                 "daemon\n";
    rc = 1;
  }
  if (post_replay_hit_rate < options.min_warm_hit_rate) {
    std::cerr << "error: post-replay hit rate " << post_replay_hit_rate
              << " below floor " << options.min_warm_hit_rate << "\n";
    rc = 1;
  }
  if (live_unexpected != 0) {
    std::cerr << "error: " << live_unexpected
              << " live request(s) during replay failed with a class "
                 "other than unavailable\n";
    rc = 1;
  }
  if (live_mismatched != 0) {
    std::cerr << "error: " << live_mismatched
              << " live response(s) during replay diverged\n";
    rc = 1;
  }
  if (live_shed > 0 && worst_live_shed_ms > options.max_shed_reply_ms) {
    std::cerr << "error: slowest shed reply during replay "
              << worst_live_shed_ms << " ms above ceiling "
              << options.max_shed_reply_ms << " ms\n";
    rc = 1;
  }
  return rc;
}

int main(int argc, char** argv) {
  JsonOptions options;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      options.path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--cold-rounds") == 0) {
      options.cold_rounds = std::max(1, std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--warm-rounds") == 0) {
      options.warm_rounds = std::max(1, std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--min-warm-hit-rate") == 0) {
      options.min_warm_hit_rate = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--min-warm-speedup") == 0) {
      options.min_warm_speedup = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--min-parallel-speedup") == 0) {
      options.min_parallel_speedup = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--min-parallel-no-regression") == 0) {
      options.min_parallel_no_regression = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--max-obs-overhead") == 0) {
      options.max_obs_overhead = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--min-service-throughput-ratio") == 0) {
      options.min_service_throughput_ratio = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--min-service-no-regression") == 0) {
      options.min_service_no_regression = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--max-shed-reply-ms") == 0) {
      options.max_shed_reply_ms = std::atof(argv[i + 1]);
    }
  }
  if (options.path != nullptr) {
    const int serial_rc = run_compile_json(options);
    const int parallel_rc = run_compile_parallel_json(options);
    const int obs_rc = run_obs_overhead_json(options);
    const int overload_rc = run_service_overload_json(options);
    const int restart_rc = run_service_restart_json(options);
    if (serial_rc != 0) return serial_rc;
    if (parallel_rc != 0) return parallel_rc;
    if (obs_rc != 0) return obs_rc;
    if (overload_rc != 0) return overload_rc;
    return restart_rc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
