// Sharded simulation engine tests: the determinism contract (SimResult
// byte-identical across shard counts, shard=1 included, and the registry
// mirrors of every run) on the example, TPC-H and scaling-bench designs,
// plus partitioner invariants (every component in exactly one shard,
// consistent cross-shard channel accounting, boundary channels never cut).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/guard.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/shard/partition.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {
namespace {

constexpr std::string_view kParallelizeSource = R"tydi(
package partest;
type t_data = Stream(Bit(64), d=1, c=2);
impl pu_adder of process_unit_s<type t_data, type t_data> @ external {
  sim {
    state s = "idle";
    on in_.receive {
      set s = "busy";
      delay(7);
      send(out);
      ack(in_);
      set s = "idle";
    }
  }
}
streamlet partest_top_s { feed: t_data in, result: t_data out, }
impl partest_top of partest_top_s {
  instance par(parallelize_i<type t_data, type t_data, impl pu_adder, 8>),
  feed => par.in_,
  par.out => result,
}
)tydi";

constexpr std::string_view kPipelineSource = R"tydi(
package pipedemo;
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
impl reg_stage of stage_s<type t_word> @ external {
  sim {
    on in_.receive {
      delay(2);
      send(out);
      ack(in_);
    }
  }
}
streamlet demo_s { feed: t_word in, drained: t_word out, }
impl demo_top of demo_s {
  instance pipe(pipeline_i<type t_word, impl reg_stage, 8>),
  feed => pipe.in_,
  pipe.out => drained,
}
)tydi";

constexpr std::string_view kSqlFilterSource = R"tydi(
package sqlfilter;
type t_container = Stream(Bit(80), d=1, c=2);
streamlet in_list_s {
  container: t_container in,
  matched: std_bool out,
}
impl in_list of in_list_s {
  const values = ["MED BAG", "MED BOX", "MED PKG", "MED PACK"];
  instance any_of(logic_or_i<type std_bool, 4>),
  for i in 0->4 {
    instance cmp[i](const_compare_i<type t_container, type std_bool, values[i], "==">),
    container => cmp[i].in_,
    cmp[i].out => any_of.in_[i],
  }
  any_of.out => matched,
}
)tydi";

constexpr std::string_view kDeadlockSource = R"tydi(
package deadtest;
type t_data = Stream(Bit(8), d=1, c=2);
streamlet join_s { a: t_data in, b: t_data in, out: t_data out, }
impl join_i of join_s @ external {
  sim {
    on a.receive && b.receive { send(out); ack(a); ack(b); }
  }
}
streamlet loop_s { in_: t_data in, out: t_data out, }
impl echo_i of loop_s @ external {
  sim {
    on in_.receive { send(out); ack(in_); }
  }
}
streamlet deadtop_s { feed: t_data in, result: t_data out, }
impl deadtop of deadtop_s {
  instance join(join_i),
  instance echo(echo_i),
  instance dup(duplicator_i<type t_data, 2>),
  feed => join.a,
  echo.out => join.b,
  join.out => dup.in_,
  dup.out_[0] => echo.in_,
  dup.out_[1] => result,
}
)tydi";

/// 16 independent 8-stage pipelines (the sharded-sim bench's grid).
constexpr std::string_view kGridSource = R"tydi(
package grid;
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
impl reg_stage of stage_s<type t_word> @ external {
  sim {
    on in_.receive {
      delay(2);
      send(out);
      ack(in_);
    }
  }
}
streamlet grid_s<n: int> { feed: t_word in [n], drained: t_word out [n], }
impl grid_top of grid_s<16> {
  instance ch(pipeline_i<type t_word, impl reg_stage, 8>) [16],
  for i in 0->16 {
    feed[i] => ch[i].in_,
    ch[i].out => drained[i],
  }
}
)tydi";

/// kParallelizeSource with 32 processing units instead of 8.
std::string parallelize_c32_source() {
  std::string source(kParallelizeSource);
  const std::string needle = "pu_adder, 8>";
  source.replace(source.find(needle), needle.size(), "pu_adder, 32>");
  return source;
}

driver::CompileResult compile_q19() {
  const tpch::QueryCase* q19 = tpch::find_query("TPC-H 19");
  EXPECT_NE(q19, nullptr);
  driver::CompileResult compiled = tpch::compile_query(*q19);
  EXPECT_TRUE(compiled.success()) << compiled.report();
  return compiled;
}

driver::CompileResult compile(std::string_view source, const std::string& top) {
  driver::CompileOptions options;
  options.top = top;
  options.emit_vhdl = false;
  driver::CompileResult compiled =
      driver::compile_source(std::string(source), options);
  EXPECT_TRUE(compiled.success()) << compiled.report();
  return compiled;
}

/// Stimuli for every top-level input port: `packets` packets at one-cycle
/// intervals, values 0..packets-1, `last` on the final one.
sim::SimOptions generic_options(const elab::Design& design, int packets,
                                int shards, bool auto_partition) {
  sim::SimOptions options;
  options.max_time_ns = 1.0e7;
  options.shards = shards;
  options.auto_partition = auto_partition;
  options.stimuli = sim::generic_stimuli(design, packets);
  return options;
}

/// Runs `options` and checks the registry mirrors of the run:
/// `tydi.sim.runs` advances by one and `tydi.sim.last.events` is the
/// run's event count.
sim::SimResult run_mirrored(sim::Engine& engine,
                            const sim::SimOptions& options,
                            const std::string& what) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const auto runs_before = reg.counter("tydi.sim.runs").value();
  sim::SimResult result = engine.run(options);
  EXPECT_EQ(reg.counter("tydi.sim.runs").value(), runs_before + 1) << what;
  EXPECT_EQ(reg.gauge("tydi.sim.last.events").value(),
            static_cast<double>(result.events_processed))
      << what;
  return result;
}

void expect_identical_across_shards(const driver::CompileResult& compiled,
                                    int packets, bool auto_partition,
                                    const char* what) {
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions base =
      generic_options(compiled.design, packets, 1, auto_partition);
  sim::SimResult reference = run_mirrored(engine, base, what);
  EXPECT_GT(reference.events_processed, 0u) << what;
  for (int shards : {2, 4, 7}) {
    sim::SimOptions options =
        generic_options(compiled.design, packets, shards, auto_partition);
    sim::SimResult sharded = run_mirrored(
        engine, options, std::string(what) + ", " + std::to_string(shards) +
                             " shards");
    std::string why;
    EXPECT_TRUE(sim::results_identical(reference, sharded, &why))
        << what << " with " << shards << " shards (auto_partition="
        << auto_partition << "): " << why;
  }
}

TEST(SimShardDeterminism, ParallelizeIdenticalAcrossShardCounts) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  expect_identical_across_shards(compiled, 96, true, "parallelize");
  expect_identical_across_shards(compiled, 96, false, "parallelize");
  driver::CompileResult c32 = compile(parallelize_c32_source(), "partest_top");
  expect_identical_across_shards(c32, 200, true, "parallelize_c32");
  expect_identical_across_shards(c32, 200, false, "parallelize_c32");
}

TEST(SimShardDeterminism, PipelineChainIdenticalAcrossShardCounts) {
  driver::CompileResult compiled = compile(kPipelineSource, "demo_top");
  expect_identical_across_shards(compiled, 64, true, "pipeline_chain");
  expect_identical_across_shards(compiled, 64, false, "pipeline_chain");
}

TEST(SimShardDeterminism, SqlFilterIdenticalAcrossShardCounts) {
  driver::CompileResult compiled = compile(kSqlFilterSource, "in_list");
  expect_identical_across_shards(compiled, 64, true, "sql_filter");
  expect_identical_across_shards(compiled, 64, false, "sql_filter");
}

TEST(SimShardDeterminism, TpchQueryIdenticalAcrossShardCounts) {
  const tpch::QueryCase* q6 = tpch::find_query("TPC-H 6");
  ASSERT_NE(q6, nullptr);
  driver::CompileResult compiled = tpch::compile_query(*q6);
  ASSERT_TRUE(compiled.success()) << compiled.report();
  expect_identical_across_shards(compiled, 32, true, "tpch_q6");
}

TEST(SimShardDeterminism, TpchQ19IdenticalAcrossShardCounts) {
  driver::CompileResult compiled = compile_q19();
  expect_identical_across_shards(compiled, 200, true, "tpch_q19");
  expect_identical_across_shards(compiled, 200, false, "tpch_q19");
}

TEST(SimShardDeterminism, PipelineGridIdenticalAcrossShardCounts) {
  driver::CompileResult compiled = compile(kGridSource, "grid_top");
  expect_identical_across_shards(compiled, 200, true, "pipeline_grid_16x8");
  expect_identical_across_shards(compiled, 200, false,
                                 "pipeline_grid_16x8");
}

TEST(SimShardDeterminism, DeadlockReportIdenticalAcrossShardCounts) {
  // The wait-for cycle and blocked report must be stable under sharding:
  // deadlock analysis runs over the quiesced global graph.
  driver::CompileResult compiled = compile(kDeadlockSource, "deadtop");
  expect_identical_across_shards(compiled, 1, true, "deadlock");
}

TEST(SimShardDeterminism, RepeatedShardedRunsIdentical) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options = generic_options(compiled.design, 48, 4, true);
  sim::SimResult first = engine.run(options);
  sim::SimResult second = engine.run(options);
  std::string why;
  EXPECT_TRUE(sim::results_identical(first, second, &why)) << why;
}

TEST(SimShardDeterminism, CappedMidTrafficIdenticalAcrossShardCounts) {
  // A max_time_ns cutoff in the middle of traffic stops every shard at the
  // same reduced timestamp: in-flight packets, parked outboxes and the
  // blocked report must match the single-queue engine's cut byte for byte.
  for (auto [source, top] :
       {std::pair{kParallelizeSource, "partest_top"},
        std::pair{kPipelineSource, "demo_top"}}) {
    driver::CompileResult compiled = compile(source, top);
    support::DiagnosticEngine diags;
    sim::Engine engine(compiled.design, diags);
    sim::SimOptions full = generic_options(compiled.design, 64, 1, true);
    sim::SimResult uncapped = engine.run(full);
    ASSERT_GT(uncapped.end_time_ns, 0.0) << top;

    sim::SimOptions capped = full;
    capped.max_time_ns = uncapped.end_time_ns / 2.0;
    sim::SimResult reference = engine.run(capped);
    EXPECT_EQ(reference.end_time_ns, capped.max_time_ns) << top;
    EXPECT_LT(reference.events_processed, uncapped.events_processed) << top;
    EXPECT_GT(reference.events_processed, 0u) << top;
    // Packets are still in flight or parked at the cutoff.
    EXPECT_FALSE(reference.blocked_report.empty()) << top;
    for (int shards : {2, 4, 7}) {
      capped.shards = shards;
      sim::SimResult sharded = engine.run(capped);
      std::string why;
      EXPECT_TRUE(sim::results_identical(reference, sharded, &why))
          << top << " capped at " << capped.max_time_ns << " ns with "
          << shards << " shards: " << why;
    }
  }
}

// ---------------------------------------------------------------------------
// Step exchange: one synchronization per protocol step
// ---------------------------------------------------------------------------

TEST(SimShardExchange, ExchangeCountIdenticalAcrossShardsAndRepeats) {
  // Exchanges are protocol steps, decided from reduced votes only: every
  // shard makes the same number, a repeated run makes the same number, and
  // the registry counter advances by it. Credit mode has no fixpoint steps,
  // so it makes at most one exchange per round plus the seed exchange. A
  // single shard runs the same loop with no peers to wait on.
  driver::CompileResult compiled = compile(kPipelineSource, "demo_top");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& rounds = reg.counter("tydi.sim.rounds");
  obs::Counter& exchanges = reg.counter("tydi.sim.exchanges");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  for (sim::AckMode mode : {sim::AckMode::kExact, sim::AckMode::kCredit}) {
    for (int shards : {1, 2, 4, 7}) {
      sim::SimOptions options =
          generic_options(compiled.design, 64, shards, true);
      options.ack_mode = mode;
      std::uint64_t first_run = 0;
      for (int run = 0; run < 2; ++run) {
        const double rounds_before = rounds.value();
        const double exchanges_before = exchanges.value();
        sim::SimResult result = engine.run(options);
        const bool credit = mode == sim::AckMode::kCredit;
        const std::string what = std::string(credit ? "credit" : "exact") +
                                 ", " + std::to_string(shards) +
                                 " shards, run " + std::to_string(run);
        ASSERT_FALSE(result.aborted) << what;
        ASSERT_EQ(result.shard_forensics.size(),
                  static_cast<std::size_t>(shards))
            << what;
        const std::uint64_t n = result.shard_forensics.front().exchanges;
        EXPECT_GT(n, 0u) << what;
        for (const sim::ShardForensics& f : result.shard_forensics) {
          EXPECT_EQ(f.exchanges, n) << what << ", shard " << f.shard;
          EXPECT_GE(f.barrier_wait_ms, 0.0) << what;
        }
        if (run == 0) first_run = n;
        EXPECT_EQ(n, first_run) << what;
        EXPECT_EQ(exchanges.value() - exchanges_before,
                  static_cast<double>(n))
            << what;
        if (credit) {
          EXPECT_LE(static_cast<double>(n),
                    rounds.value() - rounds_before + 1.0)
              << what;
        }
      }
    }
  }
}

TEST(SimShardExchange, RoundKindsAddUpAndRepeatUnderWallClockFaults) {
  // Round kinds are protocol decisions, so they are counts, never timings:
  // a repeat and a wall-clock fault plan (delayed posts, jittered exchange
  // entry, stalled rounds) make the same counts on every shard. A run's
  // rounds are its window and timestep rounds plus the terminal round; its
  // exchanges are the seed exchange plus one per window round, timestep
  // round and fixpoint step. The registry counters advance by the same.
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& rounds = reg.counter("tydi.sim.rounds");
  obs::Counter& window = reg.counter("tydi.sim.window_rounds");
  obs::Counter& timestep = reg.counter("tydi.sim.timestep_rounds");
  obs::Counter& fixpoint = reg.counter("tydi.sim.fixpoint_steps");
  obs::Counter& exchanges = reg.counter("tydi.sim.exchanges");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::FaultPlan wall_clock;
  wall_clock.delay_delivery_p = 0.3;
  wall_clock.barrier_jitter_p = 0.3;
  wall_clock.stall_p = 0.2;
  wall_clock.delay_spin_iters = 200;
  for (sim::AckMode mode : {sim::AckMode::kExact, sim::AckMode::kCredit}) {
    for (int shards : {1, 2, 4}) {
      sim::SimOptions options =
          generic_options(compiled.design, 64, shards, true);
      options.ack_mode = mode;
      std::vector<std::uint64_t> first;
      for (std::uint64_t seed : {0, 0, 5, 11}) {
        options.fault = wall_clock;
        options.fault.seed = seed;
        const std::string what =
            std::string(mode == sim::AckMode::kCredit ? "credit" : "exact") +
            ", " + std::to_string(shards) + " shards, fault seed " +
            std::to_string(seed);
        const double rounds_before = rounds.value();
        const double window_before = window.value();
        const double timestep_before = timestep.value();
        const double fixpoint_before = fixpoint.value();
        const double exchanges_before = exchanges.value();
        sim::SimResult result = engine.run(options);
        ASSERT_FALSE(result.aborted) << what;
        ASSERT_EQ(result.shard_forensics.size(),
                  static_cast<std::size_t>(shards))
            << what;
        const sim::ShardForensics& f = result.shard_forensics.front();
        const std::vector<std::uint64_t> counts = {
            f.window_rounds, f.timestep_rounds, f.fixpoint_steps,
            f.exchanges};
        for (const sim::ShardForensics& g : result.shard_forensics) {
          EXPECT_EQ(g.window_rounds, f.window_rounds) << what;
          EXPECT_EQ(g.timestep_rounds, f.timestep_rounds) << what;
          EXPECT_EQ(g.fixpoint_steps, f.fixpoint_steps) << what;
          EXPECT_EQ(g.exchanges, f.exchanges) << what;
        }
        if (first.empty()) first = counts;
        EXPECT_EQ(counts, first) << what;
        EXPECT_EQ(rounds.value() - rounds_before,
                  static_cast<double>(f.window_rounds + f.timestep_rounds + 1))
            << what;
        EXPECT_EQ(f.exchanges,
                  1 + f.window_rounds + f.timestep_rounds + f.fixpoint_steps)
            << what;
        EXPECT_EQ(window.value() - window_before,
                  static_cast<double>(f.window_rounds))
            << what;
        EXPECT_EQ(timestep.value() - timestep_before,
                  static_cast<double>(f.timestep_rounds))
            << what;
        EXPECT_EQ(fixpoint.value() - fixpoint_before,
                  static_cast<double>(f.fixpoint_steps))
            << what;
        EXPECT_EQ(exchanges.value() - exchanges_before,
                  static_cast<double>(f.exchanges))
            << what;
        if (shards == 1 || mode == sim::AckMode::kCredit) {
          // Nothing cut, or no ack-risk bound: no timestep rounds.
          EXPECT_EQ(f.timestep_rounds, 0u) << what;
          EXPECT_EQ(f.fixpoint_steps, 0u) << what;
        } else {
          EXPECT_GT(f.timestep_rounds, 0u) << what;
        }
        EXPECT_NE(result.summary().find(
                      "rounds: " + std::to_string(f.window_rounds) +
                      " window, " + std::to_string(f.timestep_rounds) +
                      " timestep, " + std::to_string(f.fixpoint_steps) +
                      " fixpoint step(s)"),
                  std::string::npos)
            << what << "\n" << result.summary();
      }
    }
  }
}

TEST(SimShardExchange, SingleShardNeverWaits) {
  // One shard has no peer to wait on: its seed exchange and its one window
  // round's exchange read no clock and add exactly nothing to the wait.
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  for (sim::AckMode mode : {sim::AckMode::kExact, sim::AckMode::kCredit}) {
    sim::SimOptions options = generic_options(compiled.design, 64, 1, true);
    options.ack_mode = mode;
    sim::SimResult result = engine.run(options);
    ASSERT_FALSE(result.aborted);
    ASSERT_EQ(result.shard_forensics.size(), 1u);
    const sim::ShardForensics& f = result.shard_forensics.front();
    EXPECT_EQ(f.exchanges, 2u);
    EXPECT_EQ(f.window_rounds, 1u);
    EXPECT_EQ(f.barrier_wait_ms, 0.0);
  }
}

TEST(SimShardExchange, CreditHangAbortsOnEveryShard) {
  // The withheld-ack hang livelocks the credit round loop with every shard
  // spinning in the exchange; the stop check inside that spin must release
  // all of them, with several peers to wait on.
  driver::CompileResult compiled = compile(kPipelineSource, "demo_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  for (int shards : {4, 7}) {
    sim::SimOptions options =
        generic_options(compiled.design, 64, shards, true);
    options.ack_mode = sim::AckMode::kCredit;
    options.fault.seed = 1;
    options.fault.withhold_acks_forever = true;
    options.watchdog_timeout_ms = 150.0;
    sim::SimResult result = engine.run(options);
    ASSERT_TRUE(result.aborted) << shards << " shards";
    EXPECT_EQ(result.abort_reason,
              sim::to_string(sim::StopCause::kWatchdogNoProgress));
    ASSERT_EQ(result.shard_forensics.size(),
              static_cast<std::size_t>(shards));
    std::int64_t pending = 0;
    for (const sim::ShardForensics& f : result.shard_forensics) {
      EXPECT_GT(f.exchanges, 0u) << "shard " << f.shard;
      EXPECT_NE(f.summary().find("exchanges="), std::string::npos);
      pending += f.pending_ack_batches;
    }
    EXPECT_GT(pending, 0) << shards << " shards";
    EXPECT_NE(result.summary().find("ABORTED"), std::string::npos);
  }
}

TEST(SimShardExchange, ShardZeroRunsOnTheCallingThread) {
  // One round loop for every shard count: shard 0 runs on the thread that
  // called run_sharded, so a 1-shard run starts no thread and a K-shard run
  // starts K - 1. The tracer's per-thread ids show which thread ran what.
  driver::CompileResult compiled = compile(kPipelineSource, "demo_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  obs::SpanTracer& tracer = obs::SpanTracer::global();
  for (int shards : {1, 2}) {
    tracer.clear();
    tracer.set_enabled(true);
    sim::SimResult result =
        engine.run(generic_options(compiled.design, 64, shards, true));
    tracer.set_enabled(false);
    ASSERT_EQ(result.shard_forensics.size(),
              static_cast<std::size_t>(shards));
    const obs::SpanRecord* run = nullptr;
    std::vector<const obs::SpanRecord*> shard_spans(shards, nullptr);
    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    for (const obs::SpanRecord& span : spans) {
      if (span.name == "sim.run") run = &span;
      if (span.name != "sim.shard") continue;
      for (int s = 0; s < shards; ++s) {
        if (span.args.find("\"shard\":" + std::to_string(s) + ",") == 0) {
          shard_spans[s] = &span;
        }
      }
    }
    ASSERT_NE(run, nullptr) << shards << " shards";
    ASSERT_NE(shard_spans[0], nullptr) << shards << " shards";
    EXPECT_EQ(shard_spans[0]->tid, run->tid) << shards << " shards";
    if (shards == 2) {
      ASSERT_NE(shard_spans[1], nullptr);
      EXPECT_NE(shard_spans[1]->tid, run->tid);
    }
  }
  tracer.clear();
}

// ---------------------------------------------------------------------------
// Partitioner invariants
// ---------------------------------------------------------------------------

/// Partitions `compiled` at 2, 4 and 7 shards, automatic and manual: every
/// component lands in exactly one non-empty shard and validate_partition
/// holds.
void expect_valid_partitions(const driver::CompileResult& compiled,
                             const char* what) {
  support::DiagnosticEngine diags;
  sim::SimGraph graph;
  sim::SimOptions options = generic_options(compiled.design, 1, 1, true);
  ASSERT_TRUE(sim::build_sim_graph(compiled.design, options, diags, graph))
      << what;
  ASSERT_GT(graph.components.size(), 7u) << what;

  for (int shards : {2, 4, 7}) {
    for (bool auto_partition : {true, false}) {
      const std::string where = std::string(what) + ", " +
                                std::to_string(shards) + " shards, auto " +
                                std::to_string(auto_partition);
      sim::shard::PartitionStats stats =
          sim::shard::partition_graph(graph, shards, auto_partition);
      EXPECT_EQ(stats.shard_count, shards) << where;
      ASSERT_EQ(graph.component_shard.size(), graph.components.size());
      std::vector<std::size_t> per_shard(stats.shard_count, 0);
      for (std::int32_t shard : graph.component_shard) {
        ASSERT_GE(shard, 0) << where;
        ASSERT_LT(shard, stats.shard_count) << where;
        per_shard[shard] += 1;
      }
      std::size_t total = 0;
      for (int s = 0; s < stats.shard_count; ++s) {
        EXPECT_GT(per_shard[s], 0u) << where << ": shard " << s << " is empty";
        EXPECT_EQ(per_shard[s], stats.components_per_shard[s]) << where;
        total += per_shard[s];
      }
      EXPECT_EQ(total, graph.components.size()) << where;

      std::vector<std::string> errors;
      EXPECT_TRUE(sim::shard::validate_partition(graph, stats, errors))
          << where << ": " << (errors.empty() ? "" : errors.front());
    }
  }
}

TEST(SimShardPartition, EveryComponentInExactlyOneShard) {
  expect_valid_partitions(compile(kParallelizeSource, "partest_top"),
                          "parallelize");
  expect_valid_partitions(compile(parallelize_c32_source(), "partest_top"),
                          "parallelize_c32");
  expect_valid_partitions(compile_q19(), "tpch_q19");
  expect_valid_partitions(compile(kGridSource, "grid_top"),
                          "pipeline_grid_16x8");
}

TEST(SimShardPartition, CrossChannelAccountingIsConsistent) {
  driver::CompileResult compiled = compile(kPipelineSource, "demo_top");
  support::DiagnosticEngine diags;
  sim::SimGraph graph;
  sim::SimOptions options = generic_options(compiled.design, 1, 1, true);
  ASSERT_TRUE(sim::build_sim_graph(compiled.design, options, diags, graph));

  sim::shard::PartitionStats stats =
      sim::shard::partition_graph(graph, 4, true);
  std::size_t cross = 0;
  double min_latency = sim::kInfiniteTime;
  for (const sim::Channel& c : graph.channels) {
    // Boundary channels must never be cut.
    if (c.src.component < 0 || c.dst.component < 0) {
      EXPECT_FALSE(c.cross_shard())
          << graph.channel_display_name(c);
    }
    if (c.src.component >= 0) {
      EXPECT_EQ(c.src_shard, graph.component_shard[c.src.component]);
    }
    if (c.dst.component >= 0) {
      EXPECT_EQ(c.dst_shard, graph.component_shard[c.dst.component]);
    }
    if (c.cross_shard()) {
      cross += 1;
      min_latency = std::min(min_latency, c.latency_ns);
    }
  }
  EXPECT_EQ(cross, stats.cross_channels);
  // An 8-deep pipeline over 4 shards must cut something, and the lookahead
  // is the minimum cut latency.
  EXPECT_GT(cross, 0u);
  EXPECT_EQ(stats.min_cross_latency_ns, min_latency);
}

TEST(SimShardPartition, ShardCountClampsToComponentCount) {
  driver::CompileResult compiled = compile(kDeadlockSource, "deadtop");
  support::DiagnosticEngine diags;
  sim::SimGraph graph;
  sim::SimOptions options = generic_options(compiled.design, 1, 1, true);
  ASSERT_TRUE(sim::build_sim_graph(compiled.design, options, diags, graph));
  sim::shard::PartitionStats stats =
      sim::shard::partition_graph(graph, 64, true);
  EXPECT_LE(static_cast<std::size_t>(stats.shard_count),
            graph.components.size());
  EXPECT_EQ(stats.shard_count, graph.shard_count);
  std::vector<std::string> errors;
  EXPECT_TRUE(sim::shard::validate_partition(graph, stats, errors))
      << (errors.empty() ? "" : errors.front());
}


// ---------------------------------------------------------------------------
// Columnar state-transition table
// ---------------------------------------------------------------------------

// parallelize_c8 (kParallelizeSource) with 10 generic packets: every pu
// instance goes idle -> busy -> idle per packet; instances 0 and 1 take two
// packets. Recorded from the row-per-transition representation this table
// replaced, so the columnar table must render it byte for byte.
constexpr std::string_view kParallelizeStateTable =
    "State-transition table\n"
    "  par.pu_inst_0:\n"
    "    20.0 ns: s: \"idle\" -> \"busy\"\n"
    "    90.0 ns: s: \"busy\" -> \"idle\"\n"
    "    100.0 ns: s: \"idle\" -> \"busy\"\n"
    "    170.0 ns: s: \"busy\" -> \"idle\"\n"
    "  par.pu_inst_1:\n"
    "    30.0 ns: s: \"idle\" -> \"busy\"\n"
    "    100.0 ns: s: \"busy\" -> \"idle\"\n"
    "    110.0 ns: s: \"idle\" -> \"busy\"\n"
    "    180.0 ns: s: \"busy\" -> \"idle\"\n"
    "  par.pu_inst_2:\n"
    "    40.0 ns: s: \"idle\" -> \"busy\"\n"
    "    110.0 ns: s: \"busy\" -> \"idle\"\n"
    "  par.pu_inst_3:\n"
    "    50.0 ns: s: \"idle\" -> \"busy\"\n"
    "    120.0 ns: s: \"busy\" -> \"idle\"\n"
    "  par.pu_inst_4:\n"
    "    60.0 ns: s: \"idle\" -> \"busy\"\n"
    "    130.0 ns: s: \"busy\" -> \"idle\"\n"
    "  par.pu_inst_5:\n"
    "    70.0 ns: s: \"idle\" -> \"busy\"\n"
    "    140.0 ns: s: \"busy\" -> \"idle\"\n"
    "  par.pu_inst_6:\n"
    "    80.0 ns: s: \"idle\" -> \"busy\"\n"
    "    150.0 ns: s: \"busy\" -> \"idle\"\n"
    "  par.pu_inst_7:\n"
    "    90.0 ns: s: \"idle\" -> \"busy\"\n"
    "    160.0 ns: s: \"busy\" -> \"idle\"\n";

TEST(SimStateTable, RenderedTableIdenticalAcrossShardsAndGolden) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  for (int shards : {1, 2, 4, 7}) {
    support::DiagnosticEngine diags;
    sim::Engine engine(compiled.design, diags);
    sim::SimResult result =
        engine.run(generic_options(compiled.design, 10, shards, true));
    EXPECT_EQ(sim::render_state_table(result), kParallelizeStateTable)
        << shards << " shard(s)";
  }
}

TEST(SimStateTable, ResultsIdenticalReportsDifferingToSymbol) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult reference =
      engine.run(generic_options(compiled.design, 10, 1, true));
  sim::SimResult altered =
      engine.run(generic_options(compiled.design, 10, 2, true));
  ASSERT_TRUE(sim::results_identical(reference, altered));

  const sim::StateTransitionTable& table = altered.state_transitions;
  ASSERT_GT(table.size(), 3u);
  std::vector<sim::TransitionRow> rows;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const sim::TransitionRow& row = table.row(i);
    rows.push_back(row);
    auto index = static_cast<std::size_t>(row.component);
    if (paths.size() <= index) paths.resize(index + 1);
    paths[index] = table.component_path(row.component);
  }
  rows[3].to = support::intern("stalled");
  altered.state_transitions =
      sim::StateTransitionTable(std::move(rows), std::move(paths));
  std::string why;
  EXPECT_FALSE(sim::results_identical(reference, altered, &why));
  EXPECT_EQ(why, "state transition differs at 3");
}

TEST(SimStateTable, MovedFromTableIsEmpty) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result =
      engine.run(generic_options(compiled.design, 10, 1, true));
  const std::size_t rows = result.state_transitions.size();
  ASSERT_EQ(rows, 20u);

  sim::StateTransitionTable moved(std::move(result.state_transitions));
  EXPECT_EQ(moved.size(), rows);
  EXPECT_EQ(result.state_transitions.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(result.state_transitions.empty());

  sim::StateTransitionTable assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), rows);
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.begin(), assigned.begin());
  EXPECT_EQ(std::distance(assigned.begin(), assigned.end()),
            static_cast<std::ptrdiff_t>(rows));
}

constexpr std::string_view kUndeclaredSetSource = R"tydi(
package undeclared;
type t_data = Stream(Bit(64), d=1, c=2);
impl pu_typo of process_unit_s<type t_data, type t_data> @ external {
  sim {
    state s = "idle";
    on in_.receive {
      set s = "busy";
      set mode = "typo";
      delay(2);
      send(out);
      ack(in_);
      set mode = payload;
      set s = "idle";
    }
  }
}
streamlet undeclared_top_s { feed: t_data in, result: t_data out, }
impl undeclared_top of undeclared_top_s {
  instance par(parallelize_i<type t_data, type t_data, impl pu_typo, 4>),
  feed => par.in_,
  par.out => result,
}
)tydi";

TEST(SimStateTable, UndeclaredSetTargetWarnsOncePerBehavior) {
  driver::CompileResult compiled = compile(kUndeclaredSetSource,
                                           "undeclared_top");
  for (int packets : {1, 40}) {
    for (int shards : {1, 2, 4}) {
      support::DiagnosticEngine diags;
      sim::Engine engine(compiled.design, diags);
      sim::SimResult result =
          engine.run(generic_options(compiled.design, packets, shards, true));
      EXPECT_TRUE(result.status().is_ok()) << result.summary();
      std::size_t warnings = 0;
      for (const support::Diagnostic& d : diags.diagnostics()) {
        if (d.message.find("undeclared state variable 'mode'") !=
            std::string::npos) {
          ++warnings;
        }
      }
      // One behaviour per pu_typo instance; the declared `s` still records.
      EXPECT_EQ(warnings, 4u) << packets << " packet(s), " << shards
                              << " shard(s)";
      EXPECT_EQ(result.state_transitions.size(),
                2u * static_cast<std::size_t>(packets));
    }
  }
}

TEST(SimStateTable, MergeMatchesAStableSortAtEveryShardCount) {
  // parallelize_c32: at one timestamp a pu_adder that takes a packet sets
  // "busy" before a lower-indexed one whose timer sets "idle", so a kernel
  // records equal-time rows out of component order. The merge must give the
  // order std::stable_sort gives the execution-order rows, at any K.
  std::string source(kParallelizeSource);
  const std::string eight = "impl pu_adder, 8>";
  source.replace(source.find(eight), eight.size(), "impl pu_adder, 32>");
  driver::CompileResult compiled = compile(source, "partest_top");
  const sim::SimOptions base = generic_options(compiled.design, 400, 1, true);

  // Execution order: one kernel driven over the whole graph by hand.
  support::DiagnosticEngine diags;
  sim::SimGraph graph;
  ASSERT_TRUE(sim::build_sim_graph(compiled.design, base, diags, graph));
  sim::Kernel kernel(graph, base, /*shard=*/0, /*router=*/nullptr);
  kernel.seed();
  kernel.process_events(sim::kInfiniteTime, /*inclusive=*/false,
                        base.max_time_ns);
  std::vector<sim::TransitionRow> reference = kernel.transitions();
  auto canonical = [](const sim::TransitionRow& a,
                      const sim::TransitionRow& b) {
    if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
    return a.component < b.component;
  };
  ASSERT_FALSE(std::is_sorted(reference.begin(), reference.end(), canonical))
      << "no equal-time rows out of component order: nothing to merge";
  std::stable_sort(reference.begin(), reference.end(), canonical);

  for (int shards : {1, 2, 4, 7}) {
    sim::Engine engine(compiled.design, diags);
    sim::SimResult result = engine.run(
        generic_options(compiled.design, 400, shards, /*auto_partition=*/true));
    const sim::StateTransitionTable& table = result.state_transitions;
    ASSERT_EQ(table.size(), reference.size()) << shards << " shard(s)";
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const sim::TransitionRow& got = table.row(i);
      const sim::TransitionRow& want = reference[i];
      ASSERT_TRUE(got.time_ns == want.time_ns &&
                  got.component == want.component &&
                  got.variable == want.variable && got.from == want.from &&
                  got.to == want.to)
          << "row " << i << " at " << shards
          << " shard(s): " << table[i].time_ns << " " << table[i].component
          << " -> " << table[i].to;
    }
  }
}

TEST(SimPhaseTimings, StagesRecordedInOrderAndMirrored) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  obs::Histogram& merge_ms =
      obs::MetricsRegistry::global().histogram("tydi.sim.phase_ms.merge");
  for (int shards : {1, 2}) {
    support::DiagnosticEngine diags;
    sim::Engine engine(compiled.design, diags);
    const std::uint64_t merges_before = merge_ms.count();
    sim::SimResult result =
        engine.run(generic_options(compiled.design, 16, shards, true));
    std::vector<std::string> order;
    for (const support::PhaseTimings::Entry& e : result.phase_ms) {
      order.push_back(e.phase);
      EXPECT_GE(e.ms, 0.0) << e.phase;
    }
    EXPECT_EQ(order, (std::vector<std::string>{"build_graph", "partition",
                                               "process", "merge"}))
        << shards << " shard(s)";
    EXPECT_EQ(merge_ms.count(), merges_before + 1);
  }
}

}  // namespace
}  // namespace tydi
