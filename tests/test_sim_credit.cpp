// Credit-based ack batching + columnar trace tests.
//
//  - Credit mode (SimOptions::ack_mode = AckMode::kCredit) must be
//    *functionally* equivalent to the exact engine across shard counts and
//    credit windows on saturated-pipeline, parallelize and TPC-H designs:
//    same delivered packets per channel, same per-channel payload orders,
//    same top outputs and state-transition sequences — timestamps may shift
//    by up to one credit window.
//  - The columnar TraceBuffer must reproduce the old struct trace field for
//    field (canonical order, per-channel boundary info) and survive a
//    binary round-trip.
//  - Profile-weighted partitioning must honour measured activity weights.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "src/driver/compiler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/shard/partition.hpp"
#include "src/sim/trace.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {
namespace {

/// A deep linear pipeline driven faster than its stages can serve: every
/// channel — including whichever ones a partition cuts — runs saturated,
/// which is exactly the regime where the exact protocol degrades to
/// per-timestamp ack-fixpoint rounds.
constexpr std::string_view kSaturatedPipelineSource = R"tydi(
package satpipe;
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
impl slow_stage of stage_s<type t_word> @ external {
  sim {
    on in_.receive {
      delay(6);
      send(out);
      ack(in_);
    }
  }
}
streamlet sat_s { feed: t_word in, drained: t_word out, }
impl sat_top of sat_s {
  instance pipe(pipeline_i<type t_word, impl slow_stage, 12>),
  feed => pipe.in_,
  pipe.out => drained,
}
)tydi";

/// kSaturatedPipelineSource at 48 stages (the sharded-sim bench's chain).
std::string saturated_chain_48_source() {
  std::string source(kSaturatedPipelineSource);
  const std::string needle = "slow_stage, 12>";
  source.replace(source.find(needle), needle.size(), "slow_stage, 48>");
  return source;
}

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

driver::CompileResult compile(std::string_view source, const std::string& top) {
  driver::CompileOptions options;
  options.top = top;
  options.emit_vhdl = false;
  driver::CompileResult compiled =
      driver::compile_source(std::string(source), options);
  EXPECT_TRUE(compiled.success()) << compiled.report();
  return compiled;
}

sim::SimOptions base_options(const elab::Design& design, int packets,
                             double interval_ns) {
  sim::SimOptions options;
  options.max_time_ns = 1.0e7;
  options.stimuli = sim::generic_stimuli(design, packets, interval_ns);
  return options;
}

void expect_credit_equivalent(const driver::CompileResult& compiled,
                              int packets, double interval_ns,
                              const char* what) {
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions exact =
      base_options(compiled.design, packets, interval_ns);
  sim::SimResult reference = engine.run(exact);
  EXPECT_GT(reference.events_processed, 0u) << what;
  for (int shards : {1, 2, 4, 7}) {
    for (bool auto_partition : {true, false}) {
      for (int window : {1, 4, 16}) {
        sim::SimOptions credit =
            base_options(compiled.design, packets, interval_ns);
        credit.shards = shards;
        credit.auto_partition = auto_partition;
        credit.ack_mode = sim::AckMode::kCredit;
        credit.credit_window = window;
        sim::SimResult result = engine.run(credit);
        std::string why;
        EXPECT_TRUE(
            sim::results_functionally_equivalent(reference, result, &why))
            << what << " with " << shards << " shard(s), window " << window
            << " (auto_partition=" << auto_partition << "): " << why;
      }
    }
  }
}

TEST(SimCredit, SaturatedPipelineFunctionallyEquivalent) {
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  // Interval 1 ns against a 6 ns service time: deep saturation.
  expect_credit_equivalent(compiled, 64, 1.0, "saturated_pipeline");
  expect_credit_equivalent(compile(saturated_chain_48_source(), "sat_top"),
                           500, 1.0, "saturated_chain_48");
}

TEST(SimCredit, ParallelizeFunctionallyEquivalent) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  expect_credit_equivalent(compiled, 96, 10.0, "parallelize");
}

TEST(SimCredit, TpchQueryFunctionallyEquivalent) {
  const tpch::QueryCase* q6 = tpch::find_query("TPC-H 6");
  ASSERT_NE(q6, nullptr);
  driver::CompileResult compiled = tpch::compile_query(*q6);
  ASSERT_TRUE(compiled.success()) << compiled.report();
  expect_credit_equivalent(compiled, 32, 10.0, "tpch_q6");
}

TEST(SimCredit, SingleShardCreditIsExact) {
  // No cut channels at one shard: credit mode must be byte-identical, not
  // merely equivalent.
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult exact =
      engine.run(base_options(compiled.design, 48, 1.0));
  sim::SimOptions credit_options = base_options(compiled.design, 48, 1.0);
  credit_options.ack_mode = sim::AckMode::kCredit;
  sim::SimResult credit = engine.run(credit_options);
  std::string why;
  EXPECT_TRUE(sim::results_identical(exact, credit, &why)) << why;
}

TEST(SimCredit, DeadlockStillDetected) {
  driver::CompileResult compiled = compile(kDeadlockSource, "deadtop");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions exact = base_options(compiled.design, 1, 10.0);
  sim::SimResult reference = engine.run(exact);
  EXPECT_TRUE(reference.deadlock);
  for (int shards : {2, 4}) {
    sim::SimOptions credit = base_options(compiled.design, 1, 10.0);
    credit.shards = shards;
    credit.auto_partition = false;  // force cuts on the tiny graph
    credit.ack_mode = sim::AckMode::kCredit;
    sim::SimResult result = engine.run(credit);
    EXPECT_TRUE(result.deadlock) << shards << " shards";
  }
}

TEST(SimCredit, DeadlockCycleIdenticalAcrossShards) {
  // The wait-for cycle diagnosis must name the same components in the same
  // order no matter how the graph was sharded: detection runs over the
  // merged quiesced graph, and credit-mode timestamp shifts must not
  // perturb it.
  driver::CompileResult compiled = compile(kDeadlockSource, "deadtop");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult reference = engine.run(base_options(compiled.design, 1, 10.0));
  ASSERT_TRUE(reference.deadlock);
  ASSERT_FALSE(reference.deadlock_cycle.empty());
  for (int shards : {1, 2, 4}) {
    sim::SimOptions credit = base_options(compiled.design, 1, 10.0);
    credit.shards = shards;
    credit.auto_partition = false;
    credit.ack_mode = sim::AckMode::kCredit;
    sim::SimResult result = engine.run(credit);
    EXPECT_TRUE(result.deadlock) << shards << " shards";
    EXPECT_EQ(result.deadlock_cycle, reference.deadlock_cycle)
        << shards << " shards";
    EXPECT_EQ(result.status().code(), support::StatusCode::kDeadlock)
        << shards << " shards";
    EXPECT_EQ(result.status().exit_code(), 9) << shards << " shards";
  }
}

TEST(SimCredit, RepeatedCreditRunsIdentical) {
  // Credit mode relaxes exactness versus the *exact engine*, not
  // reproducibility: the same configuration must be deterministic.
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options = base_options(compiled.design, 48, 1.0);
  options.shards = 4;
  options.ack_mode = sim::AckMode::kCredit;
  options.credit_window = 4;
  sim::SimResult first = engine.run(options);
  sim::SimResult second = engine.run(options);
  std::string why;
  EXPECT_TRUE(sim::results_identical(first, second, &why)) << why;
}

// ---------------------------------------------------------------------------
// Columnar trace
// ---------------------------------------------------------------------------

TEST(SimTrace, ColumnarTraceMatchesStructView) {
  // The materialized TraceEvent view must carry exactly what the old
  // per-event structs did: canonical (time, channel) order, per-event
  // payloads, and boundary/port info resolved through the channel table.
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result = engine.run(base_options(compiled.design, 32, 1.0));
  ASSERT_GT(result.trace.size(), 0u);
  EXPECT_TRUE(result.trace.canonically_sorted());

  std::size_t top_inputs = 0;
  std::size_t top_outputs = 0;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    sim::TraceEvent ev = result.trace_event(i);
    ASSERT_GE(ev.channel_index, 0);
    ASSERT_LT(static_cast<std::size_t>(ev.channel_index),
              result.channels.size());
    const sim::ChannelStats& ch = result.channels[ev.channel_index];
    EXPECT_EQ(ev.channel, ch.name);
    EXPECT_EQ(ev.is_top_input, ch.top_input);
    EXPECT_EQ(ev.is_top_output, ch.top_output);
    EXPECT_EQ(ev.top_port, ch.top_port);
    EXPECT_EQ(ev.time_ns, result.trace.time_ns(i));
    EXPECT_EQ(ev.packet.value, result.trace.value(i));
    EXPECT_EQ(ev.packet.last, result.trace.last(i));
    top_inputs += ev.is_top_input ? 1 : 0;
    top_outputs += ev.is_top_output ? 1 : 0;
  }
  // Boundary events must reproduce the stimuli / recorded outputs.
  EXPECT_EQ(top_inputs, 32u);
  EXPECT_EQ(top_outputs, result.top_outputs.at("drained").size());
}

TEST(SimTrace, PerChannelPacketCountsMatchStats) {
  driver::CompileResult compiled = compile(kParallelizeSource, "partest_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result = engine.run(base_options(compiled.design, 24, 10.0));
  std::vector<std::size_t> per_channel(result.channels.size(), 0);
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    per_channel[result.trace.channel(i)] += 1;
  }
  for (std::size_t ch = 0; ch < result.channels.size(); ++ch) {
    EXPECT_EQ(per_channel[ch], result.channels[ch].packets)
        << result.channels[ch].name;
  }
}

TEST(SimTrace, BinaryRoundTrip) {
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result = engine.run(base_options(compiled.design, 16, 1.0));
  ASSERT_GT(result.trace.size(), 0u);

  std::stringstream stream;
  ASSERT_TRUE(sim::write_binary_trace(result, stream));
  sim::BinaryTrace loaded;
  support::Status read = sim::read_binary_trace(stream, loaded);
  ASSERT_TRUE(read.is_ok()) << read.render();

  ASSERT_EQ(loaded.channels.size(), result.channels.size());
  for (std::size_t i = 0; i < loaded.channels.size(); ++i) {
    EXPECT_EQ(loaded.channels[i], result.channels[i].name);
  }
  ASSERT_EQ(loaded.trace.size(), result.trace.size());
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(loaded.trace.time_ns(i), result.trace.time_ns(i));
    EXPECT_EQ(loaded.trace.channel(i), result.trace.channel(i));
    EXPECT_EQ(loaded.trace.value(i), result.trace.value(i));
    EXPECT_EQ(loaded.trace.last(i), result.trace.last(i));
  }
}

TEST(SimTrace, RejectsGarbage) {
  std::stringstream stream("definitely not a trace");
  sim::BinaryTrace loaded;
  support::Status read = sim::read_binary_trace(stream, loaded);
  EXPECT_FALSE(read.is_ok());
  EXPECT_EQ(read.code(), support::StatusCode::kCorruptData);
  EXPECT_FALSE(read.message().empty());
}

TEST(SimTrace, RejectsOutOfRangeChannelIndex) {
  // A bit-flipped channel column entry must be rejected up front — an
  // out-of-range index would otherwise reach every consumer that uses it
  // to address the channel-name table.
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result = engine.run(base_options(compiled.design, 8, 1.0));
  ASSERT_GT(result.trace.size(), 0u);
  std::stringstream stream;
  ASSERT_TRUE(sim::write_binary_trace(result, stream));
  std::string bytes = stream.str();

  // TYTR v1: magic(4) version(4) events(8) channels(4), then the name
  // table (u32 length + bytes each), then times (8 per event), then the
  // channel column (4 per event) — patch its first entry out of range.
  std::size_t offset = 4 + 4 + 8 + 4;
  for (const sim::ChannelStats& c : result.channels) {
    offset += 4 + c.name.size();
  }
  offset += result.trace.size() * sizeof(double);
  ASSERT_LE(offset + sizeof(std::int32_t), bytes.size());
  std::int32_t bogus = static_cast<std::int32_t>(result.channels.size()) + 7;
  std::memcpy(bytes.data() + offset, &bogus, sizeof(bogus));

  std::stringstream corrupted(bytes);
  sim::BinaryTrace loaded;
  support::Status read = sim::read_binary_trace(corrupted, loaded);
  EXPECT_FALSE(read.is_ok());
  EXPECT_EQ(read.code(), support::StatusCode::kCorruptData);
  EXPECT_NE(read.message().find("out of range"), std::string::npos)
      << read.render();
}

TEST(SimTrace, RejectsTruncatedFile) {
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result = engine.run(base_options(compiled.design, 8, 1.0));
  std::stringstream stream;
  ASSERT_TRUE(sim::write_binary_trace(result, stream));
  std::string bytes = stream.str();
  // Chop the file at several depths; every truncation must produce a
  // corrupt-data Status, never UB or a partial success.
  for (std::size_t keep : {std::size_t{6}, std::size_t{18},
                           bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, keep));
    sim::BinaryTrace loaded;
    support::Status read = sim::read_binary_trace(truncated, loaded);
    EXPECT_FALSE(read.is_ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(read.code(), support::StatusCode::kCorruptData)
        << "kept " << keep << " bytes";
  }
}

TEST(SimTrace, SlabGrowthIsChunked) {
  std::uint64_t before = sim::TraceBuffer::slabs_allocated();
  sim::TraceBuffer buffer;
  constexpr std::size_t kEvents = 100000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    buffer.append(static_cast<double>(i), static_cast<std::int32_t>(i % 7),
                  static_cast<std::int64_t>(i), (i % 13) == 0);
  }
  ASSERT_EQ(buffer.size(), kEvents);
  std::size_t expected_slabs =
      (kEvents + sim::TraceBuffer::kSlabEvents - 1) /
      sim::TraceBuffer::kSlabEvents;
  EXPECT_EQ(buffer.slab_count(), expected_slabs);
  EXPECT_EQ(sim::TraceBuffer::slabs_allocated() - before, expected_slabs);
  for (std::size_t i : {std::size_t{0}, std::size_t{4095}, std::size_t{4096},
                        kEvents - 1}) {
    EXPECT_EQ(buffer.time_ns(i), static_cast<double>(i));
    EXPECT_EQ(buffer.value(i), static_cast<std::int64_t>(i));
  }
}

TEST(SimTrace, ShardedMergedRunsAllocateChunkedSlabs) {
  // An exact single-shard run and credit runs at 2 and 4 shards, each with
  // per-shard trace buffers and the merged copy: even counting all of
  // them, one slab (4096 events) per 1024 traced events is generous.
  driver::CompileResult compiled = compile(saturated_chain_48_source(),
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  const std::uint64_t before = sim::TraceBuffer::slabs_allocated();
  std::uint64_t traced = engine.run(base_options(compiled.design, 500, 1.0))
                             .trace.size();
  for (int shards : {2, 4}) {
    sim::SimOptions options = base_options(compiled.design, 500, 1.0);
    options.shards = shards;
    options.ack_mode = sim::AckMode::kCredit;
    traced += engine.run(options).trace.size();
  }
  ASSERT_GT(traced, 0u);
  EXPECT_LE(sim::TraceBuffer::slabs_allocated() - before,
            std::max<std::uint64_t>(16, traced / 1024))
      << traced << " traced events";
}

// ---------------------------------------------------------------------------
// Profile-weighted partitioning
// ---------------------------------------------------------------------------

TEST(SimProfilePartition, WeightsSteerTheSplit) {
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::SimGraph graph;
  sim::SimOptions options = base_options(compiled.design, 1, 10.0);
  ASSERT_TRUE(sim::build_sim_graph(compiled.design, options, diags, graph));
  ASSERT_GE(graph.components.size(), 12u);

  // Degree-only: a 12-stage chain splits 6/6 at two shards.
  sim::shard::PartitionStats even =
      sim::shard::partition_graph(graph, 2, /*auto_partition=*/true);
  EXPECT_FALSE(even.profile_weighted);
  ASSERT_EQ(even.components_per_shard.size(), 2u);
  EXPECT_EQ(even.components_per_shard[0], even.components_per_shard[1]);

  // All measured activity on one component: the first block closes almost
  // immediately and the rest lands in the second shard.
  std::vector<double> weights(graph.components.size(), 1.0);
  weights[0] = 1000.0;
  sim::shard::PartitionStats skewed = sim::shard::partition_graph(
      graph, 2, /*auto_partition=*/true, &weights);
  EXPECT_TRUE(skewed.profile_weighted);
  ASSERT_EQ(skewed.components_per_shard.size(), 2u);
  EXPECT_LT(skewed.components_per_shard[0], even.components_per_shard[0]);
  std::vector<std::string> errors;
  EXPECT_TRUE(sim::shard::validate_partition(graph, skewed, errors))
      << (errors.empty() ? "" : errors.front());
}

TEST(SimProfilePartition, ComponentEventsRecorded) {
  driver::CompileResult compiled = compile(kSaturatedPipelineSource,
                                           "sat_top");
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimResult result = engine.run(base_options(compiled.design, 16, 1.0));
  ASSERT_FALSE(result.component_events.empty());
  std::uint64_t total = 0;
  for (std::uint64_t events : result.component_events) total += events;
  EXPECT_GT(total, 0u);

  // The weights round-trip into a sharded run and stay exact-identical
  // (profiling only changes the partition, never the results).
  sim::SimOptions weighted = base_options(compiled.design, 16, 1.0);
  weighted.shards = 4;
  weighted.component_weights.assign(result.component_events.begin(),
                                    result.component_events.end());
  sim::SimResult sharded = engine.run(weighted);
  std::string why;
  EXPECT_TRUE(sim::results_identical(result, sharded, &why)) << why;
}

}  // namespace
}  // namespace tydi
