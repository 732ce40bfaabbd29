// Behaviour-model semantics tests: conservation and ordering properties of
// the built-in simulator models (duplicator, filter, accumulator, mux/demux,
// join2) plus testbench generation consistency.
#include <gtest/gtest.h>

#include "src/driver/compiler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/metrics.hpp"
#include "src/tb/testbench.hpp"

namespace tydi {
namespace {

struct SimSetup {
  driver::CompileResult compiled;
  sim::SimResult result;
};

SimSetup run(std::string_view source, const std::string& top,
             const std::vector<std::pair<std::string, std::vector<sim::Packet>>>&
                 stimuli,
             double interval_ns = 10.0) {
  driver::CompileOptions options;
  options.top = top;
  options.emit_vhdl = false;
  SimSetup setup{driver::compile_source(std::string(source), options), {}};
  EXPECT_TRUE(setup.compiled.success()) << setup.compiled.report();
  support::DiagnosticEngine diags;
  sim::Engine engine(setup.compiled.design, diags);
  sim::SimOptions sim_options;
  sim_options.max_time_ns = 1.0e7;
  for (const auto& [port, packets] : stimuli) {
    sim::Stimulus stim;
    stim.port = port;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      stim.packets.emplace_back(interval_ns * static_cast<double>(i),
                                packets[i]);
    }
    sim_options.stimuli.push_back(std::move(stim));
  }
  setup.result = engine.run(sim_options);
  return setup;
}

std::vector<sim::Packet> counting_packets(int n) {
  std::vector<sim::Packet> out;
  for (int i = 0; i < n; ++i) out.push_back(sim::Packet{i, i == n - 1});
  return out;
}

TEST(BehaviorDuplicator, ConservesPacketsOnAllOutputs) {
  constexpr std::string_view source = R"(
type t = Stream(Bit(16), d=1, c=2);
streamlet s { feed: t in, o1: t out, o2: t out, o3: t out, }
impl top of s {
  instance d(duplicator_i<type t, 3>),
  feed => d.in_,
  d.out_[0] => o1,
  d.out_[1] => o2,
  d.out_[2] => o3,
}
)";
  auto setup = run(source, "top", {{"feed", counting_packets(20)}});
  for (const char* port : {"o1", "o2", "o3"}) {
    ASSERT_TRUE(setup.result.top_outputs.contains(port)) << port;
    const auto& packets = setup.result.top_outputs.at(port);
    ASSERT_EQ(packets.size(), 20u) << port;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      EXPECT_EQ(packets[i].second.value, static_cast<std::int64_t>(i));
    }
  }
  EXPECT_FALSE(setup.result.deadlock);
}

TEST(BehaviorFilter, DropsWhereKeepIsZero) {
  // keep = (value % 2 == 0)? We drive keep explicitly from a second input.
  constexpr std::string_view source = R"(
type t = Stream(Bit(16), d=1, c=2);
streamlet s { feed: t in, keep_in: std_bool in, kept: t out, }
impl top of s {
  instance f(filter_i<type t, type std_bool>),
  feed => f.in_,
  keep_in => f.keep,
  f.out => kept,
}
)";
  std::vector<sim::Packet> keeps;
  for (int i = 0; i < 10; ++i) keeps.push_back(sim::Packet{i % 2, i == 9});
  auto setup =
      run(source, "top", {{"feed", counting_packets(10)}, {"keep_in", keeps}});
  const auto& kept = setup.result.top_outputs.at("kept");
  // Odd indices kept (keep=1 at i%2==1).
  ASSERT_EQ(kept.size(), 5u);
  EXPECT_EQ(kept[0].second.value, 1);
  EXPECT_EQ(kept[4].second.value, 9);
  EXPECT_FALSE(setup.result.deadlock);
}

TEST(BehaviorAccumulator, SumsUntilLast) {
  constexpr std::string_view source = R"(
type t = Stream(Bit(16), d=1, c=2);
type t_sum = Stream(Bit(32), d=1, c=2);
streamlet s { feed: t in, total: t_sum out, }
impl top of s {
  instance a(accumulator_i<type t, type t_sum>),
  feed => a.in_,
  a.out => total,
}
)";
  auto setup = run(source, "top", {{"feed", counting_packets(10)}});
  const auto& totals = setup.result.top_outputs.at("total");
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].second.value, 45);  // 0 + 1 + ... + 9
  EXPECT_TRUE(totals[0].second.last);
}

TEST(BehaviorJoin2, AddsOperandStreams) {
  constexpr std::string_view source = R"(
type t = Stream(Bit(16), d=1, c=2);
type t_o = Stream(Bit(32), d=1, c=2);
streamlet s { lhs_in: t in, rhs_in: t in, sum: t_o out, }
impl top of s {
  instance a(add2_i<type t, type t, type t_o>),
  lhs_in => a.lhs,
  rhs_in => a.rhs,
  a.out => sum,
}
)";
  std::vector<sim::Packet> tens;
  for (int i = 0; i < 8; ++i) tens.push_back(sim::Packet{10 * i, i == 7});
  auto setup = run(source, "top",
                   {{"lhs_in", counting_packets(8)}, {"rhs_in", tens}});
  const auto& sums = setup.result.top_outputs.at("sum");
  ASSERT_EQ(sums.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sums[i].second.value, static_cast<std::int64_t>(11 * i));
  }
}

TEST(BehaviorDemuxMux, RoundRobinPreservesOrderThroughParallelPaths) {
  constexpr std::string_view source = R"(
type t = Stream(Bit(16), d=1, c=2);
streamlet s { feed: t in, merged: t out, }
impl top of s {
  instance d(demux_i<type t, 3>),
  instance m(mux_i<type t, 3>),
  feed => d.in_,
  d.out_[0] => m.in_[0],
  d.out_[1] => m.in_[1],
  d.out_[2] => m.in_[2],
  m.out => merged,
}
)";
  auto setup = run(source, "top", {{"feed", counting_packets(30)}});
  const auto& merged = setup.result.top_outputs.at("merged");
  ASSERT_EQ(merged.size(), 30u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].second.value, static_cast<std::int64_t>(i));
  }
}

TEST(BehaviorLogic, AndOrReductions) {
  constexpr std::string_view source = R"(
streamlet s { p1: std_bool in, p2: std_bool in, both: std_bool out, either: std_bool out, }
impl top of s {
  instance a(logic_and_i<type std_bool, 2>),
  instance o(logic_or_i<type std_bool, 2>),
  instance d1(duplicator_i<type std_bool, 2>),
  instance d2(duplicator_i<type std_bool, 2>),
  p1 => d1.in_,
  p2 => d2.in_,
  d1.out_[0] => a.in_[0],
  d2.out_[0] => a.in_[1],
  d1.out_[1] => o.in_[0],
  d2.out_[1] => o.in_[1],
  a.out => both,
  o.out => either,
}
)";
  std::vector<sim::Packet> p1 = {{1, false}, {1, false}, {0, false}, {0, true}};
  std::vector<sim::Packet> p2 = {{1, false}, {0, false}, {1, false}, {0, true}};
  auto setup = run(source, "top", {{"p1", p1}, {"p2", p2}});
  const auto& both = setup.result.top_outputs.at("both");
  const auto& either = setup.result.top_outputs.at("either");
  ASSERT_EQ(both.size(), 4u);
  ASSERT_EQ(either.size(), 4u);
  EXPECT_EQ(both[0].second.value, 1);
  EXPECT_EQ(both[1].second.value, 0);
  EXPECT_EQ(both[2].second.value, 0);
  EXPECT_EQ(both[3].second.value, 0);
  EXPECT_EQ(either[0].second.value, 1);
  EXPECT_EQ(either[1].second.value, 1);
  EXPECT_EQ(either[2].second.value, 1);
  EXPECT_EQ(either[3].second.value, 0);
}

TEST(BehaviorSimBlock, PayloadExpressionAndStartHandler) {
  constexpr std::string_view source = R"(
type t = Stream(Bit(32), d=1, c=2);
streamlet gen_s { out: t out, }
impl gen_i of gen_s @ external {
  sim {
    on start {
      send(out, 111);
    }
  }
}
streamlet s { feed: t in, tripled: t out, primed: t out, }
impl scale_i of process_unit_s<type t, type t> @ external {
  sim {
    on in_.receive {
      send(out, payload * 3);
      ack(in_);
    }
  }
}
impl top of s {
  instance g(gen_i),
  instance m(scale_i),
  feed => m.in_,
  m.out => tripled,
  g.out => primed,
}
)";
  auto setup = run(source, "top", {{"feed", counting_packets(4)}});
  const auto& tripled = setup.result.top_outputs.at("tripled");
  ASSERT_EQ(tripled.size(), 4u);
  EXPECT_EQ(tripled[2].second.value, 6);
  const auto& primed = setup.result.top_outputs.at("primed");
  ASSERT_EQ(primed.size(), 1u);
  EXPECT_EQ(primed[0].second.value, 111);
}

TEST(BehaviorSimBlock, ForLoopUnrollsInHandlers) {
  // Sec. V-A: "the 'if' and 'for' syntax is available in the event
  // handler". A burst generator emits `burst` packets per input.
  constexpr std::string_view source = R"(
type t = Stream(Bit(32), d=1, c=2);
streamlet s { feed: t in, bursts: t out, }
impl burster of process_unit_s<type t, type t> @ external {
  const burst = 3;
  sim {
    on in_.receive {
      for k in 0->burst {
        send(out, payload * 10 + k);
      }
      ack(in_);
    }
  }
}
impl top of s {
  instance b(burster),
  feed => b.in_,
  b.out => bursts,
}
)";
  auto setup = run(source, "top", {{"feed", counting_packets(4)}}, 100.0);
  const auto& bursts = setup.result.top_outputs.at("bursts");
  ASSERT_EQ(bursts.size(), 12u);
  // First input (value 0) yields 0, 1, 2; second (value 1) yields 10, 11, 12.
  EXPECT_EQ(bursts[0].second.value, 0);
  EXPECT_EQ(bursts[1].second.value, 1);
  EXPECT_EQ(bursts[2].second.value, 2);
  EXPECT_EQ(bursts[3].second.value, 10);
  EXPECT_EQ(bursts[5].second.value, 12);
  EXPECT_FALSE(setup.result.deadlock);
}

TEST(BehaviorSimBlock, ForLoopWithDelayKeepsLocals) {
  // Delays inside the unrolled loop must preserve the loop binding across
  // the suspension.
  constexpr std::string_view source = R"(
type t = Stream(Bit(32), d=1, c=2);
streamlet s { feed: t in, slow: t out, }
impl spacer of process_unit_s<type t, type t> @ external {
  sim {
    on in_.receive {
      for k in 0->2 {
        delay(4);
        send(out, payload + k);
      }
      ack(in_);
    }
  }
}
impl top of s {
  instance sp(spacer),
  feed => sp.in_,
  sp.out => slow,
}
)";
  auto setup = run(source, "top", {{"feed", {sim::Packet{100, true}}}});
  const auto& slow = setup.result.top_outputs.at("slow");
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].second.value, 100);
  EXPECT_EQ(slow[1].second.value, 101);
  // The second packet is one delay later than the first.
  EXPECT_GT(slow[1].first, slow[0].first);
}

TEST(BehaviorSimBlock, SetRecordsLiteralAndExpressionValues) {
  // A literal `set` is folded to its string form when the handler is
  // compiled; an expression-valued `set` records the evaluated string.
  constexpr std::string_view source = R"(
type t = Stream(Bit(32), d=1, c=2);
streamlet s { feed: t in, done: t out, }
impl tracker of process_unit_s<type t, type t> @ external {
  sim {
    state n = "none";
    state last = "none";
    on in_.receive {
      set n = 3;
      set last = payload * 2;
      send(out);
      ack(in_);
    }
  }
}
impl top of s {
  instance k(tracker),
  feed => k.in_,
  k.out => done,
}
)";
  auto setup = run(source, "top",
                   {{"feed", {sim::Packet{5, false}, sim::Packet{7, true}}}});
  std::vector<sim::StateTransition> seen(
      setup.result.state_transitions.begin(),
      setup.result.state_transitions.end());
  // Packet 5: n none -> 3, last none -> 10. Packet 7: n stays 3 (no
  // transition), last 10 -> 14.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].component, "k");
  EXPECT_EQ(seen[0].variable, "n");
  EXPECT_EQ(seen[0].from, "none");
  EXPECT_EQ(seen[0].to, "3");
  EXPECT_EQ(seen[1].variable, "last");
  EXPECT_EQ(seen[1].from, "none");
  EXPECT_EQ(seen[1].to, "10");
  EXPECT_EQ(seen[2].variable, "last");
  EXPECT_EQ(seen[2].from, "10");
  EXPECT_EQ(seen[2].to, "14");
  EXPECT_GT(seen[2].time_ns, seen[1].time_ns);
  EXPECT_EQ(setup.result.state_transitions[2].to, "14");
}

TEST(BehaviorSimBlock, NegativeDelayNeverRunsTimeBackwards) {
  // Unclamped, delay(-5) schedules into the past: this design's first
  // output came out at -10 ns, before the stimulus that caused it. The
  // kernel clamps the delay to 0 and warns once per run.
  constexpr std::string_view source = R"(
type t = Stream(Bit(32), d=1, c=2);
streamlet s { feed: t in, result: t out, }
impl hasty of process_unit_s<type t, type t> @ external {
  sim {
    on in_.receive {
      delay(-5);
      send(out);
      ack(in_);
    }
  }
}
impl top of s {
  instance par(parallelize_i<type t, type t, impl hasty, 4>),
  feed => par.in_,
  par.out => result,
}
)";
  driver::CompileOptions compile_options;
  compile_options.top = "top";
  compile_options.emit_vhdl = false;
  driver::CompileResult compiled =
      driver::compile_source(std::string(source), compile_options);
  ASSERT_TRUE(compiled.success()) << compiled.report();
  constexpr int kPackets = 16;
  constexpr double kIntervalNs = 10.0;
  sim::SimResult reference;
  for (int shards : {1, 2, 4}) {
    support::DiagnosticEngine diags;
    sim::Engine engine(compiled.design, diags);
    sim::SimOptions options;
    options.shards = shards;
    options.stimuli =
        sim::generic_stimuli(compiled.design, kPackets, kIntervalNs);
    sim::SimResult result = engine.run(options);
    ASSERT_TRUE(result.status().is_ok()) << result.summary();
    const auto& out = result.top_outputs.at("result");
    ASSERT_EQ(out.size(), static_cast<std::size_t>(kPackets));
    for (const auto& [time_ns, packet] : out) {
      // Packet v entered at v * 10 ns.
      EXPECT_GE(time_ns, kIntervalNs * static_cast<double>(packet.value))
          << "packet " << packet.value << " at " << shards << " shard(s)";
    }
    std::size_t warnings = 0;
    for (const support::Diagnostic& d : diags.diagnostics()) {
      if (d.message.find("negative or NaN delay clamped to 0 ns") !=
              std::string::npos &&
          d.message.find("occurred") == std::string::npos) {
        ++warnings;
      }
    }
    EXPECT_EQ(warnings, 1u) << shards << " shard(s)";
    if (shards == 1) {
      reference = std::move(result);
      continue;
    }
    std::string why;
    EXPECT_TRUE(sim::results_identical(reference, result, &why))
        << shards << " shard(s): " << why;
  }
}

TEST(BehaviorSimBlock, NegativeClockPeriodClampsChannelLatency) {
  // A negative period gives every channel a negative latency. The kernel's
  // delay clamp sees shard-local deliveries only; a cut channel's delivery
  // is stamped by the source shard, so graph build clamps the latency.
  constexpr std::string_view source = R"(
type t = Stream(Bit(32), d=1, c=2);
streamlet s { feed: t in, result: t out, }
impl stage of process_unit_s<type t, type t> @ external {
  sim {
    on in_.receive {
      delay(1);
      send(out);
      ack(in_);
    }
  }
}
impl top of s {
  instance par(parallelize_i<type t, type t, impl stage, 4>),
  feed => par.in_,
  par.out => result,
}
)";
  driver::CompileOptions compile_options;
  compile_options.top = "top";
  compile_options.emit_vhdl = false;
  driver::CompileResult compiled =
      driver::compile_source(std::string(source), compile_options);
  ASSERT_TRUE(compiled.success()) << compiled.report();
  sim::SimResult reference;
  for (int shards : {1, 2, 4}) {
    support::DiagnosticEngine diags;
    sim::Engine engine(compiled.design, diags);
    sim::SimOptions options;
    options.shards = shards;
    options.default_period_ns = -10.0;
    options.stimuli = sim::generic_stimuli(compiled.design, 8, 10.0);
    sim::SimResult result = engine.run(options);
    ASSERT_TRUE(result.status().is_ok()) << result.summary();
    for (const auto& [time_ns, packet] : result.top_outputs.at("result")) {
      EXPECT_GE(time_ns, 10.0 * static_cast<double>(packet.value))
          << "packet " << packet.value << " at " << shards << " shard(s)";
    }
    if (shards == 1) {
      reference = std::move(result);
      continue;
    }
    std::string why;
    EXPECT_TRUE(sim::results_identical(reference, result, &why))
        << shards << " shard(s): " << why;
  }
}

TEST(BehaviorSimBlock, LiteralSetIsVisibleToALaterCondition) {
  // A behaviour with a run-time expression keeps its state scope current:
  // the `if` right after a literal `set` reads the new value.
  constexpr std::string_view source = R"(
type t = Stream(Bit(32), d=1, c=2);
streamlet s { feed: t in, done: t out, }
impl marker of process_unit_s<type t, type t> @ external {
  sim {
    state s = "idle";
    on in_.receive {
      set s = "busy";
      if (s == "busy") {
        send(out, payload + 100);
      } else {
        send(out, payload);
      }
      ack(in_);
      set s = "idle";
    }
  }
}
impl top of s {
  instance m(marker),
  feed => m.in_,
  m.out => done,
}
)";
  auto setup = run(source, "top", {{"feed", counting_packets(3)}});
  const auto& done = setup.result.top_outputs.at("done");
  ASSERT_EQ(done.size(), 3u);
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].second.value, static_cast<std::int64_t>(100 + i));
  }
  // Both literal sets still record: idle -> busy -> idle per packet.
  ASSERT_EQ(setup.result.state_transitions.size(), 6u);
  EXPECT_EQ(setup.result.state_transitions[0].to, "busy");
  EXPECT_EQ(setup.result.state_transitions[1].to, "idle");
}

TEST(Testbench, IrAndVhdlConsistentWithTrace) {
  constexpr std::string_view source = R"(
type t = Stream(Bit(16), d=1, c=2);
streamlet s { feed: t in, echoed: t out, }
impl echo of process_unit_s<type t, type t> @ external {
  sim {
    on in_.receive { send(out); ack(in_); }
  }
}
impl top of s {
  instance e(echo),
  feed => e.in_,
  e.out => echoed,
}
)";
  auto setup = run(source, "top", {{"feed", counting_packets(3)}});
  tb::TestbenchOptions options;
  options.name = "tb_echo";

  std::string ir = tb::emit_ir_testbench(setup.compiled.ir, setup.result,
                                         options);
  EXPECT_NE(ir.find("testbench tb_echo for top"), std::string::npos);
  // Three drives and three expects.
  std::size_t drives = 0;
  std::size_t expects = 0;
  for (std::size_t pos = ir.find("drive "); pos != std::string::npos;
       pos = ir.find("drive ", pos + 1)) {
    ++drives;
  }
  for (std::size_t pos = ir.find("expect "); pos != std::string::npos;
       pos = ir.find("expect ", pos + 1)) {
    ++expects;
  }
  EXPECT_EQ(drives, 3u);
  EXPECT_EQ(expects, 3u);

  std::string vhdl = tb::emit_vhdl_testbench(setup.compiled.ir,
                                             setup.result, options);
  EXPECT_NE(vhdl.find("entity tb_echo is"), std::string::npos);
  EXPECT_NE(vhdl.find("dut : entity work.top"), std::string::npos);
  EXPECT_NE(vhdl.find("stimulus : process"), std::string::npos);
  EXPECT_NE(vhdl.find("checker : process"), std::string::npos);
  // Expected values appear as assertions.
  EXPECT_NE(vhdl.find("assert unsigned(echoed_data) = to_unsigned(2"),
            std::string::npos);
}

TEST(BehaviorSource, BuiltinSourceRespectsCountParam) {
  constexpr std::string_view source = R"(
type t = Stream(Bit(16), d=1, c=2);
streamlet s { produced: t out, }
impl top of s {
  instance src(source_i<type t>),
  src.out => produced,
}
)";
  driver::CompileOptions options;
  options.top = "top";
  options.emit_vhdl = false;
  auto compiled = driver::compile_source(std::string(source), options);
  ASSERT_TRUE(compiled.success()) << compiled.report();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions sim_options;
  sim_options.model_params["src"] = {{"count", 17.0},
                                     {"interval_cycles", 2.0}};
  auto result = engine.run(sim_options);
  ASSERT_TRUE(result.top_outputs.contains("produced"));
  EXPECT_EQ(result.top_outputs.at("produced").size(), 17u);
}

}  // namespace
}  // namespace tydi
