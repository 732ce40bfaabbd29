// Simulator tests (Sec. V): event-driven semantics, the parallelize
// throughput example of Sec. IV-B, sim-block interpretation, bottleneck
// ranking and deadlock detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/driver/compiler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/metrics.hpp"
#include "src/support/hash.hpp"

namespace tydi {
namespace {

/// The Sec. IV-B scenario: a processing unit with an 8-cycle service time
/// behind parallelize<channel>. Service = 7 delay cycles + 1 handshake.
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

streamlet partest_top_s {
  feed: t_data in,
  result: t_data out,
}

impl partest_top of partest_top_s {
  instance par(parallelize_i<type t_data, type t_data, impl pu_adder, 8>),
  feed => par.in_,
  par.out => result,
}
)tydi";

driver::CompileResult compile_parallelize(int channels) {
  std::string source(kParallelizeSource);
  // Swap the channel count in the single instantiation site.
  std::string needle = "impl pu_adder, 8>";
  std::string replacement = "impl pu_adder, " + std::to_string(channels) + ">";
  source.replace(source.find(needle), needle.size(), replacement);
  driver::CompileOptions options;
  options.top = "partest_top";
  options.emit_vhdl = false;
  return driver::compile_source(std::move(source), options);
}

sim::SimResult simulate_parallelize(int channels, int packets) {
  driver::CompileResult compiled = compile_parallelize(channels);
  EXPECT_TRUE(compiled.success()) << compiled.report();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options;
  options.max_time_ns = 1.0e7;
  sim::Stimulus stim;
  stim.port = "feed";
  for (int i = 0; i < packets; ++i) {
    sim::Packet p;
    p.value = i;
    p.last = (i == packets - 1);
    stim.packets.emplace_back(10.0 * i, p);
  }
  options.stimuli.push_back(std::move(stim));
  return engine.run(options);
}

TEST(SimParallelize, AllPacketsArriveInOrder) {
  sim::SimResult result = simulate_parallelize(4, 64);
  ASSERT_TRUE(result.top_outputs.contains("result"));
  const auto& outputs = result.top_outputs.at("result");
  ASSERT_EQ(outputs.size(), 64u);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i].second.value, static_cast<std::int64_t>(i))
        << "packet order violated at " << i;
  }
  EXPECT_FALSE(result.deadlock);
}

TEST(SimParallelize, EightChannelsReachOnePacketPerCycle) {
  // Sec. IV-B: an 8-cycle processing unit parallelized 8 ways sustains the
  // full input rate of 1 packet/cycle (0.1 packets/ns at 10 ns period).
  sim::SimResult result = simulate_parallelize(8, 256);
  double throughput = result.throughput("result");
  EXPECT_GT(throughput, 0.095);
  EXPECT_LE(throughput, 0.105);
}

TEST(SimParallelize, TwoChannelsAreServiceLimited) {
  // 2 channels of an 8-cycle unit cap at 2/8 = 0.25 packets/cycle.
  sim::SimResult result = simulate_parallelize(2, 256);
  double throughput = result.throughput("result");
  EXPECT_GT(throughput, 0.020);
  EXPECT_LT(throughput, 0.030);
}

TEST(SimParallelize, ThroughputSaturatesAtEightChannels) {
  double t4 = simulate_parallelize(4, 128).throughput("result");
  double t8 = simulate_parallelize(8, 128).throughput("result");
  double t12 = simulate_parallelize(12, 128).throughput("result");
  EXPECT_LT(t4, t8 * 0.7);         // below saturation: scaling helps
  EXPECT_NEAR(t8, t12, t8 * 0.1);  // beyond 8: source-limited, flat
}

TEST(SimParallelize, UndersizedParallelizeShowsInputBottleneck) {
  // With 1 channel the feed channel into the demux must accumulate blocked
  // time (the paper's bottleneck signal).
  sim::SimResult result = simulate_parallelize(1, 128);
  const sim::ChannelStats* bottleneck = result.bottleneck();
  ASSERT_NE(bottleneck, nullptr);
  EXPECT_NE(bottleneck->name.find("feed"), std::string::npos)
      << "expected the top feed channel to be the bottleneck, got "
      << bottleneck->name;
  EXPECT_GT(bottleneck->blocked_ns, 1000.0);
}

TEST(SimParallelize, StateTransitionsRecorded) {
  sim::SimResult result = simulate_parallelize(2, 8);
  // Each pu instance toggles idle->busy->idle per packet.
  EXPECT_FALSE(result.state_transitions.empty());
  bool saw_busy = false;
  for (const sim::StateTransition& t : result.state_transitions) {
    if (t.variable == "s" && t.to == "busy") saw_busy = true;
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_FALSE(sim::render_state_table(result).empty());
}

// ---------------------------------------------------------------------------
// Deadlock detection (Sec. V-B: "analyzing the relationship between data
// flow and state could also help identify the potential for deadlock").
// ---------------------------------------------------------------------------

constexpr std::string_view kDeadlockSource = R"tydi(
package deadtest;

type t_data = Stream(Bit(8), d=1, c=2);

streamlet join_s {
  a: t_data in,
  b: t_data in,
  out: t_data out,
}

// Requires BOTH inputs before acknowledging either.
impl join_i of join_s @ external {
  sim {
    on a.receive && b.receive {
      send(out);
      ack(a);
      ack(b);
    }
  }
}

streamlet loop_s {
  in_: t_data in,
  out: t_data out,
}

// Echoes packets; closes the cycle.
impl echo_i of loop_s @ external {
  sim {
    on in_.receive {
      send(out);
      ack(in_);
    }
  }
}

streamlet deadtop_s {
  feed: t_data in,
  result: t_data out,
}

// join needs a packet from echo, but echo is fed by join: a wait-for cycle
// with no initial token.
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

TEST(SimDeadlock, WaitForCycleIsDetectedAndReported) {
  driver::CompileOptions options;
  options.top = "deadtop";
  options.emit_vhdl = false;
  driver::CompileResult compiled =
      driver::compile_source(std::string(kDeadlockSource), options);
  ASSERT_TRUE(compiled.success()) << compiled.report();

  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions sim_options;
  sim::Stimulus stim;
  stim.port = "feed";
  stim.packets.emplace_back(0.0, sim::Packet{1, false});
  sim_options.stimuli.push_back(stim);

  sim::SimResult result = engine.run(sim_options);
  EXPECT_TRUE(result.deadlock);
  EXPECT_FALSE(result.blocked_report.empty());
  // The wait-for cycle must include the join component.
  bool join_in_cycle = false;
  for (const std::string& node : result.deadlock_cycle) {
    if (node.find("join") != std::string::npos) join_in_cycle = true;
  }
  EXPECT_TRUE(join_in_cycle)
      << sim::render_bottleneck_report(result, 10);
}

TEST(SimDeadlock, AcyclicDesignDoesNotDeadlock) {
  sim::SimResult result = simulate_parallelize(3, 32);
  EXPECT_FALSE(result.deadlock);
  EXPECT_TRUE(result.deadlock_cycle.empty());
}

TEST(SimEngine, MaxTimeCutoffStopsLongSimulations) {
  driver::CompileResult compiled = compile_parallelize(1);
  ASSERT_TRUE(compiled.success());
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options;
  options.max_time_ns = 500.0;  // far too short for 10k packets
  sim::Stimulus stim;
  stim.port = "feed";
  for (int i = 0; i < 10000; ++i) {
    stim.packets.emplace_back(10.0 * i, sim::Packet{i, false});
  }
  options.stimuli.push_back(std::move(stim));
  sim::SimResult result = engine.run(options);
  EXPECT_LE(result.end_time_ns, 500.0);

  // Re-running on the same engine after a cut-off must start clean: no
  // stale events from the aborted run may leak into the next one.
  sim::SimOptions fresh;
  fresh.max_time_ns = 1.0e7;
  sim::Stimulus stim2;
  stim2.port = "feed";
  for (int i = 0; i < 16; ++i) {
    stim2.packets.emplace_back(10.0 * i, sim::Packet{i, i == 15});
  }
  fresh.stimuli.push_back(std::move(stim2));
  sim::SimResult second = engine.run(fresh);
  ASSERT_TRUE(second.top_outputs.contains("result"));
  EXPECT_EQ(second.top_outputs.at("result").size(), 16u);
}

TEST(SimEngine, SummaryMentionsOutputsAndBottleneck) {
  sim::SimResult result = simulate_parallelize(1, 64);
  std::string summary = result.summary();
  EXPECT_NE(summary.find("top output 'result'"), std::string::npos);
  EXPECT_NE(summary.find("bottleneck:"), std::string::npos);
}

TEST(SimEngine, ExternalTopIsNotARun) {
  std::string source(kParallelizeSource);
  driver::CompileOptions compile;
  compile.top = "pu_adder";
  compile.emit_vhdl = false;
  driver::CompileResult compiled =
      driver::compile_source(std::move(source), compile);
  ASSERT_TRUE(compiled.success()) << compiled.report();
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  const sim::SimResult result = engine.run(sim::SimOptions{});
  EXPECT_EQ(result.status().code(), support::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("must be structural"),
            std::string::npos)
      << result.status().render();
  EXPECT_EQ(result.summary().find("simulation finished"), std::string::npos)
      << result.summary();
  // The run reports nothing beyond build_sim_graph's own error.
  EXPECT_EQ(diags.error_count(), 1u) << diags.render();
}

TEST(SimEngine, ThroughputEdgeCases) {
  sim::SimResult empty;
  EXPECT_EQ(empty.throughput("nope"), 0.0);
  empty.top_outputs["one"].emplace_back(10.0, sim::Packet{});
  EXPECT_EQ(empty.throughput("one"), 0.0);  // single packet: no rate
  EXPECT_EQ(empty.bottleneck(), nullptr);
}

TEST(SimEngine, StimulusOnUnknownPortWarnsInsteadOfCrashing) {
  driver::CompileResult compiled = compile_parallelize(1);
  ASSERT_TRUE(compiled.success());
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options;
  sim::Stimulus stim;
  stim.port = "no_such_port";
  stim.packets.emplace_back(0.0, sim::Packet{});
  options.stimuli.push_back(std::move(stim));
  (void)engine.run(options);
  EXPECT_GT(diags.warning_count(), 0u);
}

TEST(SimEngine, RepeatedRunsAreDeterministic) {
  // Two identical runs must agree on bottleneck ranking (including the
  // tie-break at equal blocked_ns), trace ordering, and — for a deadlocking
  // design — the reported wait-for cycle.
  driver::CompileResult compiled = compile_parallelize(2);
  ASSERT_TRUE(compiled.success());
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);

  auto run_once = [&] {
    sim::SimOptions options;
    options.max_time_ns = 1.0e7;
    sim::Stimulus stim;
    stim.port = "feed";
    for (int i = 0; i < 96; ++i) {
      stim.packets.emplace_back(10.0 * i, sim::Packet{i, i == 95});
    }
    options.stimuli.push_back(std::move(stim));
    return engine.run(options);
  };
  sim::SimResult first = run_once();
  sim::SimResult second = run_once();

  auto ranked_names = [](const sim::SimResult& r) {
    std::vector<std::string> names;
    for (const sim::ChannelStats& c : sim::rank_bottlenecks(r)) {
      names.push_back(c.name);
    }
    return names;
  };
  EXPECT_EQ(ranked_names(first), ranked_names(second));
  ASSERT_NE(first.bottleneck(), nullptr);
  ASSERT_NE(second.bottleneck(), nullptr);
  EXPECT_EQ(first.bottleneck()->name, second.bottleneck()->name);

  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (std::size_t i = 0; i < first.trace.size(); ++i) {
    EXPECT_EQ(first.trace.time_ns(i), second.trace.time_ns(i)) << i;
    EXPECT_EQ(first.trace_event(i).channel, second.trace_event(i).channel)
        << i;
    EXPECT_EQ(first.trace.value(i), second.trace.value(i)) << i;
  }

  // Deadlock cycle determinism on the cyclic join design.
  driver::CompileOptions options;
  options.top = "deadtop";
  options.emit_vhdl = false;
  driver::CompileResult dead_compiled =
      driver::compile_source(std::string(kDeadlockSource), options);
  ASSERT_TRUE(dead_compiled.success()) << dead_compiled.report();
  sim::Engine dead_engine(dead_compiled.design, diags);
  auto dead_once = [&] {
    sim::SimOptions dead_options;
    sim::Stimulus stim;
    stim.port = "feed";
    stim.packets.emplace_back(0.0, sim::Packet{1, false});
    dead_options.stimuli.push_back(stim);
    return dead_engine.run(dead_options);
  };
  sim::SimResult dead_first = dead_once();
  sim::SimResult dead_second = dead_once();
  EXPECT_TRUE(dead_first.deadlock);
  EXPECT_EQ(dead_first.deadlock_cycle, dead_second.deadlock_cycle);
  EXPECT_EQ(dead_first.blocked_report, dead_second.blocked_report);
}

TEST(SimEngine, BottleneckTieBreaksByName) {
  sim::SimResult result;
  sim::ChannelStats z;
  z.name = "z.out -> sink.in_";
  z.blocked_ns = 50.0;
  sim::ChannelStats a;
  a.name = "a.out -> sink.in_";
  a.blocked_ns = 50.0;
  result.channels = {z, a};
  ASSERT_NE(result.bottleneck(), nullptr);
  EXPECT_EQ(result.bottleneck()->name, "a.out -> sink.in_");
  auto ranked = sim::rank_bottlenecks(result);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].name, "a.out -> sink.in_");
}

TEST(SimEngine, TraceCanBeDisabled) {
  driver::CompileResult compiled = compile_parallelize(2);
  ASSERT_TRUE(compiled.success());
  support::DiagnosticEngine diags;
  sim::Engine engine(compiled.design, diags);
  sim::SimOptions options;
  options.record_trace = false;
  sim::Stimulus stim;
  stim.port = "feed";
  for (int i = 0; i < 8; ++i) {
    stim.packets.emplace_back(10.0 * i, sim::Packet{i, i == 7});
  }
  options.stimuli.push_back(std::move(stim));
  sim::SimResult result = engine.run(options);
  EXPECT_TRUE(result.trace.empty());
  // Outputs are still recorded (trace only affects TraceEvents).
  EXPECT_EQ(result.top_outputs.at("result").size(), 8u);
}

/// The canonical (time, kind, a, b) order as a four-field comparator: the
/// reference the packed heap must match.
bool canonically_before(const sim::Event& x, const sim::Event& y) {
  if (x.time != y.time) return x.time < y.time;
  if (x.kind != y.kind) return x.kind < y.kind;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

TEST(SimEventQueue, PopOrderMatchesTheCanonicalComparator) {
  constexpr double kInf = sim::kInfiniteTime;
  constexpr std::int32_t kMaxA =
      static_cast<std::int32_t>(sim::EventQueue::kMaxOperand);
  constexpr std::int32_t kMaxB = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMinB = std::numeric_limits<std::int32_t>::min();
  // Small pools make ties common; every pool holds the edge values.
  const double times[] = {0.0,  -0.0,  10.0, 10.0, 20.0, -5.0,
                          -1e300, 1e-310, kInf, -kInf, 1e300};
  const std::int32_t as[] = {0, 1, 2, 3, kMaxA - 1, kMaxA};
  const std::int32_t bs[] = {-1, 0, 1, 7, kMaxB, kMinB};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    // Draw i of a seed is splitmix64(seed * 2^32 + i).
    std::uint64_t draw = seed << 32;
    auto next = [&] { return support::splitmix64(draw++); };
    sim::EventQueue queue;
    std::vector<sim::Event> reference;
    auto pop_and_compare = [&](int step) {
      auto want_it = std::min_element(reference.begin(), reference.end(),
                                      canonically_before);
      const sim::Event want = *want_it;
      reference.erase(want_it);
      ASSERT_EQ(queue.top_time(), want.time) << "seed " << seed;
      const sim::Event got = queue.pop();
      ASSERT_EQ(got.time, want.time) << "seed " << seed << " step " << step;
      ASSERT_FALSE(got.time == 0.0 && std::signbit(got.time));
      ASSERT_EQ(got.kind, want.kind) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.a, want.a) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.b, want.b) << "seed " << seed << " step " << step;
    };
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t r = next();
      if (reference.empty() || r % 8 < 5) {
        double time = times[next() % std::size(times)];
        // One draw in four is a fresh time off the pools.
        if (next() % 4 == 0) {
          time = static_cast<double>(static_cast<std::int64_t>(next() % 2001) -
                                     1000) /
                 8.0;
        }
        const auto kind = static_cast<sim::EventKind>(next() % 5);
        std::int32_t a = as[next() % std::size(as)];
        if (next() % 4 == 0) {
          a = static_cast<std::int32_t>(next() % (kMaxA + 1u));
        }
        std::int32_t b = bs[next() % std::size(bs)];
        if (next() % 4 == 0) b = static_cast<std::int32_t>(next());
        const sim::Event ev{time, a, b, kind};
        queue.push(ev);
        reference.push_back(ev);
      } else {
        pop_and_compare(step);
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) {
      pop_and_compare(-1);
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(SimEventQueue, GraphSizeBeyondTheKeyIsRejected) {
  constexpr std::size_t kFits = sim::EventQueue::kMaxOperand + 1;
  EXPECT_TRUE(sim::check_event_operand_counts(kFits, kFits, kFits).is_ok());
  const char* names[] = {"components", "channels", "stimulus streams"};
  for (int field = 0; field < 3; ++field) {
    std::size_t counts[3] = {kFits, kFits, kFits};
    counts[field] += 1;
    const support::Status status =
        sim::check_event_operand_counts(counts[0], counts[1], counts[2]);
    EXPECT_EQ(status.code(), support::StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(names[field]), std::string::npos)
        << status.render();
  }
}

}  // namespace
}  // namespace tydi
