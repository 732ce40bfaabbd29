// Experiment E5 — the Sec. V simulator claims:
//
//  1. (Sec. IV-B) a processing unit with an 8-cycle service time behind
//     `parallelize_i<..., channel>` reaches the full input rate of
//     1 packet/cycle exactly when channel >= 8 — the harness sweeps the
//     channel count and prints the throughput curve;
//  2. (Sec. V-B) the simulator identifies the streaming bottleneck as the
//     output port with the longest handshake blockage — the harness shows
//     the bottleneck moving when one pipeline stage is slowed down;
//  3. (Sec. V-B) wait-for analysis detects deadlocks — demonstrated on a
//     cyclic join design.
//
// With `--json <path>` the harness additionally runs an events-per-second
// measurement of the parallelize channel sweep (trace disabled, simulation
// only — compile time excluded) and writes the numbers to a JSON file so the
// perf trajectory is tracked across PRs.
#include <cstring>
#include <iostream>

#include "bench/harness.hpp"
#include "src/driver/compiler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/metrics.hpp"
#include "src/support/text.hpp"

namespace {

tydi::sim::SimResult simulate(const std::string& source,
                              const std::string& top, int packets,
                              double interval_ns) {
  tydi::driver::CompileOptions options;
  options.top = top;
  options.emit_vhdl = false;
  tydi::driver::CompileResult compiled =
      tydi::driver::compile_source(source, options);
  if (!compiled.success()) {
    std::cerr << compiled.report();
    std::exit(1);
  }
  tydi::support::DiagnosticEngine diags;
  tydi::sim::Engine engine(compiled.design, diags);
  tydi::sim::SimOptions sim_options;
  sim_options.max_time_ns = 1.0e7;
  tydi::sim::Stimulus stim;
  stim.port = "feed";
  for (int i = 0; i < packets; ++i) {
    stim.packets.emplace_back(interval_ns * i,
                              tydi::sim::Packet{i, i == packets - 1});
  }
  sim_options.stimuli.push_back(std::move(stim));
  return engine.run(sim_options);
}

// Two-stage pipeline where the second stage is 4x slower: the bottleneck
// report must blame the channel into the slow stage.
constexpr std::string_view kPipelineSource = R"tydi(
package pipe;
type t_data = Stream(Bit(32), d=1, c=2);
impl fast_stage of process_unit_s<type t_data, type t_data> @ external {
  sim {
    on in_.receive { delay(1); send(out); ack(in_); }
  }
}
impl slow_stage of process_unit_s<type t_data, type t_data> @ external {
  sim {
    on in_.receive { delay(8); send(out); ack(in_); }
  }
}
streamlet pipe_s { feed: t_data in, result: t_data out, }
impl pipe_top of pipe_s {
  instance a(fast_stage),
  instance b(slow_stage),
  feed => a.in_,
  a.out => b.in_,
  b.out => result,
}
)tydi";

constexpr std::string_view kDeadlockSource = R"tydi(
package deadbench;
type t_data = Stream(Bit(8), d=1, c=2);
streamlet join_s { a: t_data in, b: t_data in, out: t_data out, }
impl join_i of join_s @ external {
  sim {
    on a.receive && b.receive { send(out); ack(a); ack(b); }
  }
}
streamlet deadtop_s { feed: t_data in, result: t_data out, }
impl deadtop of deadtop_s {
  instance join(join_i),
  instance dup(duplicator_i<type t_data, 2>),
  feed => join.a,
  join.out => dup.in_,
  dup.out_[0] => join.b,
  dup.out_[1] => result,
}
)tydi";

/// Events/sec measurement: simulates the parallelize sweep with tracing off
/// and measures only Engine::run wall time. The baseline constant is the
/// same measurement taken on the pre-refactor (string-keyed, std::function
/// event queue) engine on this machine, kept for trajectory tracking.
constexpr double kPreRefactorEventsPerSec = 2.1e6;

constexpr int kSweepChannels[] = {1, 2, 4, 8, 16};

struct PerfNumbers {
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

PerfNumbers measure_events_per_sec(int packets) {
  PerfNumbers perf;
  for (int channels : kSweepChannels) {
    tydi::driver::CompileOptions options;
    options.top = "partest_top";
    options.emit_vhdl = false;
    tydi::driver::CompileResult compiled = tydi::driver::compile_source(
        harness::parallelize_source(channels), options);
    if (!compiled.success()) {
      std::cerr << compiled.report();
      std::exit(1);
    }
    tydi::support::DiagnosticEngine diags;
    tydi::sim::Engine engine(compiled.design, diags);
    tydi::sim::SimOptions sim_options;
    sim_options.max_time_ns = 1.0e9;
    sim_options.record_trace = false;
    tydi::sim::Stimulus stim;
    stim.port = "feed";
    for (int i = 0; i < packets; ++i) {
      stim.packets.emplace_back(10.0 * i,
                                tydi::sim::Packet{i, i == packets - 1});
    }
    sim_options.stimuli.push_back(std::move(stim));
    const double start = harness::now_ms(harness::Clock::kWall);
    tydi::sim::SimResult result = engine.run(sim_options);
    perf.wall_seconds +=
        (harness::now_ms(harness::Clock::kWall) - start) / 1000.0;
    perf.events += result.events_processed;
  }
  return perf;
}

int run_perf_json(const char* path) {
  // Warm-up pass, then the measured pass.
  (void)measure_events_per_sec(2000);
  PerfNumbers perf = measure_events_per_sec(20000);
  const double baseline = kPreRefactorEventsPerSec;
  if (!harness::write_section(
          path, "sim_parallelize_channel_sweep",
          [&](harness::JsonWriter& json) {
            json.key("channels").begin_array();
            for (int channels : kSweepChannels) json.value(channels);
            json.end_array()
                .field("packets_per_run", 20000)
                .field("events_processed", perf.events)
                .field("wall_seconds", perf.wall_seconds)
                .field("events_per_sec", perf.events_per_sec())
                .field("baseline_events_per_sec", baseline)
                .field("speedup_vs_baseline",
                       perf.events_per_sec() / baseline);
          })) {
    return 1;
  }
  std::cout << "events/sec: " << perf.events_per_sec() << " ("
            << perf.events << " events in " << perf.wall_seconds
            << " s); JSON section updated in " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return run_perf_json(argv[i + 1]);
  }
  std::cout << "=== E5a: parallelize throughput sweep (Sec. IV-B claim: "
               "8 channels sustain 1 packet/cycle) ===\n\n";
  tydi::support::TextTable sweep;
  sweep.header({"channels", "packets/cycle", "of input rate", "expectation"});
  bool shape_ok = true;
  for (int channels : {1, 2, 4, 6, 8, 10, 12, 16}) {
    tydi::sim::SimResult result = simulate(
        harness::parallelize_source(channels), "partest_top", 256, 10.0);
    double per_cycle = result.throughput("result") * 10.0;
    double expected = std::min(1.0, channels / 8.0);
    bool row_ok = per_cycle > expected * 0.9 && per_cycle < expected * 1.1;
    shape_ok = shape_ok && row_ok;
    sweep.row({std::to_string(channels),
               tydi::support::format_fixed(per_cycle, 3),
               tydi::support::format_fixed(100.0 * per_cycle, 1) + " %",
               "~" + tydi::support::format_fixed(expected, 3) +
                   (row_ok ? " ok" : " MISS")});
  }
  std::cout << sweep.render() << "\n";
  std::cout << "saturation at 8 channels: " << (shape_ok ? "yes" : "NO")
            << "\n\n";

  std::cout << "=== E5b: bottleneck identification (Sec. V-B) ===\n\n";
  tydi::sim::SimResult pipeline =
      simulate(std::string(kPipelineSource), "pipe_top", 128, 10.0);
  std::cout << tydi::sim::render_bottleneck_report(pipeline, 5) << "\n";
  const tydi::sim::ChannelStats* bottleneck = pipeline.bottleneck();
  bool blames_slow_stage =
      bottleneck != nullptr &&
      bottleneck->name.find("b.in_") != std::string::npos;
  std::cout << "bottleneck is the channel into the slow stage: "
            << (blames_slow_stage ? "yes" : "NO") << "\n\n";

  std::cout << "=== E5c: deadlock detection (Sec. V-B) ===\n\n";
  tydi::sim::SimResult dead =
      simulate(std::string(kDeadlockSource), "deadtop", 4, 10.0);
  std::cout << (dead.deadlock ? "deadlock detected" : "NO deadlock found")
            << "\n";
  if (!dead.deadlock_cycle.empty()) {
    std::cout << "wait-for cycle: "
              << tydi::support::join(dead.deadlock_cycle, " -> ") << "\n";
  }
  for (const std::string& line : dead.blocked_report) {
    std::cout << "  " << line << "\n";
  }
  return shape_ok && blames_slow_stage && dead.deadlock ? 0 : 1;
}
