// The sim workload: full simulations of the Sec. IV-B `parallelize_i`
// design with 32 `pu_adder` units (two state writes per packet), run
// in-process through sim::Engine with generic stimuli and trace recording
// off, as `tydic --sim` runs them. One lane per shard count
// (sim_parallelize.shards1 / .shards2); the design compiles once per
// set-up, so this workload bypasses the compiler.
//
// Every run is checked: status kOk, not truncated by max_time_ns, every
// stimulus packet reaches the top output, and the result is identical to
// the single-shard reference (which itself is checked against a two-shard
// run during set-up).
#include <pthread.h>
#include <sched.h>

#include <sstream>

#include "bench.hpp"
#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/shard/partition.hpp"
#include "src/sim/shard/runtime.hpp"

namespace perfbench {
namespace {

constexpr int kChannels = 32;
constexpr int kPackets = 5000;
constexpr double kIntervalNs = 10.0;

/// The bench_sim_parallel `parallelize_c32` design.
std::string parallelize_source() {
  std::string source = R"tydi(
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
  instance par(parallelize_i<type t_data, type t_data, impl pu_adder, @CH@>),
  feed => par.in_,
  par.out => result,
}
)tydi";
  const std::string needle = "@CH@";
  source.replace(source.find(needle), needle.size(),
                 std::to_string(kChannels));
  return source;
}

tydi::driver::CompileResult compile_design() {
  tydi::driver::CompileOptions options;
  options.top = "partest_top";
  options.emit_vhdl = false;
  return tydi::driver::compile_source(parallelize_source(), options);
}

/// Generic stimuli (one packet per 10 ns on every top input) carrying
/// seeded payload values. max_time_ns follows the stimulus span, so a long
/// run is never cut short by the 1e6 ns default and read as fast.
tydi::sim::SimOptions sim_options(const tydi::elab::Design& design,
                                  std::uint64_t seed, int shards) {
  tydi::sim::SimOptions options;
  options.record_trace = false;
  options.shards = shards;
  options.stimuli = tydi::sim::generic_stimuli(design, kPackets, kIntervalNs);
  Rng rng(mix_seed(seed, 300));
  double span_ns = 0.0;
  for (tydi::sim::Stimulus& stim : options.stimuli) {
    for (auto& [time_ns, packet] : stim.packets) {
      packet.value = static_cast<std::int64_t>(rng.below(1u << 30));
      span_ns = std::max(span_ns, time_ns);
    }
  }
  options.max_time_ns = 4.0 * span_ns + 1.0e6;
  return options;
}

std::size_t output_packets(const tydi::sim::SimResult& r) {
  std::size_t n = 0;
  for (const auto& [port, packets] : r.top_outputs) n += packets.size();
  return n;
}

/// Checks one run against the reference; returns "" when it holds.
std::string check_run(const tydi::sim::SimResult& r,
                      const tydi::sim::SimResult& reference,
                      const tydi::sim::SimOptions& options) {
  if (!r.status().is_ok()) return "status " + r.status().render();
  if (r.end_time_ns >= options.max_time_ns) return "truncated at max_time_ns";
  if (output_packets(r) != static_cast<std::size_t>(kPackets)) {
    return std::to_string(output_packets(r)) + " output packets, expected " +
           std::to_string(kPackets);
  }
  if (r.events_processed != reference.events_processed) {
    return "event count " + std::to_string(r.events_processed) +
           " differs from " + std::to_string(reference.events_processed);
  }
  std::string why;
  if (!tydi::sim::results_identical(reference, r, &why)) {
    return "differs from the single-shard reference: " + why;
  }
  return "";
}

/// The CPUs this process may use.
std::vector<int> usable_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus` (all of them when empty).
void run_on(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

/// Per-layer timings of one traced run.
struct LayerSample {
  double build_ms = 0.0;
  double partition_ms = 0.0;
  double run_ms = 0.0;
  double rounds = 0.0;
  double barrier_wait_ms = 0.0;
};

/// Engine::run split into its three calls, each under a benchmark span.
tydi::sim::SimResult traced_run(const tydi::elab::Design& design,
                                const tydi::sim::SimOptions& options,
                                LayerSample& sample) {
  auto& reg = tydi::obs::MetricsRegistry::global();
  const double rounds0 = reg.counter("tydi.sim.rounds").value();
  const double wait0 = reg.histogram("tydi.sim.barrier_wait_us").sum();
  tydi::support::DiagnosticEngine diags;
  tydi::sim::SimGraph graph;
  Clock::time_point t0 = Clock::now();
  {
    tydi::obs::Span span("bench.build_sim_graph");
    if (!tydi::sim::build_sim_graph(design, options, diags, graph)) {
      return tydi::sim::SimResult{};
    }
  }
  Clock::time_point t1 = Clock::now();
  {
    tydi::obs::Span span("bench.partition_graph");
    (void)tydi::sim::shard::partition_graph(graph, options.shards,
                                            options.auto_partition);
  }
  Clock::time_point t2 = Clock::now();
  tydi::sim::SimResult result;
  {
    tydi::obs::Span span("bench.run_sharded");
    result = tydi::sim::shard::run_sharded(graph, options, diags);
  }
  Clock::time_point t3 = Clock::now();
  sample.build_ms = ms_between(t0, t1);
  sample.partition_ms = ms_between(t1, t2);
  sample.run_ms = ms_between(t2, t3);
  sample.rounds = reg.counter("tydi.sim.rounds").value() - rounds0;
  sample.barrier_wait_ms =
      (reg.histogram("tydi.sim.barrier_wait_us").sum() - wait0) / 1000.0;
  return result;
}

}  // namespace

Outcome run_sim(const Args& args, int shards) {
  Outcome outcome;
  tydi::obs::SpanTracer& tracer = tydi::obs::SpanTracer::global();
  tracer.set_enabled(args.trace);

  // Set-up: compile the design and run it once at the lane's shard count
  // (the warm-up run). The first set-up precedes the timed phase; the other
  // kSetups - 1 are spread evenly over it, so setup_s samples the host over
  // the same seconds as the runs instead of one moment before them.
  SetupClock setups;
  int setups_done = 0;
  auto set_up = [&](tydi::driver::CompileResult& out) {
    tydi::obs::Span span("bench.setup");
    ++setups_done;
    const double cpu0 = process_cpu_ms();
    setups.start();
    out = compile_design();
    if (!out.success()) return false;
    tydi::support::DiagnosticEngine diags;
    tydi::sim::Engine engine(out.design, diags);
    (void)engine.run(sim_options(out.design, args.seed, shards));
    setups.stop();
    setups.add_cpu_ms(process_cpu_ms() - cpu0);
    return true;
  };
  tydi::driver::CompileResult compiled;
  if (!set_up(compiled)) {
    outcome.note("parallelize design failed to compile:\n" +
                 compiled.report());
    return outcome;
  }
  const tydi::elab::Design& design = compiled.design;
  const tydi::sim::SimOptions options = sim_options(design, args.seed, shards);

  // The single-shard reference, checked against a two-shard run.
  tydi::sim::SimResult reference;
  {
    tydi::obs::Span span("bench.reference");
    tydi::support::DiagnosticEngine diags;
    tydi::sim::Engine engine(design, diags);
    reference = engine.run(sim_options(design, args.seed, 1));
    const tydi::sim::SimResult two =
        engine.run(sim_options(design, args.seed, 2));
    std::string why;
    if (!tydi::sim::results_identical(reference, two, &why)) {
      outcome.fail_check("results_identical(shards1, shards2) fails: " + why);
    }
    const std::string ref_problem = check_run(reference, reference, options);
    if (!ref_problem.empty()) outcome.fail_check("reference: " + ref_problem);
  }

  // Timed phase: back-to-back full runs until their summed host time
  // reaches args.seconds. In traced mode runs alternate traced/untraced.
  //
  // The single-shard lane moves to the next CPU for every run. The host's
  // vCPUs differ in speed by up to 1.6x, and which ones are slow changes
  // every few seconds; left alone, the scheduler keeps the thread on one
  // vCPU for seconds at a time, and a run read that vCPU's speed. The
  // two-shard lane keeps both of its threads free to move.
  const std::vector<int> cpus = usable_cpus();
  std::vector<std::vector<double>> per_cpu_ms(cpus.size());
  std::vector<OpSample> samples;
  std::vector<LayerSample> layers;
  double measured_ms = 0.0;
  const double window_ms = args.seconds * 1000.0 / kWindows;
  std::vector<HostCpu> boundaries{host_cpu()};
  while (measured_ms < args.seconds * 1000.0) {
    // A traced run and the untraced one after it share a CPU, so
    // obs.trace_overhead does not compare two vCPUs' speeds.
    const std::size_t turn = args.trace ? samples.size() / 2 : samples.size();
    const std::size_t slot = cpus.empty() ? 0 : turn % cpus.size();
    if (shards == 1 && !cpus.empty()) run_on({cpus[slot]});
    const bool trace_this = args.trace && samples.size() % 2 == 0;
    tracer.set_enabled(trace_this);
    tydi::sim::SimResult r;
    double ms = 0.0;
    double cpu_ms = -1.0;
    if (trace_this) {
      tydi::obs::Span span("bench.sim_op");
      LayerSample sample;
      const Clock::time_point start = Clock::now();
      r = traced_run(design, options, sample);
      ms = ms_between(start, Clock::now());
      layers.push_back(sample);
    } else {
      tydi::support::DiagnosticEngine diags;
      tydi::sim::Engine engine(design, diags);
      const double cpu0 = process_cpu_ms();
      const Clock::time_point start = Clock::now();
      r = engine.run(options);
      ms = ms_between(start, Clock::now());
      cpu_ms = process_cpu_ms() - cpu0;
    }
    tracer.set_enabled(args.trace);
    measured_ms += ms;
    if (!cpus.empty()) per_cpu_ms[slot].push_back(ms);
    samples.push_back(OpSample{measured_ms / 1000.0, ms, trace_this, cpu_ms});
    while (boundaries.size() <= kWindows &&
           measured_ms >= window_ms * boundaries.size()) {
      boundaries.push_back(host_cpu());
    }
    while (setups_done < kSetups &&
           measured_ms >= args.seconds * 1000.0 * setups_done / kSetups) {
      tydi::driver::CompileResult again;
      if (!set_up(again)) outcome.fail_check("a later set-up failed");
    }
    ++outcome.attempted;
    const std::string problem = check_run(r, reference, options);
    if (!problem.empty()) {
      ++outcome.failed;
      outcome.fail_check(problem);
    }
  }

  run_on(cpus);
  const double events = static_cast<double>(reference.events_processed);
  const PhaseStats phase = phase_stats(samples, args.seconds, boundaries);
  outcome.note(phase.note);
  outcome.note(setups.note());
  const double rss_mb = peak_rss_mb();
  std::vector<double> run_ms;
  for (const OpSample& op : samples) run_ms.push_back(op.ms);
  std::ostringstream deciles;
  for (int d = 1; d <= 9; ++d) deciles << " " << quantile(run_ms, d / 10.0);
  outcome.note("run_ms deciles" + deciles.str());
  if (shards == 1) {
    std::ostringstream by_cpu;
    by_cpu << "run_ms median by CPU:";
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      by_cpu << " cpu" << cpus[i] << "=" << median(per_cpu_ms[i]);
    }
    outcome.note(by_cpu.str());
  }
  std::ostringstream line;
  line << "packets " << kPackets << "  pu units " << kChannels << "  shards "
       << shards << "  runs " << samples.size() << "  events/run "
       << reference.events_processed << "  state transitions/run "
       << reference.state_transitions.size() << "\n"
       << "stimulus span_ns " << (kPackets - 1) * kIntervalNs
       << "  end_time_ns " << reference.end_time_ns << "  max_time_ns "
       << options.max_time_ns << "\n"
       << "sim_events_per_s.shards" << shards << " "
       << events * phase.ops_per_s << "  run_p50_ms " << phase.p50_ms
       << "  run_p99_ms " << phase.p99_ms << "  cpu_ms/run "
       << phase.cpu_ms_per_op << "\npeak_rss_mb " << rss_mb << "  failed_share "
       << static_cast<double>(outcome.failed) / outcome.attempted;
  outcome.note(line.str());

  if (!args.trace) {
    outcome.set("setup_s", setups.cpu_median_s());
    outcome.set("cpu_ms_per_op", phase.cpu_ms_per_op);
    outcome.set("peak_rss_mb", rss_mb);
    return outcome;
  }
  std::vector<double> build, partition, run, rounds, wait, share;
  for (const LayerSample& s : layers) {
    build.push_back(s.build_ms);
    partition.push_back(s.partition_ms);
    run.push_back(s.run_ms);
    rounds.push_back(s.rounds);
    wait.push_back(s.barrier_wait_ms);
    share.push_back(s.run_ms > 0.0 ? s.barrier_wait_ms / (shards * s.run_ms)
                                   : 0.0);
  }
  outcome.set("sim.graph_build_ms", median(build));
  outcome.set("shard.partition_ms", median(partition));
  outcome.set("sim.run_ms", median(run));
  outcome.set("sim.events", events);
  outcome.set("sim.state_transitions",
              static_cast<double>(reference.state_transitions.size()));
  outcome.set("shard.rounds", median(rounds));
  outcome.set("shard.barrier_wait_ms", median(wait));
  outcome.set("shard.barrier_share", median(share));
  outcome.set("client.p50_ms", untraced_p50_ms(samples));
  outcome.set("client.p99_ms", phase.p99_ms);
  outcome.set("client.ops_per_s", phase.ops_per_s);
  outcome.set("obs.trace_overhead", trace_overhead(samples));
  return outcome;
}

}  // namespace perfbench
