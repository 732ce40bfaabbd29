// Multi-core scaling harness for the sharded simulation engine
// (src/sim/shard/): events/sec at shard counts {1, 2, 4} on
//
//  1. the parallelize channel sweep (32 processing units behind a
//     demux/mux pair — the Sec. IV-B scaling design, wide enough that a
//     partition cuts it into balanced slices), and
//  2. the TPC-H Q19 design (Sec. VI: the largest Table IV query), driven by
//     generic stimuli on every table column input.
//
// Besides the numbers, the harness *gates*: it validates the partition
// invariants for several shard counts and checks that the sharded results
// are byte-identical to the single-queue engine. Any violation makes the
// process exit non-zero, which is what the CI multi-core job keys off.
//
// The credit section (BENCH_sim.json "sim_credit_mode") measures exact vs
// credit-batched acks on a *saturated* pipeline chain — the regime where
// the exact protocol degrades to per-timestamp ack-fixpoint rounds — and
// gates on: credit functionally equivalent to exact, credit events/sec >=
// exact events/sec at 2+ shards in the medians of interleaved runs (the
// JSON records both quartile spreads), and columnar-trace slab allocations
// staying chunked (<= 1 per 1024 traced events).
//
// The fault-injection sweep (BENCH_sim.json "sim_fault_sweep") re-runs the
// saturated chain under seed-derived fault plans — delayed mailbox posts,
// barrier jitter, shard stalls, withheld credit flushes — across seeds ×
// shards {2,4} × {exact,credit} and gates on: exact stays byte-identical
// and credit stays functionally equivalent to the fault-free reference.
// A final negative control withholds every credit ack forever and requires
// the watchdog to convert the hang into SimResult::aborted with non-empty
// per-shard forensics.
//
// The obs section (BENCH_sim.json "sim_obs_overhead") interleaves traced
// and untraced runs of the grid workload and gates the median per-pair
// traced/untraced events/sec ratio at >= 0.95, plus a check that the metrics registry
// mirrors (tydi.sim.runs, tydi.sim.last.events) agree with SimResult.
//
// Sanitizer builds print the credit >= exact gate without enforcing it
// (see kCreditGateEnforced); every other gate holds in every build.
//
// With `--json <path>` the measurements are upserted into the BENCH_sim.json
// trajectory array. `--packets <n>` shrinks the measured run for smoke use;
// `--fault-seeds <n>` sets the sweep width (default 64).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/shard/partition.hpp"
#include "src/sim/trace.hpp"
#include "src/support/text.hpp"
#include "src/tpch/tpch.hpp"

namespace {

/// The credit >= exact gate holds only in an uninstrumented build. Under
/// TSan every event costs ~20x more, which buries the synchronization cost
/// it compares: six runs of TSan builds on a 4-vCPU host read the ratio at
/// 0.97-1.18, both sides of the threshold. A sanitizer build measures one
/// pair per shard count and prints it without gating.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kCreditGateEnforced = false;
#else
constexpr bool kCreditGateEnforced = true;
#endif

/// Interleaved exact/credit pairs per shard count in the credit section.
constexpr int kCreditPairs = kCreditGateEnforced ? 15 : 1;

std::string parallelize_source(int channels) {
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
  std::string needle = "@CH@";
  source.replace(source.find(needle), needle.size(),
                 std::to_string(channels));
  return source;
}

/// 16 independent 8-stage pipelines, one top input/output pair each: the
/// partitioner's best case (BFS keeps chains whole, zero cross-shard
/// channels, the conservative window degenerates to free-running shards).
/// This is the upper bound of the engine's scaling; the cut designs above
/// pay the time-window synchronization.
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

/// A single 48-stage pipeline driven at one packet per ns against a 6 ns
/// stage service time: every channel a partition cuts runs saturated, so
/// the exact protocol pays per-timestamp ack-fixpoint rounds while credit
/// mode keeps full window rounds.
constexpr std::string_view kSaturatedChainSource = R"tydi(
package satchain;
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
  instance pipe(pipeline_i<type t_word, impl slow_stage, 48>),
  feed => pipe.in_,
  pipe.out => drained,
}
)tydi";

tydi::sim::SimOptions generic_options(const tydi::elab::Design& design,
                                      int packets, int shards,
                                      bool record_trace,
                                      double interval_ns = 10.0) {
  tydi::sim::SimOptions options;
  options.max_time_ns = 1.0e9;
  options.record_trace = record_trace;
  options.shards = shards;
  options.stimuli = tydi::sim::generic_stimuli(design, packets, interval_ns);
  return options;
}

struct Measurement {
  int shards = 1;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

struct Workload {
  std::string name;
  tydi::driver::CompileResult compiled;
  int packets = 0;
  std::vector<Measurement> runs;
  bool determinism_ok = true;
  std::string determinism_why;
};

Measurement measure(Workload& workload, int shards,
                    tydi::sim::AckMode ack_mode = tydi::sim::AckMode::kExact,
                    double interval_ns = 10.0) {
  tydi::support::DiagnosticEngine diags;
  tydi::sim::Engine engine(workload.compiled.design, diags);
  tydi::sim::SimOptions options = generic_options(
      workload.compiled.design, workload.packets, shards,
      /*record_trace=*/false, interval_ns);
  options.ack_mode = ack_mode;
  auto start = std::chrono::steady_clock::now();
  tydi::sim::SimResult result = engine.run(options);
  auto stop = std::chrono::steady_clock::now();
  Measurement m;
  m.shards = shards;
  m.events = result.events_processed;
  m.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return m;
}

/// Lower quartile, median and upper quartile of a sample.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  auto at = [&](double q) {  // linear interpolation between ranks
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
  };
  return Quartiles{at(0.25), at(0.5), at(0.75)};
}

/// Exact vs credit events/sec at one shard count on the saturated chain,
/// over `pairs` interleaved exact/credit runs. One wall-clock sample of a
/// few-ms threaded run on a shared host varies by 2x and more, so the gate
/// compares the two medians and the JSON records both quartile spreads.
struct CreditComparison {
  int shards = 1;
  int pairs = 0;
  Quartiles exact;
  Quartiles credit;
  [[nodiscard]] double ratio() const {
    return exact.median > 0.0 ? credit.median / exact.median : 0.0;
  }
};

CreditComparison compare_credit(Workload& workload, int shards, int pairs) {
  std::vector<double> exact, credit;
  for (int r = 0; r < pairs; ++r) {
    exact.push_back(measure(workload, shards, tydi::sim::AckMode::kExact, 1.0)
                        .events_per_sec());
    credit.push_back(
        measure(workload, shards, tydi::sim::AckMode::kCredit, 1.0)
            .events_per_sec());
  }
  return CreditComparison{shards, pairs, quartiles(std::move(exact)),
                          quartiles(std::move(credit))};
}

void check_determinism(Workload& workload, int packets) {
  tydi::support::DiagnosticEngine diags;
  tydi::sim::Engine engine(workload.compiled.design, diags);
  tydi::sim::SimResult reference = engine.run(generic_options(
      workload.compiled.design, packets, 1, /*record_trace=*/true));
  for (int shards : {2, 4}) {
    tydi::sim::SimResult sharded = engine.run(generic_options(
        workload.compiled.design, packets, shards, /*record_trace=*/true));
    std::string why;
    if (!tydi::sim::results_identical(reference, sharded, &why)) {
      workload.determinism_ok = false;
      workload.determinism_why =
          std::to_string(shards) + " shards: " + why;
      return;
    }
  }
}

bool check_partitions(Workload& workload, std::vector<std::string>& errors) {
  tydi::support::DiagnosticEngine diags;
  tydi::sim::SimOptions options =
      generic_options(workload.compiled.design, 1, 1, false);
  for (int shards : {2, 4, 7}) {
    for (bool auto_partition : {true, false}) {
      tydi::sim::SimGraph graph;
      if (!tydi::sim::build_sim_graph(workload.compiled.design, options,
                                      diags, graph)) {
        errors.push_back(workload.name + ": graph build failed");
        return false;
      }
      tydi::sim::shard::PartitionStats stats =
          tydi::sim::shard::partition_graph(graph, shards, auto_partition);
      std::vector<std::string> local;
      if (!tydi::sim::shard::validate_partition(graph, stats, local)) {
        for (const std::string& e : local) {
          errors.push_back(workload.name + " (shards=" +
                           std::to_string(shards) + "): " + e);
        }
      }
    }
  }
  return errors.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int packets = 20000;
  int fault_seeds = 64;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--packets") == 0) {
      packets = std::max(1, std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--fault-seeds") == 0) {
      fault_seeds = std::max(1, std::atoi(argv[i + 1]));
    }
  }

  std::vector<Workload> workloads;
  {
    Workload sweep;
    sweep.name = "parallelize_c32";
    tydi::driver::CompileOptions options;
    options.top = "partest_top";
    options.emit_vhdl = false;
    sweep.compiled =
        tydi::driver::compile_source(parallelize_source(32), options);
    sweep.packets = packets;
    workloads.push_back(std::move(sweep));
  }
  {
    Workload q19;
    q19.name = "tpch_q19";
    const tydi::tpch::QueryCase* query = tydi::tpch::find_query("TPC-H 19");
    if (query == nullptr) {
      std::cerr << "error: TPC-H 19 case missing\n";
      return 1;
    }
    q19.compiled = tydi::tpch::compile_query(*query);
    q19.packets = std::max(1, packets / 10);
    workloads.push_back(std::move(q19));
  }
  {
    Workload grid;
    grid.name = "pipeline_grid_16x8";
    tydi::driver::CompileOptions options;
    options.top = "grid_top";
    options.emit_vhdl = false;
    grid.compiled =
        tydi::driver::compile_source(std::string(kGridSource), options);
    grid.packets = std::max(1, packets / 4);
    workloads.push_back(std::move(grid));
  }
  for (const Workload& w : workloads) {
    if (!w.compiled.success()) {
      std::cerr << w.name << " failed to compile:\n" << w.compiled.report();
      return 1;
    }
  }

  // Correctness gates first: partition invariants + sharded determinism.
  std::vector<std::string> partition_errors;
  bool determinism_ok = true;
  for (Workload& w : workloads) {
    check_partitions(w, partition_errors);
    check_determinism(w, std::max(64, packets / 100));
    determinism_ok = determinism_ok && w.determinism_ok;
  }
  for (const std::string& error : partition_errors) {
    std::cerr << "partition error: " << error << "\n";
  }
  for (const Workload& w : workloads) {
    if (!w.determinism_ok) {
      std::cerr << "determinism violation in " << w.name << ": "
                << w.determinism_why << "\n";
    }
  }

  // Scaling measurement (warm-up pass at 1 shard, then the recorded runs).
  for (Workload& w : workloads) {
    Workload warm;
    warm.name = w.name;
    warm.compiled = std::move(w.compiled);
    warm.packets = std::max(1, w.packets / 10);
    (void)measure(warm, 1);
    w.compiled = std::move(warm.compiled);
    for (int shards : {1, 2, 4}) {
      w.runs.push_back(measure(w, shards));
    }
  }

  // --- Credit-mode section: saturated chain, exact vs batched acks -------
  Workload chain;
  chain.name = "saturated_chain_48";
  {
    tydi::driver::CompileOptions chain_options;
    chain_options.top = "sat_top";
    chain_options.emit_vhdl = false;
    chain.compiled = tydi::driver::compile_source(
        std::string(kSaturatedChainSource), chain_options);
    if (!chain.compiled.success()) {
      std::cerr << "saturated_chain_48 failed to compile:\n"
                << chain.compiled.report();
      return 1;
    }
    chain.packets = std::max(1, packets / 4);
  }

  // Functional-equivalence gate (exact@1 reference vs credit at 2/4
  // shards) + the columnar-trace allocation gauge on the same runs.
  bool credit_equivalent = true;
  std::string credit_why;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_slab_allocs = 0;
  {
    int check_packets = std::max(64, chain.packets / 10);
    tydi::support::DiagnosticEngine diags;
    tydi::sim::Engine engine(chain.compiled.design, diags);
    tydi::sim::SimOptions reference_options =
        generic_options(chain.compiled.design, check_packets, 1,
                        /*record_trace=*/true, /*interval_ns=*/1.0);
    std::uint64_t slabs_before = tydi::sim::TraceBuffer::slabs_allocated();
    tydi::sim::SimResult reference = engine.run(reference_options);
    for (int shards : {2, 4}) {
      tydi::sim::SimOptions credit_options =
          generic_options(chain.compiled.design, check_packets, shards,
                          /*record_trace=*/true, /*interval_ns=*/1.0);
      credit_options.ack_mode = tydi::sim::AckMode::kCredit;
      tydi::sim::SimResult credit = engine.run(credit_options);
      trace_events += credit.trace.size();
      std::string why;
      if (!tydi::sim::results_functionally_equivalent(reference, credit,
                                                      &why)) {
        credit_equivalent = false;
        credit_why = std::to_string(shards) + " shards: " + why;
        break;
      }
    }
    trace_events += reference.trace.size();
    trace_slab_allocs =
        tydi::sim::TraceBuffer::slabs_allocated() - slabs_before;
  }
  // Columnar slabs hold 4096 events; even counting per-shard buffers plus
  // the merge copy, one allocation per 1024 traced events is generous.
  bool trace_allocs_ok =
      trace_slab_allocs <= std::max<std::uint64_t>(16, trace_events / 1024);

  std::vector<CreditComparison> credit_runs;
  {
    (void)compare_credit(chain, 1, 1);  // warm-up
    for (int shards : {1, 2, 4}) {
      credit_runs.push_back(compare_credit(chain, shards, kCreditPairs));
    }
  }
  // The gate: batched acks must never lose to per-timestamp fixpoint
  // rounds once something is actually cut (2+ shards), median to median.
  bool credit_fast = true;
  for (const CreditComparison& cmp : credit_runs) {
    if (cmp.shards >= 2 && cmp.ratio() < 1.0) credit_fast = false;
  }

  // --- Fault-injection sweep: the guard-rail gates ----------------------
  // Seed-derived fault plans perturb thread timing (and, in credit mode,
  // defer ack flushes); the protocols must not notice. Exact mode gates on
  // byte-identity with the fault-free single-shard reference, credit mode
  // on functional equivalence.
  bool fault_sweep_ok = true;
  std::string fault_why;
  int fault_runs = 0;
  {
    int sweep_packets = std::max(24, packets / 500);
    tydi::support::DiagnosticEngine diags;
    tydi::sim::Engine engine(chain.compiled.design, diags);
    tydi::sim::SimResult reference = engine.run(generic_options(
        chain.compiled.design, sweep_packets, 1, /*record_trace=*/true,
        /*interval_ns=*/1.0));
    for (int seed = 1; seed <= fault_seeds && fault_sweep_ok; ++seed) {
      for (int shards : {2, 4}) {
        for (tydi::sim::AckMode mode :
             {tydi::sim::AckMode::kExact, tydi::sim::AckMode::kCredit}) {
          tydi::sim::SimOptions options = generic_options(
              chain.compiled.design, sweep_packets, shards,
              /*record_trace=*/true, /*interval_ns=*/1.0);
          options.ack_mode = mode;
          options.fault = tydi::sim::FaultPlan::from_seed(
              static_cast<std::uint64_t>(seed));
          options.fault.delay_spin_iters = 200;  // keep the sweep cheap
          tydi::sim::SimResult faulted = engine.run(options);
          ++fault_runs;
          std::string why;
          bool ok =
              mode == tydi::sim::AckMode::kExact
                  ? tydi::sim::results_identical(reference, faulted, &why)
                  : tydi::sim::results_functionally_equivalent(reference,
                                                               faulted, &why);
          if (!ok) {
            fault_sweep_ok = false;
            fault_why = "seed " + std::to_string(seed) + " shards " +
                        std::to_string(shards) + " mode " +
                        (mode == tydi::sim::AckMode::kExact ? "exact"
                                                            : "credit") +
                        ": " + why;
            break;
          }
        }
        if (!fault_sweep_ok) break;
      }
    }
  }

  // Negative control: withhold every credit ack forever — a deliberate
  // livelock. The watchdog must convert it into an abort with forensics,
  // not a hang.
  bool watchdog_ok = true;
  std::string watchdog_why;
  {
    tydi::support::DiagnosticEngine diags;
    tydi::sim::Engine engine(chain.compiled.design, diags);
    tydi::sim::SimOptions options = generic_options(
        chain.compiled.design, 64, 2, /*record_trace=*/false,
        /*interval_ns=*/1.0);
    options.ack_mode = tydi::sim::AckMode::kCredit;
    options.fault.seed = 1;
    options.fault.withhold_acks_forever = true;
    options.watchdog_timeout_ms = 200.0;
    tydi::sim::SimResult hung = engine.run(options);
    if (!hung.aborted) {
      watchdog_ok = false;
      watchdog_why = "withheld-ack run finished instead of aborting";
    } else if (hung.abort_reason.empty()) {
      watchdog_ok = false;
      watchdog_why = "aborted without an abort_reason";
    } else if (hung.shard_forensics.empty()) {
      watchdog_ok = false;
      watchdog_why = "aborted without per-shard forensics";
    }
  }

  // --- Observability overhead: span tracing on vs off -------------------
  // The sim publishes metrics once per run and times barrier waits with
  // two clock reads per wait regardless; the only per-run delta a user can
  // toggle is span emission. A pair is kObsRunsPerSide traced and as many
  // untraced runs of the grid workload, interleaved (the side that starts
  // alternates per pair), each side scored by its best events/sec:
  // interference only ever slows a run down. The gate takes the median of
  // kObsPairs per-pair traced/untraced ratios, >= 0.95, and the JSON
  // records its quartiles and both rates' quartiles (a single min-of-3
  // comparison flipped on unchanged code). The same pass checks the
  // registry mirrors: tydi.sim.runs must advance per run and the
  // tydi.sim.last.events gauge must equal the run's event count.
  bool obs_overhead_ok = true;
  bool obs_registry_ok = true;
  Quartiles obs_traced;
  Quartiles obs_untraced;
  Quartiles obs_ratio;  ///< per-pair traced/untraced
  constexpr double kMinObsRatio = 0.95;
  constexpr int kObsPairs = 15;
  constexpr int kObsRunsPerSide = 3;
  {
    tydi::obs::SpanTracer& tracer = tydi::obs::SpanTracer::global();
    auto& reg = tydi::obs::MetricsRegistry::global();
    Workload& grid = workloads.back();  // pipeline_grid_16x8

    const std::uint64_t runs_before = reg.counter("tydi.sim.runs").value();
    Measurement probe = measure(grid, 2);
    obs_registry_ok =
        reg.counter("tydi.sim.runs").value() == runs_before + 1 &&
        reg.gauge("tydi.sim.last.events").value() ==
            static_cast<double>(probe.events);

    std::vector<double> traced_eps;
    std::vector<double> untraced_eps;
    std::vector<double> ratios;
    for (int pair = 0; pair < kObsPairs; ++pair) {
      double eps[2] = {0.0, 0.0};  // best untraced, best traced
      for (int k = 0; k < 2 * kObsRunsPerSide; ++k) {
        const bool traced = (k % 2 == 0) == (pair % 2 == 0);
        tracer.clear();
        tracer.set_enabled(traced);
        double& best = eps[traced ? 1 : 0];
        best = std::max(best, measure(grid, 2).events_per_sec());
      }
      untraced_eps.push_back(eps[0]);
      traced_eps.push_back(eps[1]);
      ratios.push_back(eps[0] > 0.0 ? eps[1] / eps[0] : 0.0);
    }
    tracer.set_enabled(false);
    tracer.clear();
    obs_traced = quartiles(std::move(traced_eps));
    obs_untraced = quartiles(std::move(untraced_eps));
    obs_ratio = quartiles(std::move(ratios));
    obs_overhead_ok = obs_ratio.median >= kMinObsRatio;
  }

  unsigned cores = std::thread::hardware_concurrency();
  tydi::support::TextTable table;
  table.header({"workload", "shards", "events", "wall s", "events/s",
                "speedup vs 1"});
  for (const Workload& w : workloads) {
    double base = w.runs.front().events_per_sec();
    for (const Measurement& m : w.runs) {
      table.row({w.name, std::to_string(m.shards), std::to_string(m.events),
                 tydi::support::format_fixed(m.wall_seconds, 4),
                 tydi::support::format_fixed(m.events_per_sec(), 0),
                 tydi::support::format_fixed(
                     base > 0.0 ? m.events_per_sec() / base : 0.0, 2)});
    }
  }
  tydi::support::TextTable credit_table;
  credit_table.header({"shards", "exact ev/s (q1-q3)", "credit ev/s (q1-q3)",
                       "ratio"});
  auto spread = [](const Quartiles& q) {
    return tydi::support::format_fixed(q.median, 0) + " (" +
           tydi::support::format_fixed(q.q1, 0) + "-" +
           tydi::support::format_fixed(q.q3, 0) + ")";
  };
  for (const CreditComparison& cmp : credit_runs) {
    credit_table.row({std::to_string(cmp.shards), spread(cmp.exact),
                      spread(cmp.credit),
                      tydi::support::format_fixed(cmp.ratio(), 2)});
  }
  std::cout << "sharded simulation scaling (" << cores
            << " hardware thread(s))\n\n"
            << table.render() << "\n"
            << "credit vs exact ack protocol (saturated_chain_48, median of "
            << kCreditPairs << " interleaved pair(s))\n\n"
            << credit_table.render() << "\n"
            << "partition invariants: "
            << (partition_errors.empty() ? "ok" : "VIOLATED") << "\n"
            << "determinism (1 vs {2,4} shards): "
            << (determinism_ok ? "ok" : "VIOLATED") << "\n"
            << "credit functional equivalence: "
            << (credit_equivalent ? "ok" : "VIOLATED " + credit_why) << "\n"
            << "credit >= exact at 2+ shards: "
            << (credit_fast ? "ok" : "VIOLATED")
            << (kCreditGateEnforced ? "" : " (not gated in a sanitizer build)")
            << "\n"
            << "trace slab allocs: " << trace_slab_allocs << " for "
            << trace_events << " traced event(s) "
            << (trace_allocs_ok ? "(ok)" : "(VIOLATED)") << "\n"
            << "fault sweep (" << fault_runs << " faulted run(s), "
            << fault_seeds << " seed(s) x shards {2,4} x {exact,credit}): "
            << (fault_sweep_ok ? "ok" : "VIOLATED " + fault_why) << "\n"
            << "watchdog converts withheld-ack hang into abort: "
            << (watchdog_ok ? "ok" : "VIOLATED " + watchdog_why) << "\n"
            << "obs overhead (traced/untraced median events/s on grid, "
            << kObsPairs << " interleaved pair(s)): "
            << tydi::support::format_fixed(obs_ratio.median, 3) << " ("
            << tydi::support::format_fixed(obs_ratio.q1, 3) << "-"
            << tydi::support::format_fixed(obs_ratio.q3, 3) << "); traced "
            << spread(obs_traced) << ", untraced " << spread(obs_untraced)
            << (obs_overhead_ok ? " (ok)" : " (VIOLATED)") << "\n"
            << "obs registry mirrors sim results: "
            << (obs_registry_ok ? "ok" : "VIOLATED") << "\n";

  if (json_path != nullptr) {
    std::ostringstream out;
    out << "  {\n"
        << "    \"benchmark\": \"sim_parallel_shards\",\n"
        << "    \"hardware_concurrency\": " << cores << ",\n"
        << "    \"partition_ok\": "
        << (partition_errors.empty() ? "true" : "false") << ",\n"
        << "    \"determinism_ok\": " << (determinism_ok ? "true" : "false")
        << ",\n"
        << "    \"workloads\": [\n";
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const Workload& w = workloads[i];
      double base = w.runs.front().events_per_sec();
      double at4 = w.runs.back().events_per_sec();
      out << "      {\n"
          << "        \"name\": \"" << w.name << "\",\n"
          << "        \"packets\": " << w.packets << ",\n"
          << "        \"runs\": [";
      for (std::size_t r = 0; r < w.runs.size(); ++r) {
        const Measurement& m = w.runs[r];
        out << (r == 0 ? "" : ", ") << "{\"shards\": " << m.shards
            << ", \"events\": " << m.events
            << ", \"wall_seconds\": " << m.wall_seconds
            << ", \"events_per_sec\": " << m.events_per_sec() << "}";
      }
      out << "],\n"
          << "        \"speedup_4_shards\": "
          << (base > 0.0 ? at4 / base : 0.0) << "\n"
          << "      }" << (i + 1 < workloads.size() ? "," : "") << "\n";
    }
    out << "    ]\n"
        << "  }";
    if (!benchjson::upsert_section(json_path, "\"sim_parallel_shards\"",
                                   out.str())) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    std::ostringstream credit_out;
    credit_out << "  {\n"
               << "    \"benchmark\": \"sim_credit_mode\",\n"
               << "    \"workload\": \"" << chain.name << "\",\n"
               << "    \"packets\": " << chain.packets << ",\n"
               << "    \"hardware_concurrency\": " << cores << ",\n"
               << "    \"functional_equivalence_ok\": "
               << (credit_equivalent ? "true" : "false") << ",\n"
               << "    \"credit_not_slower_ok\": "
               << (credit_fast ? "true" : "false") << ",\n"
               << "    \"timing_gated\": " << (kCreditGateEnforced ? "true" : "false")
               << ",\n"
               << "    \"trace_events\": " << trace_events << ",\n"
               << "    \"trace_slab_allocs\": " << trace_slab_allocs << ",\n"
               << "    \"trace_allocs_ok\": "
               << (trace_allocs_ok ? "true" : "false") << ",\n"
               << "    \"runs\": [";
    for (std::size_t i = 0; i < credit_runs.size(); ++i) {
      const CreditComparison& cmp = credit_runs[i];
      auto quartile_json = [&](const char* name, const Quartiles& q) {
        credit_out << ", \"" << name << "_events_per_sec\": " << q.median
                   << ", \"" << name << "_q1\": " << q.q1 << ", \"" << name
                   << "_q3\": " << q.q3;
      };
      credit_out << (i == 0 ? "" : ", ") << "{\"shards\": " << cmp.shards
                 << ", \"pairs\": " << cmp.pairs;
      quartile_json("exact", cmp.exact);
      quartile_json("credit", cmp.credit);
      credit_out << ", \"ratio\": " << cmp.ratio() << "}";
    }
    credit_out << "]\n"
               << "  }";
    if (!benchjson::upsert_section(json_path, "\"sim_credit_mode\"",
                                   credit_out.str())) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    std::ostringstream fault_out;
    fault_out << "  {\n"
              << "    \"benchmark\": \"sim_fault_sweep\",\n"
              << "    \"workload\": \"" << chain.name << "\",\n"
              << "    \"seeds\": " << fault_seeds << ",\n"
              << "    \"faulted_runs\": " << fault_runs << ",\n"
              << "    \"sweep_ok\": " << (fault_sweep_ok ? "true" : "false")
              << ",\n"
              << "    \"watchdog_abort_ok\": "
              << (watchdog_ok ? "true" : "false") << "\n"
              << "  }";
    if (!benchjson::upsert_section(json_path, "\"sim_fault_sweep\"",
                                   fault_out.str())) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    std::ostringstream obs_out;
    obs_out << "  {\n"
            << "    \"benchmark\": \"sim_obs_overhead\",\n"
            << "    \"workload\": \"pipeline_grid_16x8\",\n"
            << "    \"pairs\": " << kObsPairs << ",\n"
            << "    \"untraced_events_per_sec\": " << obs_untraced.median
            << ",\n"
            << "    \"untraced_q1\": " << obs_untraced.q1 << ",\n"
            << "    \"untraced_q3\": " << obs_untraced.q3 << ",\n"
            << "    \"traced_events_per_sec\": " << obs_traced.median
            << ",\n"
            << "    \"traced_q1\": " << obs_traced.q1 << ",\n"
            << "    \"traced_q3\": " << obs_traced.q3 << ",\n"
            << "    \"ratio\": " << obs_ratio.median << ",\n"
            << "    \"ratio_q1\": " << obs_ratio.q1 << ",\n"
            << "    \"ratio_q3\": " << obs_ratio.q3 << ",\n"
            << "    \"min_ratio\": " << kMinObsRatio << ",\n"
            << "    \"overhead_ok\": "
            << (obs_overhead_ok ? "true" : "false") << ",\n"
            << "    \"registry_ok\": "
            << (obs_registry_ok ? "true" : "false") << "\n"
            << "  }";
    if (!benchjson::upsert_section(json_path, "\"sim_obs_overhead\"",
                                   obs_out.str())) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "JSON sections updated in " << json_path << "\n";
  }

  return partition_errors.empty() && determinism_ok && credit_equivalent &&
                 (credit_fast || !kCreditGateEnforced) && trace_allocs_ok &&
                 fault_sweep_ok && watchdog_ok && obs_overhead_ok &&
                 obs_registry_ok
             ? 0
             : 1;
}
