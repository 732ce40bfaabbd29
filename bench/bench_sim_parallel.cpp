// Multi-core scaling harness for the sharded simulation engine
// (src/sim/shard/). It measures, and gates where a threshold is named:
//
//  1. Scaling (BENCH_sim.json "sim_parallel_shards"): wall ms per run and
//     events/sec at shard counts {1, 2, 4} on the parallelize channel sweep
//     (32 processing units behind a demux/mux pair, the Sec. IV-B scaling
//     design), the TPC-H Q19 design (Sec. VI, generic stimuli on every
//     table column input) and a grid of 16 independent 8-stage pipelines.
//     Each row is the median (with q1 and q3) of kScalingRounds rounds, the
//     rounds of a workload's three shard counts interleaved.
//  2. Credit vs exact acks ("sim_credit_mode"): a bench/harness.hpp pair
//     sample per shard count {1, 2, 4} on saturated_chain_48 (the regime
//     where the exact protocol degrades to per-timestamp ack-fixpoint
//     rounds) and on parallelize_c32. The 1-shard row is an A/A control:
//     there credit mode is the exact engine. Gate: exact ms / credit ms
//     >= 1 at 2 and 4 shards on saturated_chain_48.
//  3. Fault sweep ("sim_fault_sweep"): saturated_chain_48 under
//     seed-derived fault plans (delayed mailbox posts, barrier jitter,
//     shard stalls, withheld credit flushes) across seeds x shards {2, 4}
//     x {exact, credit}. Gates: exact stays byte-identical and credit
//     functionally equivalent to the fault-free single-shard reference.
//  4. Obs overhead ("sim_obs_overhead"): a pair sample of untraced against
//     traced runs of the grid at 2 shards. Gate: untraced ms / traced ms
//     (traced over untraced events/sec) >= 0.95.
//
// The correctness checks this bench used to run next to these (partition
// invariants, 1-vs-K byte-identity, credit equivalence, the trace-slab
// bound, the watchdog control and the registry mirrors) are tier-1 tests
// in tests/test_sim_shard.cpp, test_sim_credit.cpp and test_sim_fault.cpp.
// A sanitizer build runs every sample once and does not enforce the timing
// gates (harness::kTimingGatesEnforced). Exit 0 means every gate held.
//
// With `--json <path>` the sections are upserted into the BENCH_sim.json
// trajectory array. `--packets <n>` shrinks the measured runs for smoke
// use; `--fault-seeds <n>` sets the sweep width (default 64).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "src/driver/compiler.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/metrics.hpp"
#include "src/support/text.hpp"
#include "src/tpch/tpch.hpp"

namespace {

/// Traced over untraced events/sec on the grid.
constexpr double kMinObsRatio = 0.95;
/// Credit over exact events/sec at 2+ shards on saturated_chain_48.
constexpr double kMinCreditRatio = 1.0;
/// Rounds (each harness::round_ms, >= kMinRoundMs) per scaling row: one
/// round let a single busy moment of the host set a row.
constexpr int kScalingRounds = harness::kTimingGatesEnforced ? 5 : 1;

/// 16 independent 8-stage pipelines, one top input/output pair each: the
/// partitioner's best case (BFS keeps chains whole, zero cross-shard
/// channels, the conservative window degenerates to free-running shards).
/// This is the upper bound of the engine's scaling; the cut designs pay
/// the time-window synchronization.
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

struct Workload {
  std::string name;
  tydi::driver::CompileResult compiled;
  int packets = 0;
  double interval_ns = 10.0;  ///< between generic stimulus packets
};

Workload compile_workload(std::string name, std::string source,
                          const char* top, int packets,
                          double interval_ns = 10.0) {
  tydi::driver::CompileOptions options;
  options.top = top;
  options.emit_vhdl = false;
  return Workload{std::move(name),
                  tydi::driver::compile_source(std::move(source), options),
                  packets, interval_ns};
}

tydi::sim::SimOptions generic_options(const Workload& w, int packets,
                                      int shards, bool record_trace) {
  tydi::sim::SimOptions options;
  options.max_time_ns = 1.0e9;
  options.record_trace = record_trace;
  options.shards = shards;
  options.stimuli =
      tydi::sim::generic_stimuli(w.compiled.design, packets, w.interval_ns);
  return options;
}

/// One untraced run of `w`; returns its event count.
std::uint64_t run(const Workload& w, int shards,
                  tydi::sim::AckMode ack_mode = tydi::sim::AckMode::kExact) {
  tydi::support::DiagnosticEngine diags;
  tydi::sim::Engine engine(w.compiled.design, diags);
  tydi::sim::SimOptions options = generic_options(w, w.packets, shards, false);
  options.ack_mode = ack_mode;
  return engine.run(options).events_processed;
}

struct ScalingRun {
  int shards = 1;
  std::uint64_t events = 0;
  harness::Quartiles wall_ms;  ///< per run, over kScalingRounds rounds
  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(events) / (wall_ms.median / 1000.0);
  }
};

struct CreditRow {
  const Workload* workload = nullptr;
  int shards = 1;
  std::uint64_t exact_events = 0;
  std::uint64_t credit_events = 0;
  harness::PairSample sample;  ///< A = exact, B = credit
};

std::string spread(const harness::Quartiles& q, int digits) {
  return tydi::support::format_fixed(q.median, digits) + " (" +
         tydi::support::format_fixed(q.q1, digits) + "-" +
         tydi::support::format_fixed(q.q3, digits) + ")";
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
  workloads.push_back(compile_workload("parallelize_c32",
                                       harness::parallelize_source(32),
                                       "partest_top", packets));
  {
    const tydi::tpch::QueryCase* query = tydi::tpch::find_query("TPC-H 19");
    if (query == nullptr) {
      std::cerr << "error: TPC-H 19 case missing\n";
      return 1;
    }
    workloads.push_back(Workload{"tpch_q19", tydi::tpch::compile_query(*query),
                                 std::max(1, packets / 10)});
  }
  workloads.push_back(compile_workload("pipeline_grid_16x8",
                                       std::string(kGridSource), "grid_top",
                                       std::max(1, packets / 4)));
  const Workload chain = compile_workload(
      "saturated_chain_48", std::string(kSaturatedChainSource), "sat_top",
      std::max(1, packets / 4), /*interval_ns=*/1.0);
  for (const Workload* w : std::initializer_list<const Workload*>{
           &workloads[0], &workloads[1], &workloads[2], &chain}) {
    if (!w->compiled.success()) {
      std::cerr << w->name << " failed to compile:\n" << w->compiled.report();
      return 1;
    }
  }

  // --- Scaling: wall ms per run, kScalingRounds rounds per row ----------
  std::vector<std::vector<ScalingRun>> scaling;
  for (const Workload& w : workloads) {
    std::vector<ScalingRun>& runs = scaling.emplace_back();
    for (int shards : {1, 2, 4}) runs.emplace_back().shards = shards;
    std::vector<std::vector<double>> rounds(runs.size());
    for (int round = 0; round < kScalingRounds; ++round) {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        ScalingRun& r = runs[i];
        rounds[i].push_back(harness::round_ms(
            harness::Clock::kWall, [&] { r.events = run(w, r.shards); }));
      }
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      runs[i].wall_ms = harness::quartiles(std::move(rounds[i]));
    }
  }

  // --- Credit vs exact ----------------------------------------------------
  std::vector<CreditRow> credit_rows;
  bool credit_ok = true;
  for (const Workload* w :
       std::initializer_list<const Workload*>{&chain, &workloads[0]}) {
    for (int shards : {1, 2, 4}) {
      CreditRow& row = credit_rows.emplace_back();
      row.workload = w;
      row.shards = shards;
      row.sample = harness::sample_pairs(
          shards > 1 ? harness::Clock::kWall : harness::Clock::kCpu,
          [&] { row.exact_events = run(*w, shards); },
          [&] {
            row.credit_events = run(*w, shards, tydi::sim::AckMode::kCredit);
          });
      if (w == &chain && shards >= 2) {
        credit_ok = harness::timing_gate(
                        "credit/exact on " + chain.name + " at " +
                            std::to_string(shards) + " shards (exact ms / " +
                            "credit ms, " + harness::describe(row.sample) +
                            ")",
                        row.sample.ratio.median, harness::Bound::kFloor,
                        kMinCreditRatio) &&
                    credit_ok;
      }
    }
  }

  // --- Fault-injection sweep ----------------------------------------------
  // Seed-derived fault plans perturb thread timing (and, in credit mode,
  // defer ack flushes); the protocols must not notice. Exact mode gates on
  // byte-identity with the fault-free single-shard reference, credit mode
  // on functional equivalence.
  bool fault_sweep_ok = true;
  std::string fault_why;
  int fault_runs = 0;
  {
    const int sweep_packets = std::max(24, packets / 500);
    tydi::support::DiagnosticEngine diags;
    tydi::sim::Engine engine(chain.compiled.design, diags);
    const tydi::sim::SimResult reference =
        engine.run(generic_options(chain, sweep_packets, 1, true));
    for (int seed = 1; seed <= fault_seeds && fault_sweep_ok; ++seed) {
      for (int shards : {2, 4}) {
        for (tydi::sim::AckMode mode :
             {tydi::sim::AckMode::kExact, tydi::sim::AckMode::kCredit}) {
          tydi::sim::SimOptions options =
              generic_options(chain, sweep_packets, shards, true);
          options.ack_mode = mode;
          options.fault = tydi::sim::FaultPlan::from_seed(
              static_cast<std::uint64_t>(seed));
          options.fault.delay_spin_iters = 200;  // keep the sweep cheap
          const tydi::sim::SimResult faulted = engine.run(options);
          ++fault_runs;
          const bool exact = mode == tydi::sim::AckMode::kExact;
          std::string why;
          const bool ok =
              exact ? tydi::sim::results_identical(reference, faulted, &why)
                    : tydi::sim::results_functionally_equivalent(
                          reference, faulted, &why);
          if (!ok && fault_sweep_ok) {
            fault_sweep_ok = false;
            fault_why = "seed " + std::to_string(seed) + " shards " +
                        std::to_string(shards) + " mode " +
                        (exact ? "exact" : "credit") + ": " + why;
          }
        }
      }
    }
  }

  // --- Observability overhead: span tracing on vs off ---------------------
  // The sim publishes metrics once per run and times barrier waits with
  // two clock reads per wait regardless; the only per-run delta a user can
  // toggle is span emission.
  tydi::obs::SpanTracer& tracer = tydi::obs::SpanTracer::global();
  const Workload& grid = workloads.back();
  auto grid_run = [&](bool traced) {
    tracer.clear();
    tracer.set_enabled(traced);
    (void)run(grid, 2);
    tracer.set_enabled(false);
  };
  const harness::PairSample obs = harness::sample_pairs(
      harness::Clock::kWall, [&] { grid_run(false); },
      [&] { grid_run(true); });
  tracer.clear();
  const bool obs_ok = harness::timing_gate(
      "obs overhead on " + grid.name + " at 2 shards (untraced ms / traced " +
          "ms, " + harness::describe(obs) + ")",
      obs.ratio.median, harness::Bound::kFloor, kMinObsRatio);

  const unsigned cores = std::thread::hardware_concurrency();
  tydi::support::TextTable table;
  table.header({"workload", "shards", "events", "wall ms (q1-q3)",
                "events/s", "speedup vs 1"});
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    for (const ScalingRun& r : scaling[i]) {
      table.row({workloads[i].name, std::to_string(r.shards),
                 std::to_string(r.events),
                 spread(r.wall_ms, 3),
                 tydi::support::format_fixed(r.events_per_sec(), 0),
                 tydi::support::format_fixed(
                     scaling[i].front().wall_ms.median / r.wall_ms.median,
                     2)});
    }
  }
  tydi::support::TextTable credit_table;
  credit_table.header({"workload", "shards", "exact ms (q1-q3)",
                       "credit ms (q1-q3)", "exact/credit (q1-q3)",
                       "steal re-runs"});
  for (const CreditRow& row : credit_rows) {
    credit_table.row({row.workload->name, std::to_string(row.shards),
                      spread(row.sample.a_ms, 3), spread(row.sample.b_ms, 3),
                      spread(row.sample.ratio, 3),
                      std::to_string(row.sample.steal_reruns)});
  }
  std::cout << "sharded simulation scaling (" << cores
            << " hardware thread(s))\n\n"
            << table.render() << "\n"
            << "credit vs exact ack protocol (" << harness::kPairs
            << " alternating pair(s); 1 shard in CPU ms, 2+ in wall ms)\n\n"
            << credit_table.render() << "\n"
            << "fault sweep (" << fault_runs << " faulted run(s), "
            << fault_seeds << " seed(s) x shards {2,4} x {exact,credit}): "
            << (fault_sweep_ok ? "ok" : "VIOLATED " + fault_why) << "\n";

  bool written = true;
  if (json_path != nullptr) {
    auto write = [&](std::string_view name,
                     const std::function<void(harness::JsonWriter&)>& fill) {
      written = harness::write_section(json_path, name, fill) && written;
    };
    write("sim_parallel_shards", [&](harness::JsonWriter& json) {
      json.field("hardware_concurrency", cores).key("workloads");
      json.begin_array();
      for (std::size_t i = 0; i < workloads.size(); ++i) {
        json.begin_object()
            .field("name", workloads[i].name)
            .field("packets", workloads[i].packets)
            .key("runs")
            .begin_array();
        for (const ScalingRun& r : scaling[i]) {
          json.begin_object()
              .field("shards", r.shards)
              .field("events", r.events)
              .field("rounds", kScalingRounds)
              .field("wall_ms", r.wall_ms.median)
              .field("wall_ms_q1", r.wall_ms.q1)
              .field("wall_ms_q3", r.wall_ms.q3)
              .field("events_per_sec", r.events_per_sec())
              .end_object();
        }
        json.end_array()
            .field("speedup_4_shards", scaling[i].front().wall_ms.median /
                                           scaling[i].back().wall_ms.median)
            .end_object();
      }
      json.end_array();
    });
    write("sim_credit_mode", [&](harness::JsonWriter& json) {
      json.field("hardware_concurrency", cores)
          .field("timing_gated", harness::kTimingGatesEnforced)
          .field("credit_not_slower_ok", credit_ok)
          .field("min_ratio", kMinCreditRatio)
          .key("runs")
          .begin_array();
      for (const CreditRow& row : credit_rows) {
        json.begin_object()
            .field("workload", row.workload->name)
            .field("packets", row.workload->packets)
            .field("shards", row.shards)
            .field("exact_events", row.exact_events)
            .field("credit_events", row.credit_events)
            .sample("exact_vs_credit", "exact", "credit", row.sample)
            .end_object();
      }
      json.end_array();
    });
    write("sim_fault_sweep", [&](harness::JsonWriter& json) {
      json.field("workload", chain.name)
          .field("seeds", fault_seeds)
          .field("faulted_runs", fault_runs)
          .field("sweep_ok", fault_sweep_ok);
    });
    write("sim_obs_overhead", [&](harness::JsonWriter& json) {
      json.field("workload", grid.name)
          .field("shards", 2)
          .sample("untraced_vs_traced", "untraced", "traced", obs)
          .field("ratio", obs.ratio.median)
          .field("min_ratio", kMinObsRatio)
          .field("overhead_ok", obs.ratio.median >= kMinObsRatio);
    });
    if (written) std::cout << "JSON sections updated in " << json_path << "\n";
  }

  return written && credit_ok && fault_sweep_ok && obs_ok ? 0 : 1;
}
