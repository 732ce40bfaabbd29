// tydic — the Tydi-lang compiler CLI.
//
// Usage:
//   tydic --top <impl> [options] file1.td [file2.td ...]
//
// Options:
//   --top <name>           top-level impl to elaborate (required)
//   --no-stdlib            do not prepend the standard library
//   --no-sugar             disable duplicator/voider insertion
//   --emit-ir <path>       write Tydi-IR (default: stdout)
//   --emit-vhdl <path>     write generated VHDL
//   --emit-manifest <path> write the fletchgen reader manifest
//   --summary              print the design inventory
//   --timings              print per-phase wall clock (pipeline order),
//                          cache hit rates, and bytes emitted (from the
//                          process metrics registry); with --sim also the
//                          sim stage wall clock (SimResult::phase_ms)
//   --metrics-out <path>   write the metrics registry snapshot (counters /
//                          gauges / histograms, stable-sorted JSON) on exit
//   --trace-profile <path> enable span tracing and write a Chrome
//                          trace-event JSON (load in about:tracing) on exit
//   --sim                  simulate the elaborated design (generic stimuli
//                          on every top input) and print the report
//   --sim-shards <n>       simulation shards (implies
//                          --sim; results are identical for any n)
//   --sim-packets <n>      packets per top input stimulus (default 256)
//   --sim-ack-mode <m>     cross-shard ack protocol: "exact" (default,
//                          byte-identical results) or "credit" (batched
//                          acks, functionally equivalent, much better
//                          scaling on saturated cut channels)
//   --sim-credit-window <n> send credits per cut channel in credit mode
//                          (default 8)
//   --sim-profile          run a short profiling pre-run and partition by
//                          measured per-component event counts instead of
//                          the degree heuristic
//   --trace-out <path>     record the packet trace and dump it as a binary
//                          columnar TYTR file (implies --sim)
//   --batch                compile the built-in TPC-H workload in one
//                          CompileSession (shared template memo + parse
//                          cache) and print per-query + aggregate timings
//   --batch-manifest <path> compile a custom job set instead: one
//                          "source_files top_name" per line ('#' comments;
//                          source_files is a comma-separated list compiled
//                          in order), all through one CompileSession
//   --batch-rounds <n>     repeat the batch n times in the same session
//                          (round 2+ shows the warm-cache behaviour)
//   --jobs <n>             batch worker threads (default 1). Entries and
//                          emitted bytes are identical for any n; only
//                          wall clock changes
//   --dump-tpch <dir>      write each built-in TPC-H query as <dir>/q<n>.td
//                          (Fletcher interfaces + query logic) plus a
//                          <dir>/manifest.txt batch manifest, then exit.
//                          Feeds test_driver's tydid cases and ad-hoc
//                          --batch-manifest runs
//   --sim-fault-seed <n>   deterministic fault-injection plan derived from
//                          one seed (delayed mailbox posts, exchange jitter,
//                          shard stalls, withheld credit flushes); results
//                          must match a fault-free run (implies --sim)
//   --sim-fault-plan <s>   explicit plan "seed=..,delay=..,jitter=..,
//                          stall=..,withhold=..,spin=..,hang=0|1"
//   --sim-watchdog-ms <ms> abort when no event is processed for <ms>
//                          (default 10000; 0 disables)
//   --sim-max-events <n>   abort after n processed events (0 = unlimited)
//   --sim-budget-ms <ms>   wall-clock budget for the run (0 = unlimited)
//   --sim-rss-mb <n>       resident-set budget in MiB (0 = unlimited)
//
// Exit codes (stable; see src/support/status.hpp): 0 ok, 1 unclassified,
// 2 usage, 3 io-error, 4 corrupt-data, 5 parse-error, 6 elab-error,
// 7 drc-error, 8 emit-error, 9 deadlock, 10 aborted, 11 internal.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "src/driver/compiler.hpp"
#include "src/fletcher/fletchgen.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/trace.hpp"
#include "src/support/source.hpp"
#include "src/tpch/tpch.hpp"

namespace {

int usage() {
  std::cerr << "usage: tydic --top <impl> [--no-stdlib] [--no-sugar] "
               "[--emit-ir <path>] [--emit-vhdl <path>] "
               "[--emit-manifest <path>] [--summary] [--timings] "
               "[--sim] [--sim-shards <n>] [--sim-packets <n>] "
               "[--sim-ack-mode exact|credit] [--sim-credit-window <n>] "
               "[--sim-profile] [--sim-fault-seed <n>] "
               "[--sim-fault-plan <spec>] [--sim-watchdog-ms <ms>] "
               "[--sim-max-events <n>] [--sim-budget-ms <ms>] "
               "[--sim-rss-mb <n>] [--trace-out <path>] <file.td>...\n"
               "       tydic --batch [--batch-rounds <n>] [--jobs <n>]\n"
               "       tydic --batch-manifest <path> [--batch-rounds <n>] "
               "[--jobs <n>]\n"
               "       tydic --dump-tpch <dir>\n"
               "  (any mode also accepts --metrics-out <path> and "
               "--trace-profile <path>)\n";
  return 2;
}

/// Cache hit rates + bytes emitted, read back from the process metrics
/// registry (--timings). The same counters the daemon's METRICS verb
/// exports, so the CLI and the service can never disagree.
void print_cache_report(std::ostream& out) {
  auto& reg = tydi::obs::MetricsRegistry::global();
  auto rate = [&](const char* hits_name, const char* misses_name) {
    const std::uint64_t hits = reg.counter(hits_name).value();
    const std::uint64_t total = hits + reg.counter(misses_name).value();
    std::string s = total == 0
                        ? std::string("-")
                        : tydi::obs::json_number(
                              static_cast<double>(hits) / total);
    return s + " (" + std::to_string(hits) + "/" + std::to_string(total) +
           ")";
  };
  out << "caches: elab "
      << rate("tydi.elab.instantiation_hits", "tydi.elab.instantiation_misses")
      << " | parse "
      << rate("tydi.parse.cache_hits", "tydi.parse.cache_misses")
      << " | sugar "
      << rate("tydi.sugar.memo_hits", "tydi.sugar.memo_misses")
      << " | lower "
      << rate("tydi.lower.memo_hits", "tydi.lower.memo_misses")
      << " | vhdl "
      << rate("tydi.vhdl.memo_hits", "tydi.vhdl.memo_misses")
      << "\n";
  out << "bytes: ir " << reg.counter("tydi.ir.bytes_emitted").value()
      << " | vhdl " << reg.counter("tydi.vhdl.bytes_emitted").value()
      << "\n";
}

int run_batch(int rounds, const std::string& manifest_path, int jobs) {
  tydi::driver::CompileSession session;
  std::vector<tydi::driver::BatchJob> jobs_list;
  if (manifest_path.empty()) {
    jobs_list = tydi::tpch::batch_jobs();
  } else {
    // Malformed lines become pre-failed jobs reported per entry below; only
    // an unreadable manifest or one without a job line is fatal here.
    tydi::support::Status loaded =
        tydi::driver::load_batch_manifest(manifest_path, jobs_list);
    if (!loaded.is_ok()) {
      std::cerr << "error: " << loaded.render() << "\n";
      return loaded.exit_code();
    }
  }
  tydi::driver::BatchOptions batch_options;
  batch_options.jobs = jobs;
  tydi::support::Status status = tydi::support::Status::ok();
  for (int round = 1; round <= rounds; ++round) {
    tydi::driver::BatchResult result =
        tydi::driver::compile_batch(session, jobs_list, batch_options);
    if (rounds > 1) {
      std::cout << "-- round " << round << (round == 1 ? " (cold)" : " (warm)")
                << "\n";
    }
    std::cout << result.render();
    if (status.is_ok()) status = result.status();
  }
  return status.exit_code();
}

// Writes the built-in (sugared) TPC-H workload into <dir>: the shared
// Fletcher table interfaces as fletcher.td, each query's logic as q<n>.td
// (each keeps its own `package` header, so they stay separate files — the
// driver prepends the stdlib at compile time), plus a manifest.txt whose
// lines are "fletcher.td,q<n>.td <top>" in the comma-separated multi-source
// form load_batch_manifest accepts. The dump lets external processes
// (test_driver's tydid cases, ad-hoc --batch-manifest runs) compile the
// exact workload without linking the tpch library.
int run_dump_tpch(const std::string& dir) {
  std::ofstream manifest(dir + "/manifest.txt", std::ios::binary);
  if (!manifest) {
    std::cerr << "error: cannot write " << dir << "/manifest.txt\n";
    return 3;
  }
  const std::string fletcher_path = dir + "/fletcher.td";
  {
    std::ofstream out(fletcher_path, std::ios::binary);
    if (!out) {
      std::cerr << "error: cannot write " << fletcher_path << "\n";
      return 3;
    }
    out << tydi::tpch::fletcher_source();
  }
  for (const tydi::tpch::QueryCase& query : tydi::tpch::queries()) {
    if (!query.note.empty()) continue;  // manifest jobs default to sugaring
    // "TPC-H 6" -> "q6.td"
    std::string digits;
    for (char c : query.id) {
      if (c >= '0' && c <= '9') digits += c;
    }
    const std::string path = dir + "/q" + digits + ".td";
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::cerr << "error: cannot write " << path << "\n";
      return 3;
    }
    out << query.source;
    manifest << fletcher_path << "," << path << " " << query.top_impl
             << "\n";
    std::cout << fletcher_path << "," << path << " " << query.top_impl
              << "\n";
  }
  return 0;
}

struct SimCliOptions {
  int shards = 1;
  int packets = 256;
  tydi::sim::AckMode ack_mode = tydi::sim::AckMode::kExact;
  int credit_window = 8;
  bool profile = false;
  std::string trace_out;
  tydi::sim::FaultPlan fault;
  double watchdog_ms = 10000.0;
  double budget_ms = 0.0;
  std::uint64_t max_events = 0;
  std::uint64_t rss_mb = 0;
  bool timings = false;
};

int run_simulation(const tydi::driver::CompileResult& result,
                   const SimCliOptions& cli) {
  tydi::support::DiagnosticEngine diags;
  tydi::sim::Engine engine(result.design, diags);
  tydi::sim::SimOptions options;
  options.shards = cli.shards;
  options.ack_mode = cli.ack_mode;
  options.credit_window = cli.credit_window;
  options.fault = cli.fault;
  options.watchdog_timeout_ms = cli.watchdog_ms;
  options.wall_clock_budget_ms = cli.budget_ms;
  options.max_events = cli.max_events;
  options.rss_budget_mb = cli.rss_mb;
  if (options.fault.enabled()) {
    std::cerr << "fault plan: " << options.fault.render() << "\n";
  }
  // The report below never reads the trace; only --trace-out needs it.
  options.record_trace = !cli.trace_out.empty();
  options.stimuli = tydi::sim::generic_stimuli(result.design, cli.packets);
  if (cli.profile) {
    // Short profiling pre-run: measured per-component event counts replace
    // the partitioner's degree heuristic for the real run.
    tydi::sim::SimOptions pre = options;
    pre.shards = 1;
    pre.record_trace = false;
    pre.stimuli = tydi::sim::generic_stimuli(result.design,
                                             std::min(cli.packets, 64));
    tydi::sim::SimResult profile_run = engine.run(pre);
    options.component_weights.assign(profile_run.component_events.begin(),
                                     profile_run.component_events.end());
  }
  tydi::sim::SimResult sim_result = engine.run(options);
  std::cerr << diags.render();
  if (cli.timings) {
    std::cerr << "sim phases: " << sim_result.phase_ms.render() << "\n";
  }
  std::cout << sim_result.summary() << "\n";
  // A design that could not be simulated has no run to report, and the
  // diagnostics above already say why.
  if (!sim_result.setup_error.empty()) return sim_result.status().exit_code();
  std::cout << tydi::sim::render_bottleneck_report(sim_result, 10);
  if (!cli.trace_out.empty()) {
    if (!tydi::sim::write_binary_trace(sim_result, cli.trace_out)) {
      std::cerr << "error: cannot write " << cli.trace_out << "\n";
      return 3;
    }
    std::cout << "trace: " << sim_result.trace.size() << " event(s) -> "
              << cli.trace_out << "\n";
  }
  // Distinct exit codes per failure class: deadlock (9) and watchdog /
  // budget abort (10) are different operational problems.
  tydi::support::Status status = sim_result.status();
  if (!status.is_ok()) std::cerr << "error: " << status.render() << "\n";
  return status.exit_code();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  out << text;
  return true;
}

/// The real CLI body. The obs output paths are collected here and written
/// by main() once, after every mode (batch, sim, single compile) has
/// returned — so --metrics-out / --trace-profile capture the whole run
/// whatever path it took.
int run(int argc, char** argv, std::string& metrics_out,
        std::string& trace_profile) {
  tydi::driver::CompileOptions options;
  std::vector<tydi::driver::NamedSource> sources;
  std::string ir_path;
  std::string vhdl_path;
  std::string manifest_path;
  bool summary = false;
  bool timings = false;
  bool simulate = false;
  bool batch = false;
  int batch_rounds = 1;
  int batch_jobs = 1;
  std::string batch_manifest;
  std::string dump_tpch_dir;
  SimCliOptions sim_cli;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: missing argument for " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--top") {
      options.top = next("--top");
    } else if (arg == "--no-stdlib") {
      options.include_stdlib = false;
    } else if (arg == "--no-sugar") {
      options.sugaring = false;
    } else if (arg == "--emit-ir") {
      ir_path = next("--emit-ir");
    } else if (arg == "--emit-vhdl") {
      vhdl_path = next("--emit-vhdl");
    } else if (arg == "--emit-manifest") {
      manifest_path = next("--emit-manifest");
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--timings") {
      timings = true;
    } else if (arg == "--batch") {
      batch = true;
    } else if (arg == "--batch-manifest") {
      batch = true;
      batch_manifest = next("--batch-manifest");
    } else if (arg == "--batch-rounds") {
      batch = true;
      batch_rounds = std::atoi(next("--batch-rounds").c_str());
      if (batch_rounds < 1) batch_rounds = 1;
    } else if (arg == "--jobs") {
      batch_jobs = std::atoi(next("--jobs").c_str());
      if (batch_jobs < 1) batch_jobs = 1;
    } else if (arg == "--dump-tpch") {
      dump_tpch_dir = next("--dump-tpch");
    } else if (arg == "--sim") {
      simulate = true;
    } else if (arg == "--sim-shards") {
      simulate = true;
      sim_cli.shards = std::atoi(next("--sim-shards").c_str());
      if (sim_cli.shards < 1) sim_cli.shards = 1;
    } else if (arg == "--sim-packets") {
      simulate = true;
      sim_cli.packets = std::atoi(next("--sim-packets").c_str());
      if (sim_cli.packets < 1) sim_cli.packets = 1;
    } else if (arg == "--sim-ack-mode") {
      simulate = true;
      std::string mode = next("--sim-ack-mode");
      if (mode == "exact") {
        sim_cli.ack_mode = tydi::sim::AckMode::kExact;
      } else if (mode == "credit") {
        sim_cli.ack_mode = tydi::sim::AckMode::kCredit;
      } else {
        std::cerr << "error: unknown ack mode '" << mode
                  << "' (use exact or credit)\n";
        return 2;
      }
    } else if (arg == "--sim-credit-window") {
      // Sets the window only; the protocol is chosen by --sim-ack-mode
      // (an explicit "exact" must not be silently overridden).
      simulate = true;
      sim_cli.credit_window = std::atoi(next("--sim-credit-window").c_str());
      if (sim_cli.credit_window < 1) sim_cli.credit_window = 1;
    } else if (arg == "--sim-profile") {
      simulate = true;
      sim_cli.profile = true;
    } else if (arg == "--sim-fault-seed") {
      simulate = true;
      sim_cli.fault = tydi::sim::FaultPlan::from_seed(
          std::strtoull(next("--sim-fault-seed").c_str(), nullptr, 10));
    } else if (arg == "--sim-fault-plan") {
      simulate = true;
      std::string spec = next("--sim-fault-plan");
      std::string error;
      if (!tydi::sim::FaultPlan::parse(spec, sim_cli.fault, error)) {
        std::cerr << "error: bad --sim-fault-plan: " << error << "\n";
        return 2;
      }
    } else if (arg == "--sim-watchdog-ms") {
      simulate = true;
      sim_cli.watchdog_ms = std::atof(next("--sim-watchdog-ms").c_str());
      if (sim_cli.watchdog_ms < 0) sim_cli.watchdog_ms = 0;
    } else if (arg == "--sim-max-events") {
      simulate = true;
      sim_cli.max_events =
          std::strtoull(next("--sim-max-events").c_str(), nullptr, 10);
    } else if (arg == "--sim-budget-ms") {
      simulate = true;
      sim_cli.budget_ms = std::atof(next("--sim-budget-ms").c_str());
      if (sim_cli.budget_ms < 0) sim_cli.budget_ms = 0;
    } else if (arg == "--sim-rss-mb") {
      simulate = true;
      sim_cli.rss_mb =
          std::strtoull(next("--sim-rss-mb").c_str(), nullptr, 10);
    } else if (arg == "--trace-out") {
      simulate = true;
      sim_cli.trace_out = next("--trace-out");
    } else if (arg == "--metrics-out") {
      metrics_out = next("--metrics-out");
    } else if (arg == "--trace-profile") {
      trace_profile = next("--trace-profile");
      tydi::obs::SpanTracer::global().set_enabled(true);
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      tydi::driver::NamedSource& source = sources.emplace_back();
      source.name = arg;
      if (!tydi::support::read_file(arg, source.text).is_ok()) {
        std::cerr << "error: cannot read " << arg << "\n";
        return 2;
      }
    }
  }
  if (!dump_tpch_dir.empty()) return run_dump_tpch(dump_tpch_dir);
  if (batch) {
    if (!sources.empty() || !options.top.empty()) {
      std::cerr << "error: --batch compiles the built-in TPC-H workload (or "
                   "the --batch-manifest job list) and takes no files or "
                   "--top\n";
      return 2;
    }
    const int code = run_batch(batch_rounds, batch_manifest, batch_jobs);
    // The batch renderer already prints per-query wall clock; --timings
    // adds the session-wide cache behaviour on top.
    if (timings) print_cache_report(std::cerr);
    return code;
  }
  if (sources.empty() || options.top.empty()) return usage();

  tydi::driver::CompileResult result = tydi::driver::compile(sources, options);
  std::cerr << result.report();
  if (!result.success()) {
    // Distinct exit code per failing pipeline phase (see header comment).
    std::cerr << "compilation failed\n";
    return result.status().exit_code();
  }
  if (timings) {
    std::cerr << "phases: " << result.phase_ms.render() << "\n";
    print_cache_report(std::cerr);
  }
  if (summary) std::cout << result.design.summary();
  if (!ir_path.empty()) {
    if (!write_file(ir_path, result.ir_text)) return 1;
  } else if (vhdl_path.empty() && !summary && !simulate) {
    std::cout << result.ir_text;
  }
  if (!vhdl_path.empty()) {
    if (!write_file(vhdl_path, result.vhdl_text)) return 1;
  }
  if (!manifest_path.empty()) {
    if (!write_file(manifest_path,
                    tydi::fletcher::generate_reader_manifest(result.ir))) {
      return 1;
    }
  }
  if (simulate) {
    sim_cli.timings = timings;
    return run_simulation(result, sim_cli);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string trace_profile;
  const int code = run(argc, argv, metrics_out, trace_profile);
  // Obs outputs are written whatever `code` is — a failed or aborted run's
  // metrics and trace are exactly what a post-mortem needs. An unwritable
  // path degrades the exit code only if the run itself succeeded.
  int obs_code = 0;
  if (!metrics_out.empty() &&
      !write_file(metrics_out,
                  tydi::obs::MetricsRegistry::global().render_json() + "\n")) {
    obs_code = 3;
  }
  if (!trace_profile.empty() &&
      !write_file(trace_profile,
                  tydi::obs::SpanTracer::global().export_chrome_json() +
                      "\n")) {
    obs_code = 3;
  }
  return code != 0 ? code : obs_code;
}
