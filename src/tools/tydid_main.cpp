// tydid — the long-lived Tydi-lang compile daemon.
//
// One process, one driver::CompileSession: every request compiles against
// the same process-wide template memo and parse cache, so a fleet of
// clients gets warm-cache compiles without each paying the stdlib
// elaboration cost. Transport is an AF_UNIX stream socket with a
// newline-delimited protocol (see src/service/service.hpp and
// src/driver/README.md). Compile requests run on a fixed worker pool fed
// by a bounded two-class priority queue; past capacity the daemon sheds
// with exit code 12 (unavailable) and a retry-after-ms hint instead of
// queueing unboundedly — src/service/README.md documents the overload
// behaviour end to end.
//
// Usage:
//   tydid --socket <path> [--workers <n>] [--queue-capacity <n>]
//         [--max-connections <n>] [--drain-deadline-ms <ms>]
//         [--rss-shed-mb <mb>] [--default-budget-ms <ms>]
//         [--max-budget-ms <ms>] [--journal <path>]
//         [--replay-budget-ms <ms>]
//       run the daemon (blocks until a SHUTDOWN request or SIGINT/SIGTERM;
//       both drain in-flight work and unlink the socket before exiting).
//       With --journal the daemon records every successfully compiled key
//       in a crash-safe append-only journal and replays it on the next
//       start (as sheddable PRIO batch work, bounded by
//       --replay-budget-ms), so restarts serve warm. The journal compacts
//       itself as it grows and once more on drain. A torn or corrupt
//       journal recovers to its longest valid prefix and boots (partially)
//       cold — logged, never fatal. See src/service/README.md
//       ("Durability and warm restart").
//   tydid --socket <path> --request "<line>" [--retries <n>]
//         [--retry-base-ms <ms>] [--retry-seed <n>] [--deadline-ms <ms>]
//         [--prio <interactive|batch>]
//       client: send one request line, print the payload to stdout, exit
//       with the response's status code — the same stable 0-12 taxonomy as
//       tydic, so scripts can dispatch identically on local and daemon
//       compiles. Shed requests (exit 12) are retried up to --retries
//       times with capped exponential backoff, deterministic seeded
//       jitter, and the daemon's retry-after-ms hint as the floor.
//   tydid --socket <path> --batch-manifest <path> [--emit <vhdl|ir>]
//         [retry flags as above]
//       client: compile every manifest job (the `tydic --batch-manifest`
//       format, read by driver::parse_batch_manifest: "source_files top"
//       per line, `#` comments) through the daemon as PRIO batch requests,
//       one retry loop per job; per-job summary to stderr, exit 0 only if
//       all jobs succeeded
//   tydid --socket <path> --shutdown
//       ask a running daemon to stop (client sugar for --request SHUTDOWN)
//
// Example session (client side):
//   tydid --socket /tmp/tydid.sock --request "TPCH 6 vhdl" > q6.vhdl
//   tydid --socket /tmp/tydid.sock --request "FILE my.td top_i vhdl 5000"
//   tydid --socket /tmp/tydid.sock --deadline-ms 2000 --request "TPCH 3 ir"
//   tydid --socket /tmp/tydid.sock --retries 5 --request STATS
//   tydid --socket /tmp/tydid.sock --request METRICS   # registry JSON
//   tydid --socket /tmp/tydid.sock --request HEALTH    # liveness JSON
//   tydid --socket /tmp/tydid.sock --shutdown
//
// METRICS returns the process obs::MetricsRegistry snapshot (counters,
// gauges, histograms under tydi.<subsystem>.*, stable key order); HEALTH
// returns the status fields as a small liveness JSON (status, uptime_ms,
// in_flight, queue_depth, workers, draining, registry counts such as
// requests and shed_total, journal/replay state, last_abort) and STATS the
// numeric ones as "name value" lines. All three execute inline — never
// queued — so they stay responsive while the worker pool is saturated.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/support/retry.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: tydid --socket <path> [--workers <n>] "
         "[--queue-capacity <n>] [--max-connections <n>]\n"
         "             [--drain-deadline-ms <ms>] [--rss-shed-mb <mb>]\n"
         "             [--default-budget-ms <ms>] [--max-budget-ms <ms>]\n"
         "             [--journal <path>] [--replay-budget-ms <ms>]\n"
         "       tydid --socket <path> --request \"<request line>\"\n"
         "             [--retries <n>] [--retry-base-ms <ms>] "
         "[--retry-seed <n>]\n"
         "             [--deadline-ms <ms>] [--prio <interactive|batch>]\n"
         "       tydid --socket <path> --batch-manifest <path> "
         "[--emit <vhdl|ir>]\n"
         "       tydid --socket <path> --shutdown\n";
  return 2;
}

/// Builds the envelope prefix ("PRIO ... DEADLINE_MS ... ") for a client
/// request line; ATTEMPT is appended per-try by request_with_retry.
std::string envelope_prefix(const std::string& prio, double deadline_ms) {
  std::string prefix;
  if (!prio.empty()) prefix += "PRIO " + prio + " ";
  if (deadline_ms > 0.0) {
    std::ostringstream ms;
    ms << deadline_ms;
    prefix += "DEADLINE_MS " + ms.str() + " ";
  }
  return prefix;
}

/// One retried request against the daemon: payload to stdout (stderr on
/// failure), remote status as exit code; transport failures map to their
/// own taxonomy entry (kIoError etc.) like any local I/O problem.
int run_client(const std::string& socket_path, const std::string& line,
               const tydi::support::RetryPolicy& policy) {
  tydi::service::Response response;
  int attempts = 1;
  const tydi::support::Status transport = tydi::service::request_with_retry(
      socket_path, line, policy, response, &attempts);
  if (!transport.is_ok()) {
    std::cerr << "error: " << transport.render() << "\n";
    return transport.exit_code();
  }
  if (response.ok()) {
    std::cout << response.payload();
  } else {
    std::cerr << response.payload();
    // A shed response carries the daemon's own retry-after hint; surface
    // it on the final exhausted attempt so operators see *why* retries
    // stopped and when trying again is worthwhile — not just exit 12.
    if (attempts > 1) {
      std::cerr << "tydid: gave up after " << attempts << " attempt(s)";
      if (response.retry_after_ms > 0.0) {
        std::cerr << "; daemon suggests retrying in "
                  << static_cast<long long>(response.retry_after_ms + 0.5)
                  << " ms";
      }
      std::cerr << "\n";
    } else if (response.retry_after_ms > 0.0) {
      std::cerr << "tydid: daemon overloaded; retry in "
                << static_cast<long long>(response.retry_after_ms + 0.5)
                << " ms\n";
    }
  }
  return response.status.exit_code();
}

/// Client-side batch mode: every manifest job becomes a PRIO batch FILE
/// request with its own retry loop, so bulk traffic rides the daemon's
/// batch queue class and backs off when the daemon sheds.
int run_batch_client(const std::string& socket_path,
                     const std::string& manifest_path,
                     const std::string& emit, const std::string& deadline,
                     const tydi::support::RetryPolicy& policy) {
  std::vector<tydi::driver::ManifestLine> lines;
  const tydi::support::Status parsed =
      tydi::driver::parse_batch_manifest(manifest_path, lines);
  if (!parsed.is_ok()) {
    std::cerr << "error: " << parsed.render() << "\n";
    return parsed.exit_code();
  }
  std::size_t failed = 0;
  int first_failure_exit = 0;
  for (const tydi::driver::ManifestLine& line : lines) {
    if (!line.status.is_ok()) {
      // A malformed line fails here exactly as in `tydic --batch-manifest`.
      std::cerr << "FAIL " << line.status.render() << "\n";
      ++failed;
      if (first_failure_exit == 0) {
        first_failure_exit = line.status.exit_code();
      }
      continue;
    }
    const std::string request_line = envelope_prefix("batch", 0.0) +
                                     deadline + "FILE " + line.sources +
                                     " " + line.top + " " + emit;
    tydi::service::Response response;
    int attempts = 1;
    const tydi::support::Status transport =
        tydi::service::request_with_retry(socket_path, request_line, policy,
                                          response, &attempts);
    const bool ok = transport.is_ok() && response.ok();
    if (ok) {
      std::cerr << "ok   " << line.sources << " " << line.top << " ("
                << response.payload().size() << " bytes";
      if (attempts > 1) std::cerr << ", " << attempts << " attempts";
      std::cerr << ")\n";
    } else {
      ++failed;
      std::cerr << "FAIL " << line.sources << " " << line.top << ": "
                << (transport.is_ok() ? response.status.render()
                                      : transport.render())
                << "\n";
      if (first_failure_exit == 0) {
        first_failure_exit = transport.is_ok() ? response.status.exit_code()
                                               : transport.exit_code();
      }
    }
  }
  std::cerr << "tydid: batch " << (lines.size() - failed) << "/"
            << lines.size() << " job(s) succeeded\n";
  // Same convention as `tydic --batch`: the first failing job's
  // classification is the process exit code.
  return first_failure_exit;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string request_line;
  std::string manifest_path;
  std::string emit = "vhdl";
  std::string prio;
  double deadline_ms = 0.0;
  bool shutdown = false;
  tydi::service::ServiceConfig config;
  tydi::service::ServerConfig server_config;
  tydi::support::RetryPolicy retry;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: missing argument for " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next("--socket");
    } else if (arg == "--request") {
      request_line = next("--request");
    } else if (arg == "--batch-manifest") {
      manifest_path = next("--batch-manifest");
    } else if (arg == "--emit") {
      emit = next("--emit");
      if (emit != "vhdl" && emit != "ir") {
        std::cerr << "error: --emit expects vhdl|ir\n";
        return 2;
      }
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (arg == "--default-budget-ms") {
      config.default_budget_ms = std::atof(next("--default-budget-ms").c_str());
      if (config.default_budget_ms < 0) config.default_budget_ms = 0;
    } else if (arg == "--max-budget-ms") {
      config.max_budget_ms = std::atof(next("--max-budget-ms").c_str());
      if (config.max_budget_ms < 0) config.max_budget_ms = 0;
    } else if (arg == "--workers") {
      config.workers = std::atoi(next("--workers").c_str());
    } else if (arg == "--queue-capacity") {
      const int capacity = std::atoi(next("--queue-capacity").c_str());
      config.queue_capacity =
          capacity > 0 ? static_cast<std::size_t>(capacity) : 1;
    } else if (arg == "--max-connections") {
      const int cap = std::atoi(next("--max-connections").c_str());
      server_config.max_connections =
          cap > 0 ? static_cast<std::size_t>(cap) : 0;
    } else if (arg == "--drain-deadline-ms") {
      config.drain_deadline_ms =
          std::atof(next("--drain-deadline-ms").c_str());
      if (config.drain_deadline_ms < 0) config.drain_deadline_ms = 0;
    } else if (arg == "--rss-shed-mb") {
      const long long mb = std::atoll(next("--rss-shed-mb").c_str());
      config.rss_shed_mb =
          mb > 0 ? static_cast<std::uint64_t>(mb) : 0;
    } else if (arg == "--journal") {
      config.journal_path = next("--journal");
    } else if (arg == "--replay-budget-ms") {
      config.replay_budget_ms = std::atof(next("--replay-budget-ms").c_str());
      if (config.replay_budget_ms < 0) config.replay_budget_ms = 0;
    } else if (arg == "--retries") {
      retry.max_attempts = std::atoi(next("--retries").c_str());
    } else if (arg == "--retry-base-ms") {
      retry.base_ms = std::atof(next("--retry-base-ms").c_str());
      if (retry.base_ms < 0) retry.base_ms = 0;
    } else if (arg == "--retry-seed") {
      retry.seed = static_cast<std::uint64_t>(
          std::atoll(next("--retry-seed").c_str()));
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::atof(next("--deadline-ms").c_str());
      if (deadline_ms < 0) deadline_ms = 0;
    } else if (arg == "--prio") {
      prio = next("--prio");
      if (prio != "interactive" && prio != "batch") {
        std::cerr << "error: --prio expects interactive|batch\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  if (socket_path.empty()) return usage();
  if (shutdown && request_line.empty()) request_line = "SHUTDOWN";

  if (!manifest_path.empty()) {
    return run_batch_client(socket_path, manifest_path, emit,
                            envelope_prefix("", deadline_ms), retry);
  }
  if (!request_line.empty()) {
    return run_client(socket_path,
                      envelope_prefix(prio, deadline_ms) + request_line,
                      retry);
  }

  // Daemon mode.
  tydi::service::CompileService service(config);
  server_config.socket_path = socket_path;
  server_config.handle_signals = true;
  if (!config.journal_path.empty()) {
    tydi::service::warmup::CompileJournal* journal = service.journal();
    if (journal == nullptr) {
      std::cerr << "tydid: journal " << config.journal_path
                << " unusable; serving without durability\n";
    } else if (journal->recovered_corrupt()) {
      // The logged cold(ish) start: recovery kept the longest valid
      // prefix and dropped the rest. HEALTH reports it as kCorruptData
      // in journal_error; the daemon serves regardless.
      std::cerr << "tydid: journal " << config.journal_path
                << " recovered " << journal->recovered_records()
                << " record(s), dropped "
                << journal->recovery_dropped_bytes()
                << " corrupt tail byte(s); cold past the valid prefix\n";
    } else {
      std::cerr << "tydid: journal " << config.journal_path
                << " recovered " << journal->recovered_records()
                << " record(s)\n";
    }
  }
  service.start_replay();
  std::cerr << "tydid: serving on " << socket_path << " ("
            << service.workers() << " workers, queue capacity "
            << config.queue_capacity << ")\n";
  tydi::support::Status status = tydi::service::serve(service, server_config);
  if (!status.is_ok()) {
    std::cerr << "error: " << status.render() << "\n";
    return status.exit_code();
  }
  auto& reg = tydi::obs::MetricsRegistry::global();
  std::cerr << "tydid: shut down after "
            << reg.counter("tydi.service.requests").value() << " request(s), "
            << reg.counter("tydi.service.shed_total").value() << " shed\n";
  return 0;
}
