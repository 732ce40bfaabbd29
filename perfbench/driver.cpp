// perfbench_driver — runs one workload of the repository benchmark and
// prints its metrics (see perfbench/README.md).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --tydid <path> --run-dir <dir>
//                    --trace-dir <dir>
//
// Workloads: tpch_warm, edit_loop (both drive a tydid daemon over its
// AF_UNIX socket), sim_parallelize.shards1 and sim_parallelize.shards2
// (in-process sim::Engine runs). With --trace 0 the result line carries the
// end-to-end metrics; with --trace 1 the per-layer metrics, a layer table,
// and a Chrome trace of the benchmark's own spans. Exit code 0 means the
// run completed; the result line's "correct" says whether every output
// checked out.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <sstream>

#include "bench.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double steal_share(const HostCpu& before, const HostCpu& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

std::vector<bool> calmest(const std::vector<double>& steal, std::size_t keep) {
  std::vector<bool> mask(steal.size(), true);
  if (keep == 0 || keep >= steal.size()) return mask;
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double cut = std::max(sorted[keep - 1], kCalmSteal);
  for (std::size_t i = 0; i < steal.size(); ++i) {
    mask[i] = steal[i] <= cut;
  }
  return mask;
}

std::string SetupClock::note() const {
  char text[160];
  std::snprintf(text, sizeof(text),
                "set-up: CPU time median %.6f s over %zu, wall time median "
                "%.6f s over %zu",
                median(cpu_s_), cpu_s_.size(), median(wall_s_),
                wall_s_.size());
  return text;
}

PhaseStats phase_stats(const std::vector<OpSample>& samples, double seconds,
                       const std::vector<HostCpu>& boundaries,
                       const std::vector<double>& work_cpu_ms) {
  std::vector<std::vector<double>> windows(kWindows), cpu(kWindows);
  const double width = seconds / kWindows;
  for (const OpSample& s : samples) {
    const int w = static_cast<int>(s.at_s / width);
    if (w < 0 || w >= kWindows) continue;
    windows[w].push_back(s.ms);
    if (s.cpu_ms >= 0.0) cpu[w].push_back(s.cpu_ms);
  }
  const bool window_cpu = work_cpu_ms.size() == kWindows + 1;
  std::vector<double> steal(kWindows, 0.0);
  if (boundaries.size() == kWindows + 1) {
    for (int w = 0; w < kWindows; ++w) {
      steal[w] = steal_share(boundaries[w], boundaries[w + 1]);
    }
  }
  const std::vector<bool> use = calmest(steal, kCalmWindows);
  PhaseStats stats;
  std::vector<double> pooled, pooled_cpu, p99s, rates;
  double used_steal = 0.0, used_cpu_ms = 0.0, used_ops = 0.0;
  int used = 0;
  for (int i = 0; i < kWindows; ++i) {
    if (!use[i]) continue;
    const std::vector<double>& w = windows[i];
    pooled.insert(pooled.end(), w.begin(), w.end());
    pooled_cpu.insert(pooled_cpu.end(), cpu[i].begin(), cpu[i].end());
    rates.push_back(static_cast<double>(w.size()) / width);
    if (!w.empty()) p99s.push_back(quantile(w, 0.99));
    if (window_cpu) used_cpu_ms += work_cpu_ms[i + 1] - work_cpu_ms[i];
    used_ops += static_cast<double>(w.size());
    used_steal += steal[i];
    ++used;
  }
  used_steal /= used;
  stats.p50_ms = median(pooled);
  stats.p99_ms = median(p99s);
  stats.ops_per_s = median(rates);
  if (window_cpu) {
    stats.cpu_ms_per_op = used_ops > 0.0 ? used_cpu_ms / used_ops : 0.0;
  } else if (!pooled_cpu.empty()) {
    double sum = 0.0;
    for (const double v : pooled_cpu) sum += v;
    stats.cpu_ms_per_op = sum / static_cast<double>(pooled_cpu.size());
  }
  char text[128];
  std::snprintf(
      text, sizeof(text),
      "host steal %.1f%% of CPU time in the timed phase, %.1f%% in the %d "
      "windows used",
      boundaries.size() == kWindows + 1
          ? 100.0 * steal_share(boundaries.front(), boundaries.back())
          : 0.0,
      100.0 * used_steal, used);
  stats.note = text;
  std::ostringstream per_window;
  per_window << "\nwindow p50_ms / cpu_ms_per_op / steal%:";
  for (int i = 0; i < kWindows; ++i) {
    const double window_cpu_per_op =
        !window_cpu ? median(cpu[i])
        : windows[i].empty()
            ? 0.0
            : (work_cpu_ms[i + 1] - work_cpu_ms[i]) / windows[i].size();
    char cell[64];
    std::snprintf(cell, sizeof(cell), " %.3f/%.3f/%.1f", median(windows[i]),
                  window_cpu_per_op, 100.0 * steal[i]);
    per_window << cell;
  }
  stats.note += per_window.str();
  return stats;
}

double trace_overhead(const std::vector<OpSample>& samples) {
  std::vector<double> traced, untraced;
  for (const OpSample& s : samples) {
    (s.traced ? traced : untraced).push_back(s.ms);
  }
  const double base = median(untraced);
  return base > 0.0 ? median(traced) / base : 0.0;
}

double untraced_p50_ms(const std::vector<OpSample>& samples) {
  std::vector<double> untraced;
  for (const OpSample& s : samples) {
    if (!s.traced) untraced.push_back(s.ms);
  }
  return median(untraced);
}

std::uint64_t digest(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes) ^ (bytes.size() << 1);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_ms(int pid) {
  if (pid == 0) {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }
  // Another process: clock ticks (10 ms), so read it over long spans only.
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields 3.. follow its closing ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 1));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

HostCpu host_cpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostCpu out;
  // Fields: user nice system idle iowait irq softirq steal.
  double field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    out.total += field;
    if (i == 7) out.steal = field;
  }
  return out;
}

void make_dir(const std::string& path, bool fresh) {
  std::error_code ec;
  if (fresh) std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
}

bool write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

void Outcome::fail_check(const std::string& why) {
  if (correct) note("CHECK FAILED: " + why);
  correct = false;
}

namespace {

std::string json_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

}  // namespace

std::string result_line(const Outcome& outcome,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_double(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string metric_table(const std::vector<Metric>& metrics) {
  std::size_t width = 0;
  for (const Metric& m : metrics) width = std::max(width, m.name.size());
  std::ostringstream out;
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%14.4f", m.value);
    out << "  " << m.name << std::string(width - m.name.size() + 2, ' ')
        << value << "  " << m.unit << "\n";
  }
  return out.str();
}

}  // namespace perfbench

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Per-layer metrics: the end-to-end metric (and workload) it should move.
  const char* moves;
};

/// End-to-end metrics (--trace 0). An "op" is one request round trip on
/// the compile workloads and one full simulation on the sim lanes. The
/// gated timing is CPU time, not wall time: on a shared host, wall-clock
/// latency moved by up to 60% with the host's steal share between runs of
/// the same code, far past any bound. Wall-clock latency is printed by every
/// run and reported by the traced run (client.p50_ms, client.p99_ms).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"cpu_ms_per_op", "ms", ""},
    {"peak_rss_mb", "MB", ""},
};

/// Per-layer metrics (--trace 1). Every traced run reports all of them; a
/// layer a workload does not exercise reads 0.
constexpr MetricDef kLayers[] = {
    {"service.requests", "count", "base of the service.* and phase means"},
    {"service.queue_wait_ms", "ms", "client.p50_ms, client.p99_ms (compile)"},
    {"service.exec_ms", "ms", "cpu_ms_per_op (compile workloads)"},
    {"service.transport_ms", "ms", "client.p50_ms on tpch_warm"},
    {"parser.ms", "ms", "cpu_ms_per_op on edit_loop"},
    {"elab.ms", "ms", "cpu_ms_per_op on edit_loop"},
    {"sugar.ms", "ms", "cpu_ms_per_op on tpch_warm"},
    {"ir.lower_ms", "ms", "cpu_ms_per_op on tpch_warm"},
    {"drc.ms", "ms", "cpu_ms_per_op on tpch_warm"},
    {"ir.emit_ms", "ms", "cpu_ms_per_op on tpch_warm"},
    {"vhdl.ms", "ms", "cpu_ms_per_op on tpch_warm"},
    {"parser.cache_lookups", "count", "base of parser.cache_hit_rate"},
    {"parser.cache_hit_rate", "ratio",
     "cpu_ms_per_op; tpch_warm vs edit_loop gap"},
    {"elab.memo_lookups", "count", "base of elab.memo_*"},
    {"elab.memo_hit_rate", "ratio",
     "cpu_ms_per_op; tpch_warm vs edit_loop gap"},
    {"elab.memo_stale", "ratio", "cpu_ms_per_op on edit_loop"},
    {"ir.type_cache_lookups", "count", "base of ir.type_cache_hit_rate"},
    {"ir.type_cache_hit_rate", "ratio",
     "cpu_ms_per_op; tpch_warm vs edit_loop gap"},
    {"vhdl.port_cache_lookups", "count", "base of vhdl.port_cache_hit_rate"},
    {"vhdl.port_cache_hit_rate", "ratio",
     "cpu_ms_per_op; tpch_warm vs edit_loop gap"},
    {"vhdl.bytes_per_request", "B", "cpu_ms_per_op (emission work)"},
    {"driver.parse_cache_entries", "count", "peak_rss_mb on edit_loop"},
    {"driver.memo_impls", "count", "peak_rss_mb on edit_loop"},
    {"journal.appends", "count", "client.p50_ms, client.p99_ms on edit_loop"},
    {"journal.bytes", "B", "client.p50_ms, client.p99_ms on edit_loop"},
    {"sim.graph_build_ms", "ms", "cpu_ms_per_op on sim_parallelize.shards1"},
    {"shard.partition_ms", "ms", "cpu_ms_per_op on sim_parallelize.shards1"},
    {"sim.run_ms", "ms", "cpu_ms_per_op on sim_parallelize.shards1"},
    {"sim.events", "count", "exact; host time per event"},
    {"sim.state_transitions", "count", "exact; merge and interning work"},
    {"shard.rounds", "count", "cpu_ms_per_op, client.p50_ms on .shards2"},
    {"shard.barrier_wait_ms", "ms",
     "cpu_ms_per_op, client.p50_ms on .shards2 (the barrier spins)"},
    {"shard.barrier_share", "ratio",
     "cpu_ms_per_op, client.p50_ms on .shards2"},
    {"client.p50_ms", "ms", "wall-clock op latency, untraced ops"},
    {"client.p99_ms", "ms", "tail of client.p50_ms; host contention"},
    {"client.ops_per_s", "1/s", "closed loop: 1 / mean op wall time"},
    {"obs.trace_overhead", "ratio", "traced vs untraced op median"},
};

template <std::size_t N>
bool collect(const MetricDef (&defs)[N], const perfbench::Outcome& outcome,
             bool required, std::vector<perfbench::Metric>& out) {
  for (const MetricDef& def : defs) {
    const auto it = outcome.values.find(def.name);
    if (it == outcome.values.end() && required) {
      std::cerr << "error: metric " << def.name << " was not measured\n";
      return false;
    }
    out.push_back(perfbench::Metric{
        def.name, it == outcome.values.end() ? 0.0 : it->second, def.unit});
  }
  return true;
}

/// The traced run's per-layer table, with the end-to-end metric each
/// layer metric should move.
std::string layer_table(const std::vector<perfbench::Metric>& metrics) {
  std::ostringstream out;
  out << "per-layer metrics (benchmark spans + program counters)\n"
      << perfbench::metric_table(metrics) << "\nlayer -> end-to-end\n";
  for (const MetricDef& def : kLayers) {
    out << "  " << def.name << " -> " << def.moves << "\n";
  }
  return out.str();
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --tydid <path> --run-dir <dir> "
               "--trace-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--tydid") {
      args.tydid = value;
    } else if (key == "--run-dir") {
      args.run_dir = value;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.run_dir.empty() || args.seconds <= 0.0) {
    return usage();
  }

  perfbench::Outcome outcome;
  if (args.workload == "tpch_warm") {
    outcome = perfbench::run_tpch_warm(args);
  } else if (args.workload == "edit_loop") {
    outcome = perfbench::run_edit_loop(args);
  } else if (args.workload == "sim_parallelize.shards1") {
    outcome = perfbench::run_sim(args, 1);
  } else if (args.workload == "sim_parallelize.shards2") {
    outcome = perfbench::run_sim(args, 2);
  } else {
    std::cerr << "error: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (outcome.attempted == 0) {
    for (const std::string& line : outcome.notes) std::cerr << line << "\n";
    std::cerr << "error: no operation completed\n";
    return 1;
  }
  std::vector<perfbench::Metric> metrics;
  const bool complete = args.trace
                            ? collect(kLayers, outcome, false, metrics)
                            : collect(kEndToEnd, outcome, true, metrics);
  if (!complete) return 1;

  std::cout << "workload " << args.workload << "  seed " << args.seed
            << "  seconds " << args.seconds << "  trace "
            << (args.trace ? 1 : 0) << "  nproc "
            << sysconf(_SC_NPROCESSORS_ONLN) << "\n";
  for (const std::string& line : outcome.notes) std::cout << line << "\n";
  if (args.trace) {
    const std::string base = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    perfbench::make_dir(args.trace_dir);
    const std::string table = layer_table(metrics);
    tydi::obs::SpanTracer& tracer = tydi::obs::SpanTracer::global();
    tracer.set_enabled(false);
    if (!perfbench::write_file(base + ".trace.json",
                               tracer.export_chrome_json()) ||
        !perfbench::write_file(base + ".layers.txt", table)) {
      std::cerr << "error: cannot write " << base << ".*\n";
      return 1;
    }
    std::cout << table << "chrome trace: " << base << ".trace.json ("
              << tracer.size() << " spans)\n";
  } else {
    std::cout << perfbench::metric_table(metrics);
  }
  std::cout << perfbench::result_line(outcome, metrics) << std::endl;
  return 0;
}
