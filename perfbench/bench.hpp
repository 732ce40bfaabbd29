// Shared pieces of the perfbench driver: arguments, the seeded generator,
// sample statistics, the result line, and small process helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the tydid binary (compile workloads).
  std::string tydid;
  /// Scratch directory of this run, relative to the working directory.
  std::string run_dir;
  /// Where the traced run writes its Chrome trace and layer table.
  std::string trace_dir;
};

/// splitmix64 — the same counter-free idiom as the program's fault plans.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a lane tag.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t lane) {
  Rng rng(seed * 0x100000001b3ULL + lane);
  return rng.next();
}

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// One timed operation: when it completed (seconds into the timed phase),
/// how long it took, the CPU time it used when known (else negative), and
/// whether the span tracer was on for it.
struct OpSample {
  double at_s = 0.0;
  double ms = 0.0;
  bool traced = false;
  double cpu_ms = -1.0;
};

/// Content digest used to compare daemon payloads with reference compiles.
std::uint64_t digest(std::string_view bytes);

/// Steal and total jiffies of all CPUs (/proc/stat). On a virtual machine,
/// steal is time the host ran something else while a vCPU wanted to run.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
};
HostCpu host_cpu();
/// Share of CPU time the host stole between two readings.
double steal_share(const HostCpu& before, const HostCpu& after);
/// Marks the `keep` entries with the least steal, plus any entry tied with
/// the last of them and any entry with at most kCalmSteal.
std::vector<bool> calmest(const std::vector<double>& steal, std::size_t keep);
/// A steal share this low leaves an entry in, so a calm run averages over
/// all of its windows instead of an arbitrary half of them.
inline constexpr double kCalmSteal = 0.01;

/// Set-ups per run. setup_s is the median CPU time of them.
inline constexpr int kSetups = 16;

/// The repeated set-ups of one run: their CPU time, which setup_s reports
/// (like cpu_ms_per_op, it does not move with the host's steal), and their
/// wall time, which is printed.
class SetupClock {
 public:
  void start() { start_ = Clock::now(); }
  void stop() {
    wall_s_.push_back(ms_between(start_, Clock::now()) / 1000.0);
  }
  void add_cpu_ms(double ms) { cpu_s_.push_back(ms / 1000.0); }
  [[nodiscard]] double cpu_median_s() const { return median(cpu_s_); }
  /// "set-up ..." line with both medians and the sample counts.
  [[nodiscard]] std::string note() const;

 private:
  Clock::time_point start_;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};

/// Latency and throughput of a timed phase. The phase is cut into kWindows
/// equal windows (by op completion time), with a host_cpu() reading at each
/// window boundary. The metrics use the kCalmWindows windows in which the
/// host stole the least CPU time (more on ties, and every window with at
/// most kCalmSteal), so a run that other tenants of a shared host slowed
/// for part of its time still reads what the program does: p50 over their
/// pooled ops, p99 and ops/s as medians over those windows.
struct PhaseStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ops_per_s = 0.0;
  /// Mean CPU time per op in the windows used: the work process's CPU time
  /// over the ops completed when `work_cpu_ms` is given, else the mean of
  /// the ops' own cpu_ms.
  double cpu_ms_per_op = 0.0;
  /// Host steal over the whole phase and over the windows used.
  std::string note;
};
inline constexpr int kWindows = 10;
inline constexpr int kCalmWindows = 5;
/// `boundaries` holds kWindows + 1 readings (phase start, each boundary,
/// phase end); with any other count every window is used. `work_cpu_ms`,
/// when it has kWindows + 1 entries, is the CPU time (process_cpu_ms) of
/// the process doing the work, read at the same moments.
PhaseStats phase_stats(const std::vector<OpSample>& samples, double seconds,
                       const std::vector<HostCpu>& boundaries,
                       const std::vector<double>& work_cpu_ms = {});

/// VmHWM of a process in MiB (0 when unreadable). pid 0 = this process.
double peak_rss_mb(int pid = 0);

/// User + system CPU time of a process in ms, all its threads, live and
/// exited. pid 0 = this process (ns resolution); another process is read
/// from /proc/<pid>/stat (10 ms resolution). The kernel charges
/// neither time the host stole from a vCPU nor time spent waiting to run,
/// so this reads the work a process did even on a busy shared host.
double process_cpu_ms(int pid = 0);

/// Creates `path` and its parents; removes everything below it first when
/// `fresh` is set.
void make_dir(const std::string& path, bool fresh = false);
bool write_file(const std::string& path, std::string_view text);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: the correctness verdict, operation counts,
/// and named values. With --trace 0 a workload fills the end-to-end values,
/// with --trace 1 the per-layer ones; driver.cpp holds both catalogs
/// (names, units, order).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable lines printed before the metric table.
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed correctness check (the run stays correct=false).
  void fail_check(const std::string& why);
};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string result_line(const Outcome& outcome,
                        const std::vector<Metric>& metrics);

/// Aligned table of metrics (name, value, unit).
std::string metric_table(const std::vector<Metric>& metrics);

/// obs.trace_overhead: the traced ops' median latency over the untraced
/// ops' (the traced run interleaves the two).
double trace_overhead(const std::vector<OpSample>& samples);
/// Median latency of the untraced ops (client.p50_ms of the traced run).
double untraced_p50_ms(const std::vector<OpSample>& samples);

Outcome run_tpch_warm(const Args& args);
Outcome run_edit_loop(const Args& args);
Outcome run_sim(const Args& args, int shards);

}  // namespace perfbench
