// The one timing and reporting harness of the bench/ gates.
//
//  - sample_pairs() times two sides A and B of a comparison in kPairs
//    pairs. A pair runs A and B in alternating order (A B B A A B ..., the
//    next pair B A A B ...) until each side has run for >= kMinRoundMs,
//    and scores each side by the median ms of its runs. The result is the
//    median and quartiles of the per-pair ratios A/B. A pair during which
//    the host stole CPU time (/proc/stat) is re-run, at most
//    kMaxStealReruns times, and the re-runs are recorded.
//  - Single-threaded sides are timed in process CPU time, which the kernel
//    does not charge with time the host stole; a comparison where either
//    side runs threads is timed in wall-clock time.
//  - JsonWriter writes every BENCH_*.json section: names go through
//    obs::append_json_string and a non-finite number is written as null.
//  - A sanitizer build runs every sampler (one pair) and prints each timing
//    gate without enforcing it (kTimingGatesEnforced); its timings measure
//    the instrumentation. Correctness gates hold in every build.
#pragma once

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"

namespace harness {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool kTimingGatesEnforced = false;
#else
inline constexpr bool kTimingGatesEnforced = true;
#endif

/// Shortest timed round: long enough that a round times the work, not
/// thread start-up or timer noise.
inline constexpr double kMinRoundMs = 50.0;
/// Pairs per comparison (odd, so the median is a sample). On a 4-vCPU
/// shared host the per-pair ratio of a 2-shard wall-clock sim run spreads
/// by about +-5% (quartiles); 31 pairs put the median's standard error
/// near 1.7%, a third of the 5% margin the tightest gate leaves.
inline constexpr int kPairs = kTimingGatesEnforced ? 31 : 1;
/// Re-runs of one pair that saw host steal before its reading is kept.
inline constexpr int kMaxStealReruns = 3;

/// Lower quartile, median and upper quartile of a sample.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

inline Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
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

enum class Clock { kCpu, kWall };

inline double now_ms(Clock clock) {
  timespec ts{};
  clock_gettime(clock == Clock::kCpu ? CLOCK_PROCESS_CPUTIME_ID
                                     : CLOCK_MONOTONIC,
                &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Host steal so far, in clock ticks (the eighth field of the "cpu" line
/// of /proc/stat); 0 when unreadable.
inline std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
  }
  return in ? field : 0;
}

/// Runs `op` until the round lasts >= kMinRoundMs on `clock`; returns the
/// ms per run of `op`.
inline double round_ms(Clock clock, const std::function<void()>& op) {
  const double start = now_ms(clock);
  int runs = 0;
  double elapsed = 0.0;
  do {
    op();
    ++runs;
    elapsed = now_ms(clock) - start;
  } while (elapsed < kMinRoundMs);
  return elapsed / runs;
}

struct PairSample {
  int pairs = 0;
  int steal_reruns = 0;
  Quartiles a_ms;   ///< per pair: median ms per run of side A
  Quartiles b_ms;   ///< per pair: median ms per run of side B
  Quartiles ratio;  ///< per-pair A ms / B ms
};

/// kPairs pairs; in each, single runs of A and B alternate in the order
/// A B B A A B ... (B A A B ... in every other pair) until each side has
/// run >= kMinRoundMs. Both sides see the same host conditions, and a
/// cost that alternates from run to run (threaded runs show one) falls on
/// both sides alike. A side scores the median of its runs in the pair,
/// which a run the scheduler preempted does not move.
inline PairSample sample_pairs(Clock clock, const std::function<void()>& a,
                               const std::function<void()>& b) {
  PairSample sample;
  sample.pairs = kPairs;
  std::vector<double> a_ms, b_ms, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    std::vector<double> runs[2];  // ms per run of A, of B
    for (int rerun = 0;; ++rerun) {
      const std::uint64_t steal = steal_ticks();
      runs[0].clear();
      runs[1].clear();
      double total[2] = {0.0, 0.0};
      while (total[0] < kMinRoundMs || total[1] < kMinRoundMs) {
        const int first = (pair + static_cast<int>(runs[0].size())) % 2;
        for (const int side : {first, 1 - first}) {
          const double start = now_ms(clock);
          (side == 0 ? a : b)();
          runs[side].push_back(now_ms(clock) - start);
          total[side] += runs[side].back();
        }
      }
      if (steal_ticks() == steal || rerun == kMaxStealReruns) break;
      ++sample.steal_reruns;
    }
    a_ms.push_back(quartiles(std::move(runs[0])).median);
    b_ms.push_back(quartiles(std::move(runs[1])).median);
    ratios.push_back(a_ms.back() / b_ms.back());
  }
  sample.a_ms = quartiles(std::move(a_ms));
  sample.b_ms = quartiles(std::move(b_ms));
  sample.ratio = quartiles(std::move(ratios));
  return sample;
}

/// "1.013 (q1 0.998, q3 1.021; 31 pairs, 0 steal re-runs)".
inline std::string describe(const PairSample& s) {
  auto num = [](double v) { return tydi::obs::json_number(v); };
  return num(s.ratio.median) + " (q1 " + num(s.ratio.q1) + ", q3 " +
         num(s.ratio.q3) + "; " + std::to_string(s.pairs) + " pairs, " +
         std::to_string(s.steal_reruns) + " steal re-runs)";
}

/// A correctness gate: prints "error: <what>" unless it holds.
inline bool check(bool holds, std::string_view what) {
  if (!holds) std::cerr << "error: " << what << "\n";
  return holds;
}

/// Prints one timing gate and returns whether the run may pass it:
/// `value` must be >= `bound` (a floor) or <= `bound` (a ceiling). A
/// sanitizer build prints the reading as not gated.
enum class Bound { kFloor, kCeiling };
inline bool timing_gate(std::string_view what, double value, Bound kind,
                        double bound) {
  const bool holds = kind == Bound::kFloor ? value >= bound : value <= bound;
  std::cout << what << " " << tydi::obs::json_number(value)
            << (kind == Bound::kFloor ? " >= " : " <= ")
            << tydi::obs::json_number(bound) << ": "
            << (!kTimingGatesEnforced ? "not gated in a sanitizer build"
                : holds               ? "ok"
                                      : "VIOLATED")
            << "\n";
  return holds || !kTimingGatesEnforced;
}

/// Streams one JSON value at a time. Members of the outer two levels go
/// on their own lines; deeper containers and scalar array elements stay on
/// one line.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view name) {
    separate(true);
    tydi::obs::append_json_string(out_, name);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    separate(false);
    out_ += std::isfinite(v) ? tydi::obs::json_number(v) : "null";
    return *this;
  }
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    separate(false);
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    separate(false);
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::string_view text) {
    separate(false);
    tydi::obs::append_json_string(out_, text);
    return *this;
  }
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(const Quartiles& q) {
    return begin_object()
        .field("q1", q.q1)
        .field("median", q.median)
        .field("q3", q.q3)
        .end_object();
  }

  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// A sample as `{"pairs", "steal_reruns", "<a>_ms", "<b>_ms", "ratio"}`,
  /// naming the two sides.
  JsonWriter& sample(std::string_view name, std::string_view a,
                     std::string_view b, const PairSample& s) {
    return key(name)
        .begin_object()
        .field("pairs", s.pairs)
        .field("steal_reruns", s.steal_reruns)
        .field(std::string(a) + "_ms", s.a_ms)
        .field(std::string(b) + "_ms", s.b_ms)
        .field("ratio", s.ratio)
        .end_object();
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char bracket) {
    separate(true);
    out_ += bracket;
    levels_.emplace_back();
    return *this;
  }
  JsonWriter& close(char bracket) {
    const bool broken = levels_.back().broken;
    levels_.pop_back();
    if (broken) newline();
    out_ += bracket;
    return *this;
  }
  /// Before a key, or a value not preceded by its key. Keys and
  /// containers of the outer kBrokenLevels levels start a new line.
  void separate(bool breakable) {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (levels_.empty()) return;
    Level& level = levels_.back();
    const bool line = breakable && levels_.size() <= kBrokenLevels;
    if (!level.first) out_ += line ? "," : ", ";
    if (line) newline();
    level.first = false;
    level.broken = level.broken || line;
  }
  void newline() {  // a section sits one level deep in its file's array
    out_ += '\n';
    out_.append(2 * levels_.size() + 2, ' ');
  }

  static constexpr std::size_t kBrokenLevels = 2;
  std::string out_;
  struct Level {       ///< one open container
    bool first = true;    ///< nothing written in it yet
    bool broken = false;  ///< some member started a new line
  };
  std::vector<Level> levels_;
  bool after_key_ = false;
};

/// Writes `{"benchmark": name, ...fill...}` as the `name` section of the
/// JSON array at `path` (see bench_json.hpp). False, with a message, when
/// the section is not valid JSON or the file cannot be written.
inline bool write_section(const std::string& path, std::string_view name,
                          const std::function<void(JsonWriter&)>& fill) {
  JsonWriter json;
  json.begin_object().field("benchmark", name);
  fill(json);
  json.end_object();
  std::string marker;
  tydi::obs::append_json_string(marker, "benchmark");
  marker += ": ";
  tydi::obs::append_json_string(marker, name);
  if (!tydi::obs::json_valid(json.str()) ||
      !benchjson::upsert_section(path, marker, json.str())) {
    std::cerr << "error: cannot write section " << name << " to " << path
              << "\n";
    return false;
  }
  return true;
}

/// The Sec. IV-B scaling design: `channels` processing units (7 ns service
/// time) behind a demux/mux pair.
inline std::string parallelize_source(int channels) {
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
                 std::to_string(channels));
  return source;
}

}  // namespace harness
