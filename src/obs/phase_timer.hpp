// Scoped phase timer: the one way a layer times its coarse phases.
//
// On destruction it adds the elapsed wall clock to a support::PhaseTimings,
// observes it in the `tydi.<subsystem>.phase_ms.<phase>` histogram, and
// records a `<subsystem>.phase.<phase>` span when the tracer is enabled.
// The compiler driver times its pipeline phases with subsystem "compile",
// the simulator its stages with subsystem "sim".
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/support/phase_timings.hpp"

namespace tydi::obs {

/// The calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID) in ms. A
/// syscall on some kernels, so it is read per request, never per stage.
[[nodiscard]] double thread_cpu_ms();

class PhaseTimer {
 public:
  PhaseTimer(support::PhaseTimings& out, std::string_view subsystem,
             std::string_view phase);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  support::PhaseTimings& out_;
  std::string_view subsystem_;
  std::string_view phase_;
  std::chrono::steady_clock::time_point start_;
  std::int64_t span_start_ns_ = -1;
};

}  // namespace tydi::obs
