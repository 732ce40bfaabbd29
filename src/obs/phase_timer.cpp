#include "src/obs/phase_timer.hpp"

#include <ctime>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace tydi::obs {

namespace {

/// The `tydi.<subsystem>.phase_ms.<phase>` histogram, resolved through the
/// registry once per thread and (subsystem, phase): timers run on every
/// request, and the name build plus registry lookup would otherwise cost
/// more than a short stage itself.
Histogram& phase_histogram(std::string_view subsystem, std::string_view phase) {
  struct Slot {
    std::string subsystem;
    std::string phase;
    Histogram* histogram;
  };
  thread_local std::vector<Slot> slots;
  for (const Slot& slot : slots) {
    if (slot.subsystem == subsystem && slot.phase == phase) {
      return *slot.histogram;
    }
  }
  std::string name = "tydi.";
  name.append(subsystem).append(".phase_ms.").append(phase);
  Histogram& histogram = MetricsRegistry::global().histogram(name);
  slots.push_back(
      Slot{std::string(subsystem), std::string(phase), &histogram});
  return histogram;
}

}  // namespace

double thread_cpu_ms() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

PhaseTimer::PhaseTimer(support::PhaseTimings& out, std::string_view subsystem,
                       std::string_view phase)
    : out_(out),
      subsystem_(subsystem),
      phase_(phase),
      start_(std::chrono::steady_clock::now()) {
  if (SpanTracer::global().enabled()) span_start_ns_ = SpanTracer::now_ns();
}

PhaseTimer::~PhaseTimer() {
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  out_.add(phase_, ms);
  // One histogram per phase plus a tracer span over the same interval.
  phase_histogram(subsystem_, phase_).observe(ms);
  if (span_start_ns_ >= 0 && SpanTracer::global().enabled()) {
    std::string span(subsystem_);
    span.append(".phase.").append(phase_);
    SpanTracer::global().record(span, span_start_ns_,
                                SpanTracer::now_ns() - span_start_ns_);
  }
}

}  // namespace tydi::obs
