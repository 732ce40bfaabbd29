#include "src/obs/phase_timer.hpp"

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace tydi::obs {

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
  // Both cost a shared-lock name lookup at most — phases are coarse.
  std::string name = "tydi.";
  name.append(subsystem_).append(".phase_ms.").append(phase_);
  MetricsRegistry::global().histogram(name).observe(ms);
  if (span_start_ns_ >= 0 && SpanTracer::global().enabled()) {
    std::string span(subsystem_);
    span.append(".phase.").append(phase_);
    SpanTracer::global().record(span, span_start_ns_,
                                SpanTracer::now_ns() - span_start_ns_);
  }
}

}  // namespace tydi::obs
