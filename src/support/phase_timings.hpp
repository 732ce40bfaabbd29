// Ordered per-phase wall-clock timings, shared by the compiler pipeline
// (driver::CompileResult::phase_ms) and the simulator
// (sim::SimResult::phase_ms). obs::PhaseTimer fills one from a scope and
// mirrors each phase into the metrics registry.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tydi::support {

/// Wall-clock per phase. Stored as an ordered vector of {phase, ms} so
/// reports print in execution order (parse, elaborate, ... for a compile;
/// build_graph, partition, process, merge for a sim run) instead of the
/// alphabetical order a std::map<std::string, double> imposed.
class PhaseTimings {
 public:
  struct Entry {
    std::string phase;
    double ms = 0.0;
  };

  /// Accumulates `ms` into `phase`, appending on first sight (insertion
  /// order is execution order because callers time phases in order).
  void add(std::string_view phase, double ms);

  [[nodiscard]] bool contains(std::string_view phase) const;
  /// Milliseconds recorded for `phase`; 0.0 when absent.
  [[nodiscard]] double at(std::string_view phase) const;
  [[nodiscard]] double total_ms() const;

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// "parse 0.12ms | elaborate 0.48ms | ..." in execution order.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace tydi::support
