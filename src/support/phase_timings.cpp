#include "src/support/phase_timings.hpp"

#include <sstream>

namespace tydi::support {

void PhaseTimings::add(std::string_view phase, double ms) {
  for (Entry& e : entries_) {
    if (e.phase == phase) {
      e.ms += ms;
      return;
    }
  }
  entries_.push_back(Entry{std::string(phase), ms});
}

bool PhaseTimings::contains(std::string_view phase) const {
  for (const Entry& e : entries_) {
    if (e.phase == phase) return true;
  }
  return false;
}

double PhaseTimings::at(std::string_view phase) const {
  for (const Entry& e : entries_) {
    if (e.phase == phase) return e.ms;
  }
  return 0.0;
}

double PhaseTimings::total_ms() const {
  double total = 0.0;
  for (const Entry& e : entries_) total += e.ms;
  return total;
}

std::string PhaseTimings::render() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << " | ";
    out << entries_[i].phase << " " << entries_[i].ms << "ms";
  }
  return out.str();
}

}  // namespace tydi::support
