#include "src/sim/metrics.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string_view>

#include "src/support/text.hpp"

namespace tydi::sim {

std::vector<ChannelStats> rank_bottlenecks(const SimResult& result) {
  std::vector<ChannelStats> ranked = result.channels;
  // Name tie-break at equal blocked time: the ranking must be identical
  // across runs regardless of channel construction order.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ChannelStats& a, const ChannelStats& b) {
                     if (a.blocked_ns != b.blocked_ns) {
                       return a.blocked_ns > b.blocked_ns;
                     }
                     return a.name < b.name;
                   });
  return ranked;
}

std::string render_bottleneck_report(const SimResult& result,
                                     std::size_t limit) {
  support::TextTable table;
  table.header({"channel", "packets", "blocked_ns"});
  std::size_t shown = 0;
  for (const ChannelStats& c : rank_bottlenecks(result)) {
    if (shown++ >= limit) break;
    table.row({c.name, std::to_string(c.packets),
               support::format_fixed(c.blocked_ns, 1)});
  }
  std::ostringstream out;
  out << "Bottleneck report (worst blocked channels first)\n"
      << table.render();
  if (result.deadlock) {
    out << "DEADLOCK detected";
    if (!result.deadlock_cycle.empty()) {
      out << "; wait-for cycle: "
          << support::join(result.deadlock_cycle, " -> ");
    }
    out << "\n";
    for (const std::string& line : result.blocked_report) {
      out << "  " << line << "\n";
    }
  }
  return out.str();
}

namespace {

/// Row indices of a transition table grouped by component path (sorted by
/// path), each group in table order. Keys view the table's path strings.
std::map<std::string_view, std::vector<std::size_t>> rows_by_component(
    const StateTransitionTable& table) {
  std::map<std::string_view, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < table.size(); ++i) {
    groups[table.component_path(table.row(i).component)].push_back(i);
  }
  return groups;
}

bool same_symbols(const TransitionRow& a, const TransitionRow& b) {
  return a.variable == b.variable && a.from == b.from && a.to == b.to;
}

}  // namespace

std::string render_state_table(const SimResult& result) {
  const StateTransitionTable& table = result.state_transitions;
  std::ostringstream out;
  out << "State-transition table\n";
  for (const auto& [component, rows] : rows_by_component(table)) {
    out << "  " << component << ":\n";
    for (std::size_t i : rows) {
      const StateTransition t = table[i];
      out << "    " << support::format_fixed(t.time_ns, 1) << " ns: "
          << t.variable << ": \"" << t.from << "\" -> \"" << t.to
          << "\"\n";
    }
  }
  return out.str();
}

bool results_identical(const SimResult& a, const SimResult& b,
                       std::string* why) {
  auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.aborted != b.aborted) return fail("aborted flag differs");
  if (a.abort_reason != b.abort_reason) return fail("abort_reason differs");
  if (a.end_time_ns != b.end_time_ns) return fail("end_time_ns differs");
  if (a.events_processed != b.events_processed) {
    return fail("events_processed differs: " +
                std::to_string(a.events_processed) + " vs " +
                std::to_string(b.events_processed));
  }
  if (a.deadlock != b.deadlock) return fail("deadlock flag differs");
  if (a.deadlock_cycle != b.deadlock_cycle) {
    return fail("deadlock_cycle differs");
  }
  if (a.blocked_report != b.blocked_report) {
    return fail("blocked_report differs");
  }
  if (a.channels.size() != b.channels.size()) {
    return fail("channel count differs");
  }
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    const ChannelStats& ca = a.channels[i];
    const ChannelStats& cb = b.channels[i];
    if (ca.name != cb.name || ca.packets != cb.packets ||
        ca.blocked_ns != cb.blocked_ns ||
        ca.first_delivery_ns != cb.first_delivery_ns ||
        ca.last_delivery_ns != cb.last_delivery_ns ||
        ca.top_port != cb.top_port || ca.top_input != cb.top_input ||
        ca.top_output != cb.top_output) {
      return fail("channel stats differ at '" + ca.name + "'");
    }
  }
  if (a.component_events != b.component_events) {
    return fail("per-component event counts differ");
  }
  if (a.top_outputs.size() != b.top_outputs.size()) {
    return fail("top_outputs port set differs");
  }
  for (const auto& [port, packets] : a.top_outputs) {
    auto it = b.top_outputs.find(port);
    if (it == b.top_outputs.end() || it->second.size() != packets.size()) {
      return fail("top output '" + port + "' differs in packet count");
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (packets[i].first != it->second[i].first ||
          packets[i].second.value != it->second[i].second.value ||
          packets[i].second.last != it->second[i].second.last) {
        return fail("top output '" + port + "' differs at packet " +
                    std::to_string(i));
      }
    }
  }
  if (a.trace.size() != b.trace.size()) return fail("trace length differs");
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    // Column compare; name/boundary fields are per-channel and covered by
    // the ChannelStats comparison above.
    if (a.trace.time_ns(i) != b.trace.time_ns(i) ||
        a.trace.channel(i) != b.trace.channel(i) ||
        a.trace.value(i) != b.trace.value(i) ||
        a.trace.last(i) != b.trace.last(i)) {
      return fail("trace differs at event " + std::to_string(i));
    }
  }
  const StateTransitionTable& ta = a.state_transitions;
  const StateTransitionTable& tb = b.state_transitions;
  if (ta.size() != tb.size()) return fail("state transition count differs");
  for (std::size_t i = 0; i < ta.size(); ++i) {
    // Row compare: symbols are process-wide, so equal names are equal
    // integers; component indices may differ, their paths must not.
    const TransitionRow& ra = ta.row(i);
    const TransitionRow& rb = tb.row(i);
    if (ra.time_ns != rb.time_ns || !same_symbols(ra, rb) ||
        ta.component_path(ra.component) != tb.component_path(rb.component)) {
      return fail("state transition differs at " + std::to_string(i));
    }
  }
  return true;
}

bool results_functionally_equivalent(const SimResult& a, const SimResult& b,
                                     std::string* why) {
  auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.aborted != b.aborted) return fail("aborted flag differs");
  if (a.deadlock != b.deadlock) return fail("deadlock flag differs");

  // Per-channel delivered counts, keyed by name (channel construction order
  // is deterministic, but keying by name makes the diagnostic readable).
  if (a.channels.size() != b.channels.size()) {
    return fail("channel count differs");
  }
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    const ChannelStats& ca = a.channels[i];
    const ChannelStats& cb = b.channels[i];
    if (ca.name != cb.name) return fail("channel order differs");
    if (ca.packets != cb.packets) {
      return fail("delivered packet count differs at '" + ca.name + "': " +
                  std::to_string(ca.packets) + " vs " +
                  std::to_string(cb.packets));
    }
  }

  // Per-channel traced payload sequences: same packets in the same FIFO
  // order, whatever their timestamps.
  if (!a.trace.empty() && !b.trace.empty()) {
    if (a.trace.size() != b.trace.size()) {
      return fail("trace length differs");
    }
    std::vector<std::vector<std::size_t>> per_channel_a(a.channels.size());
    std::vector<std::vector<std::size_t>> per_channel_b(b.channels.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      per_channel_a[a.trace.channel(i)].push_back(i);
      per_channel_b[b.trace.channel(i)].push_back(i);
    }
    for (std::size_t ch = 0; ch < per_channel_a.size(); ++ch) {
      const auto& ia = per_channel_a[ch];
      const auto& ib = per_channel_b[ch];
      if (ia.size() != ib.size()) {
        return fail("traced packet count differs on '" +
                    a.channels[ch].name + "'");
      }
      for (std::size_t j = 0; j < ia.size(); ++j) {
        if (a.trace.value(ia[j]) != b.trace.value(ib[j]) ||
            a.trace.last(ia[j]) != b.trace.last(ib[j])) {
          return fail("traced payload differs on '" + a.channels[ch].name +
                      "' at packet " + std::to_string(j));
        }
      }
    }
  }

  // Top output payload sequences per port.
  if (a.top_outputs.size() != b.top_outputs.size()) {
    return fail("top_outputs port set differs");
  }
  for (const auto& [port, packets] : a.top_outputs) {
    auto it = b.top_outputs.find(port);
    if (it == b.top_outputs.end() || it->second.size() != packets.size()) {
      return fail("top output '" + port + "' differs in packet count");
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (packets[i].second.value != it->second[i].second.value ||
          packets[i].second.last != it->second[i].second.last) {
        return fail("top output '" + port + "' differs at packet " +
                    std::to_string(i));
      }
    }
  }

  // State-transition sequences grouped per component (cross-component
  // interleaving is timing, the per-component order is causality).
  const StateTransitionTable& ta = a.state_transitions;
  const StateTransitionTable& tb = b.state_transitions;
  auto ga = rows_by_component(ta);
  auto gb = rows_by_component(tb);
  if (ga.size() != gb.size()) return fail("transitioning component sets differ");
  for (const auto& [component, seq] : ga) {
    auto it = gb.find(component);
    if (it == gb.end() || it->second.size() != seq.size()) {
      return fail("state transition count differs for '" +
                  std::string(component) + "'");
    }
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (!same_symbols(ta.row(seq[i]), tb.row(it->second[i]))) {
        return fail("state transition sequence differs for '" +
                    std::string(component) + "' at step " +
                    std::to_string(i));
      }
    }
  }
  return true;
}

}  // namespace tydi::sim
