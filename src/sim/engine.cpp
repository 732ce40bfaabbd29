#include "src/sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "src/obs/phase_timer.hpp"
#include "src/sim/behavior.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/shard/runtime.hpp"
#include "src/support/text.hpp"

namespace tydi::sim {

using elab::Connection;
using elab::Design;
using elab::Endpoint;
using elab::Impl;
using elab::Instance;
using elab::Port;
using elab::Streamlet;

Component::Component() = default;
Component::Component(Component&&) noexcept = default;
Component& Component::operator=(Component&&) noexcept = default;
Component::~Component() = default;

const ChannelStats* SimResult::bottleneck() const {
  const ChannelStats* best = nullptr;
  for (const ChannelStats& c : channels) {
    if (c.blocked_ns <= 0.0) continue;
    if (best == nullptr || c.blocked_ns > best->blocked_ns ||
        (c.blocked_ns == best->blocked_ns && c.name < best->name)) {
      best = &c;
    }
  }
  return best;
}

TraceEvent SimResult::trace_event(std::size_t i) const {
  TraceEvent ev;
  ev.time_ns = trace.time_ns(i);
  ev.channel_index = trace.channel(i);
  ev.packet = Packet{trace.value(i), trace.last(i)};
  const ChannelStats& c = channels[ev.channel_index];
  ev.channel = c.name;
  ev.is_top_input = c.top_input;
  ev.is_top_output = c.top_output;
  ev.top_port = c.top_port;
  return ev;
}

StateTransition StateTransitionTable::operator[](std::size_t i) const {
  const TransitionRow& r = rows_[i];
  return StateTransition{r.time_ns, component_path(r.component),
                         support::symbol_name(r.variable),
                         support::symbol_name(r.from),
                         support::symbol_name(r.to)};
}

double SimResult::throughput(const std::string& top_port) const {
  auto it = top_outputs.find(top_port);
  if (it == top_outputs.end() || it->second.size() < 2) return 0.0;
  double span = it->second.back().first - it->second.front().first;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(it->second.size() - 1) / span;
}

std::string ShardForensics::summary() const {
  std::ostringstream out;
  out << "shard " << shard << ": window=";
  if (window_time_ns == kInfiniteTime) {
    out << "idle";
  } else {
    out << window_time_ns << "ns";
  }
  out << " last_event=" << last_event_time_ns << "ns"
      << " events=" << events_processed << " queue=" << queue_depth
      << " mailbox=" << mailbox_depth << " credits=" << credit_balance
      << " unacked=" << unacked
      << " pending_ack_batches=" << pending_ack_batches
      << " rounds=" << window_rounds << " window/" << timestep_rounds
      << " timestep fixpoint_steps=" << fixpoint_steps
      << " exchanges=" << exchanges << " barrier_wait=" << barrier_wait_ms
      << "ms";
  return out.str();
}

support::Status SimResult::status() const {
  using support::Status;
  using support::StatusCode;
  if (!setup_error.empty()) {
    return Status::error(StatusCode::kInvalidArgument, "sim", setup_error);
  }
  if (aborted) {
    return Status::error(StatusCode::kAborted, "sim",
                         "run aborted (" + abort_reason + ") at " +
                             std::to_string(end_time_ns) + " ns");
  }
  if (deadlock) {
    std::string what = "simulation deadlocked";
    if (!deadlock_cycle.empty()) {
      what += ": " + support::join(deadlock_cycle, " -> ");
    }
    return Status::error(StatusCode::kDeadlock, "sim", std::move(what));
  }
  return Status::ok();
}

std::string SimResult::summary() const {
  std::ostringstream out;
  if (!setup_error.empty()) return "simulation not run: " + setup_error + "\n";
  if (aborted) {
    out << "simulation ABORTED (" << abort_reason << ") at " << end_time_ns
        << " ns\n";
    for (const ShardForensics& f : shard_forensics) {
      out << "  " << f.summary() << "\n";
    }
    return out.str();
  }
  out << "simulation finished at " << end_time_ns << " ns";
  if (deadlock) {
    out << " [DEADLOCK]";
    if (!deadlock_cycle.empty()) {
      out << " cycle: " << support::join(deadlock_cycle, " -> ");
    }
  }
  out << "\n";
  for (const auto& [port, packets] : top_outputs) {
    out << "  top output '" << port << "': " << packets.size()
        << " packet(s)";
    double tp = throughput(port);
    if (tp > 0.0) {
      out << ", " << support::format_fixed(tp * 1000.0, 3)
          << " packets/us steady-state";
    }
    out << "\n";
  }
  if (const ChannelStats* b = bottleneck()) {
    out << "  bottleneck: " << b->name << " (blocked "
        << support::format_fixed(b->blocked_ns, 1) << " ns)\n";
  }
  if (!shard_forensics.empty()) {
    // Every shard of a finished run takes the same steps.
    const ShardForensics& f = shard_forensics.front();
    out << "  rounds: " << f.window_rounds << " window, " << f.timestep_rounds
        << " timestep, " << f.fixpoint_steps << " fixpoint step(s), "
        << f.exchanges << " exchange(s) per shard\n";
  }
  return out.str();
}

std::string SimGraph::endpoint_name(const ChannelEndpoint& ep) const {
  const Streamlet* s =
      ep.component < 0 ? top_streamlet : components[ep.component].streamlet;
  std::string port = s != nullptr && ep.port >= 0 &&
                             static_cast<std::size_t>(ep.port) <
                                 s->ports.size()
                         ? s->ports[ep.port].name
                         : "<port " + std::to_string(ep.port) + ">";
  if (ep.component < 0) return "top." + port;
  return components[ep.component].path + "." + port;
}

std::string SimGraph::channel_display_name(const Channel& c) const {
  return endpoint_name(c.src) + " -> " + endpoint_name(c.dst);
}

namespace {

/// Index-based union-find with path halving; roots by arbitrary attach
/// (net groups are tiny).
class UnionFind {
 public:
  int make_node() {
    parent_.push_back(static_cast<int>(parent_.size()));
    return static_cast<int>(parent_.size()) - 1;
  }
  int find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(int a, int b) { parent_[find(a)] = find(b); }
  [[nodiscard]] std::size_t size() const { return parent_.size(); }

 private:
  std::vector<int> parent_;
};

std::string join_path(const std::string& path, const std::string& name) {
  return path.empty() ? name : path + "." + name;
}

/// One endpoint of a connection net during flattening. Nodes are created
/// with their classification baked in, so channel construction after the
/// union pass is pure index work.
struct FlatNode {
  enum class Kind : std::uint8_t { kLeaf, kTop, kPass };
  Kind kind = Kind::kPass;
  std::int32_t component = -1;  ///< leaf component index (kLeaf)
  std::int32_t port = -1;       ///< port index (kLeaf/kTop)
  bool is_source = false;
  const Port* decl = nullptr;   ///< port declaration (clock domain)
  Symbol key = support::kNoSymbol;  ///< "path:port" for diagnostics
};

/// Transient flattening state: preassigned endpoint-ID table (node key
/// symbol -> dense node id) + union-find over those ids.
struct Flattener {
  UnionFind uf;
  std::vector<FlatNode> nodes;
  std::unordered_map<Symbol, int> node_ids;
  std::vector<std::pair<int, int>> links;

  int node_of(const std::string& path, const std::string& port_name,
              const FlatNode& info) {
    Symbol key = support::intern(path + ":" + port_name);
    auto it = node_ids.find(key);
    if (it != node_ids.end()) return it->second;
    int id = uf.make_node();
    nodes.push_back(info);
    nodes.back().key = key;
    node_ids.emplace(key, id);
    return id;
  }
};

}  // namespace

bool build_sim_graph(const Design& design, const SimOptions& options,
                     support::DiagnosticEngine& diags, SimGraph& graph) {
  graph.design = &design;
  graph.default_period_ns = options.default_period_ns;

  const Impl* top = design.find_impl(design.top());
  if (top == nullptr) {
    diags.error("sim", "design has no top implementation", {});
    return false;
  }
  if (top->external) {
    diags.error("sim", "top implementation must be structural", top->loc);
    return false;
  }
  graph.top_streamlet = design.streamlet_of(*top);

  Flattener flat;

  // Recursive flatten: leaf instances become components; every connection
  // endpoint becomes a dense node id in the endpoint table.
  auto flatten_impl = [&](auto&& self, const Impl& impl,
                          const std::string& path, bool is_top) -> void {
    // Instance name -> leaf component index (-1 = structural child).
    std::unordered_map<Symbol, std::int32_t> local;
    for (const Instance& inst : impl.instances) {
      const Impl* child = design.find_impl(inst.impl_name);
      if (child == nullptr) continue;
      std::string child_path = join_path(path, inst.name);
      if (child->external) {
        std::int32_t index =
            static_cast<std::int32_t>(graph.components.size());
        Component comp;
        comp.path = child_path;
        comp.impl = child;
        comp.streamlet = design.streamlet_of(*child);
        std::size_t nports =
            comp.streamlet != nullptr ? comp.streamlet->ports.size() : 0;
        comp.inbox.resize(nports);
        comp.out_channel.assign(nports, -1);
        comp.in_channel.assign(nports, -1);
        graph.components.push_back(std::move(comp));
        local.emplace(support::intern(inst.name), index);
      } else {
        local.emplace(support::intern(inst.name), -1);
        self(self, *child, child_path, false);
      }
    }
    for (const Connection& c : impl.connections) {
      auto node_of_endpoint = [&](const Endpoint& ep) -> int {
        if (ep.instance.empty()) {
          FlatNode info;
          if (is_top && graph.top_streamlet != nullptr) {
            int port =
                graph.top_streamlet->port_index(support::intern(ep.port));
            if (port >= 0) {
              const Port& decl = graph.top_streamlet->ports[port];
              info.kind = FlatNode::Kind::kTop;
              info.port = port;
              info.decl = &decl;
              // A top *input* drives data into the design: source side.
              info.is_source = (decl.dir == lang::PortDir::kIn);
            }
          }
          return flat.node_of(path, ep.port, info);
        }
        std::string child_path = join_path(path, ep.instance);
        FlatNode info;
        auto lit = local.find(support::intern(ep.instance));
        if (lit != local.end() && lit->second >= 0) {
          const Component& comp = graph.components[lit->second];
          int port = comp.streamlet != nullptr
                         ? comp.streamlet->port_index(support::intern(ep.port))
                         : -1;
          if (port >= 0) {
            const Port& decl = comp.streamlet->ports[port];
            info.kind = FlatNode::Kind::kLeaf;
            info.component = lit->second;
            info.port = port;
            info.decl = &decl;
            info.is_source = (decl.dir == lang::PortDir::kOut);
          }
        }
        return flat.node_of(child_path, ep.port, info);
      };
      flat.links.emplace_back(node_of_endpoint(c.src),
                              node_of_endpoint(c.dst));
    }
  };
  flatten_impl(flatten_impl, *top, "", true);

  for (const auto& [a, b] : flat.links) flat.uf.unite(a, b);

  // Group nodes by net root in node-id order (deterministic channel order),
  // then collapse each net to one channel.
  std::unordered_map<int, std::vector<int>> sets;
  std::vector<int> roots;
  for (int id = 0; id < static_cast<int>(flat.nodes.size()); ++id) {
    int root = flat.uf.find(id);
    auto [it, inserted] = sets.try_emplace(root);
    if (inserted) roots.push_back(root);
    it->second.push_back(id);
  }

  std::size_t top_ports =
      graph.top_streamlet != nullptr ? graph.top_streamlet->ports.size() : 0;
  graph.top_src_channel.assign(top_ports, -1);
  graph.top_out_packets.assign(top_ports, {});
  bool negative_latency = false;

  for (int root : roots) {
    const std::vector<int>& members = sets[root];
    const FlatNode* source = nullptr;
    const FlatNode* sink = nullptr;
    std::size_t leaves = 0;
    for (int id : members) {
      const FlatNode& n = flat.nodes[id];
      if (n.kind == FlatNode::Kind::kPass) continue;
      ++leaves;
      if (n.is_source) {
        source = &n;
      } else {
        sink = &n;
      }
    }
    if (leaves != 2 || source == nullptr || sink == nullptr) {
      diags.warning("sim",
                    "connection net '" +
                        support::symbol_name(flat.nodes[root].key) +
                        "' does not resolve to one source and one sink (" +
                        std::to_string(leaves) + " leaf endpoint(s)); "
                        "skipped",
                    {});
      continue;
    }
    Channel c;
    c.src = ChannelEndpoint{source->component, source->port};
    c.dst = ChannelEndpoint{sink->component, sink->port};
    const std::string& domain =
        source->decl != nullptr ? source->decl->clock_domain : "default";
    auto period_it = options.clock_period_ns.find(domain);
    c.latency_ns = period_it != options.clock_period_ns.end()
                       ? period_it->second
                       : options.default_period_ns;
    if (!(c.latency_ns >= 0.0)) {
      // A cut channel would deliver into the sink shard's past, where the
      // kernel's delay clamp cannot see it.
      c.latency_ns = 0.0;
      negative_latency = true;
    }
    std::int32_t index = static_cast<std::int32_t>(graph.channels.size());
    if (c.src.component >= 0) {
      graph.components[c.src.component].out_channel[c.src.port] = index;
    } else {
      graph.top_src_channel[c.src.port] = index;
    }
    if (c.dst.component >= 0) {
      graph.components[c.dst.component].in_channel[c.dst.port] = index;
    }
    graph.channels.push_back(std::move(c));
  }

  if (negative_latency) {
    diags.warning("sim",
                  "negative or NaN clock period: channel latency clamped to "
                  "0 ns",
                  {});
  }

  // Attach behaviours and resolve per-component clock periods once.
  for (std::size_t i = 0; i < graph.components.size(); ++i) {
    Component& comp = graph.components[i];
    comp.clock_period_ns = options.default_period_ns;
    if (comp.streamlet == nullptr) continue;
    if (!comp.streamlet->ports.empty()) {
      auto it = options.clock_period_ns.find(
          comp.streamlet->ports.front().clock_domain);
      if (it != options.clock_period_ns.end()) {
        comp.clock_period_ns = it->second;
      }
    }
    std::map<std::string, double> params;
    auto pit = options.model_params.find(comp.path);
    if (pit != options.model_params.end()) params = pit->second;
    comp.behavior = make_behavior(*comp.impl, *comp.streamlet, params, diags);
  }

  // Stimulus cursor table (global indices: options order).
  for (const Stimulus& stim : options.stimuli) {
    int port = graph.top_streamlet != nullptr
                   ? graph.top_streamlet->port_index(support::intern(stim.port))
                   : -1;
    std::int32_t ch = port >= 0 ? graph.top_src_channel[port] : -1;
    if (ch < 0) {
      diags.warning("sim",
                    "stimulus targets unknown top input '" + stim.port + "'",
                    {});
      continue;
    }
    if (stim.packets.empty()) continue;
    graph.stimulus_cursors.push_back(StimulusCursor{ch, &stim, 0});
  }

  const support::Status fits = check_event_operand_counts(
      graph.components.size(), graph.channels.size(),
      graph.stimulus_cursors.size());
  if (!fits) {
    diags.error("sim", fits.message(), {});
    return false;
  }
  graph.component_shard.assign(graph.components.size(), 0);
  graph.shard_count = 1;
  return true;
}

std::vector<Stimulus> generic_stimuli(const Design& design, int packets,
                                      double interval_ns) {
  std::vector<Stimulus> stimuli;
  const Impl* top = design.find_impl(design.top());
  const Streamlet* s = top != nullptr ? design.streamlet_of(*top) : nullptr;
  if (s == nullptr) return stimuli;
  for (const Port& port : s->ports) {
    if (port.dir != lang::PortDir::kIn) continue;
    Stimulus stim;
    stim.port = port.name;
    stim.packets.reserve(static_cast<std::size_t>(packets));
    for (int i = 0; i < packets; ++i) {
      stim.packets.emplace_back(interval_ns * i,
                                Packet{i, i == packets - 1});
    }
    stimuli.push_back(std::move(stim));
  }
  return stimuli;
}

Engine::Engine(const Design& design, support::DiagnosticEngine& diags)
    : design_(design), diags_(diags) {}

SimResult Engine::run(const SimOptions& options) {
  SimGraph graph;
  support::PhaseTimings phases;
  bool built = false;
  {
    obs::PhaseTimer timer(phases, "sim", "build_graph");
    built = build_sim_graph(design_, options, diags_, graph);
  }

  // Every run goes through the one round loop (a 1-shard run entirely on
  // this thread), so the RunGuard's event/wall-clock/RSS budgets guard
  // every run shape.
  SimResult result;
  if (built) {
    result = shard::run_sharded(graph, options, diags_);
  } else {
    // build_sim_graph reported why as its last sim diagnostic; the result
    // must not read as a run.
    const std::vector<support::Diagnostic> sim = diags_.by_phase("sim");
    result.setup_error =
        sim.empty() ? "design cannot be simulated" : sim.back().message;
  }
  // The driver's stages follow build_graph in execution order.
  for (const support::PhaseTimings::Entry& e : result.phase_ms) {
    phases.add(e.phase, e.ms);
  }
  result.phase_ms = std::move(phases);
  return result;
}

}  // namespace tydi::sim
