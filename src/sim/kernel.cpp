#include "src/sim/kernel.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/sim/behavior.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/guard.hpp"

namespace tydi::sim {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving image of a double: non-negative times get the sign bit
/// set, negative times are complemented. `+ 0.0` turns -0.0 into +0.0.
std::uint64_t time_key(double time) {
  const auto bits = std::bit_cast<std::uint64_t>(time + 0.0);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double key_time(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit
                                                     : ~key);
}

}  // namespace

double EventQueue::top_time() const { return key_time(heap_.front().time); }

void EventQueue::push(const Event& ev) {
  const Node node{
      time_key(ev.time),
      (static_cast<std::uint64_t>(ev.kind) << 61) |
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.a))
           << 32) |
          (static_cast<std::uint32_t>(ev.b) ^ 0x80000000u)};
  std::size_t i = heap_.size();
  heap_.push_back(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

Event EventQueue::pop() {
  const Node head = heap_.front();
  const Node last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift the last node down from the root, moving the hole.
    std::size_t i = 0;
    for (std::size_t first = 1; first < n; first = 4 * i + 1) {
      const std::size_t end = std::min(first + 4, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return Event{key_time(head.time),
               static_cast<std::int32_t>((head.tie >> 32) & kMaxOperand),
               static_cast<std::int32_t>(
                   static_cast<std::uint32_t>(head.tie) ^ 0x80000000u),
               static_cast<EventKind>(head.tie >> 61)};
}

support::Status check_event_operand_counts(std::size_t components,
                                           std::size_t channels,
                                           std::size_t stimulus_cursors) {
  constexpr std::size_t kCount = EventQueue::kMaxOperand + 1;
  const char* what = nullptr;
  if (stimulus_cursors > kCount) what = "stimulus streams";
  if (channels > kCount) what = "channels";
  if (components > kCount) what = "components";
  if (what == nullptr) return support::Status::ok();
  return support::Status::error(support::StatusCode::kInvalidArgument, "sim",
                                std::string("design has more ") + what +
                                    " than the event key holds (" +
                                    std::to_string(kCount) + ")");
}

Kernel::Kernel(SimGraph& graph, const SimOptions& options, int shard,
               CrossRouter* router)
    : graph_(graph),
      shard_(shard),
      router_(router),
      trace_enabled_(options.record_trace) {
  for (std::size_t i = 0; i < graph_.channels.size(); ++i) {
    const Channel& c = graph_.channels[i];
    if (c.cross_shard() && c.src_shard == shard_) {
      cross_src_channels_.push_back(static_cast<std::int32_t>(i));
    }
    if (c.cross_shard() && c.dst_shard == shard_) {
      cross_dst_channels_.push_back(static_cast<std::int32_t>(i));
    }
  }
  if (!cross_src_channels_.empty()) {
    cut_deliver_ns_.assign(graph_.channels.size(), kInfiniteTime);
  }
  component_events_.assign(graph_.components.size(), 0);
}

void Kernel::push_event(double delay_ns, EventKind kind, std::int32_t a,
                        std::int32_t b) {
  if (!(delay_ns >= 0.0)) {
    warn_once(WarnSite::kNegativeDelay, -1, -1);
    delay_ns = 0.0;
  }
  queue_.push(Event{now_ + delay_ns, a, b, kind});
}

void Kernel::schedule_timer(double delay_ns, int component,
                            std::int32_t token) {
  push_event(delay_ns, EventKind::kTimer, component, token);
}

void Kernel::schedule_poke(double delay_ns, int component) {
  push_event(delay_ns, EventKind::kPoke, component, -1);
}

void Kernel::seed() {
  for (std::size_t i = 0; i < graph_.stimulus_cursors.size(); ++i) {
    const StimulusCursor& cursor = graph_.stimulus_cursors[i];
    if (cursor.channel < 0 ||
        graph_.channels[cursor.channel].src_shard != shard_) {
      continue;
    }
    queue_.push(Event{cursor.stimulus->packets.front().first,
                      static_cast<std::int32_t>(i), -1, EventKind::kStimulus});
  }
  for (std::size_t i = 0; i < graph_.components.size(); ++i) {
    if (graph_.component_shard[i] != shard_) continue;
    Component& comp = graph_.components[i];
    if (comp.behavior) comp.behavior->on_start(*this, static_cast<int>(i));
  }
}

void Kernel::process_events(double limit, bool inclusive, double max_time_ns) {
  // Guard sync granularity: one store to this shard's counter + one acquire
  // load every 256 events (and once per call) keeps the stop latency in the
  // microseconds without writing a cache line another shard writes. The
  // 256-event syncs also check the run's clock budgets; the last one of a
  // call does not — the caller's exchange (or the end of the run) follows.
  constexpr std::uint64_t kGuardStride = 256;
  std::uint64_t unsynced = 0;
  auto sync_guard = [&](bool stride) {
    if (guard_ == nullptr || unsynced == 0) return false;
    return guard_->publish(shard_, std::exchange(unsynced, 0), stride);
  };
  while (!queue_.empty()) {
    const double head = queue_.top_time();
    if (head > max_time_ns || (inclusive ? head > limit : head >= limit)) {
      break;
    }
    const Event ev = queue_.pop();
    now_ = ev.time;
    if (ev.kind != EventKind::kRemoteAck) {
      events_processed_ += 1;
      if (++unsynced >= kGuardStride && sync_guard(/*stride=*/true)) break;
    }
    dispatch(ev);
  }
  sync_guard(/*stride=*/false);
}

void Kernel::dispatch(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kDeliver:
      deliver(static_cast<std::size_t>(ev.a));
      break;
    case EventKind::kTimer: {
      component_events_[ev.a] += 1;
      Component& comp = graph_.components[ev.a];
      if (comp.behavior) comp.behavior->on_timer(*this, ev.a, ev.b);
      break;
    }
    case EventKind::kPoke:
      component_events_[ev.a] += 1;
      poke(ev.a);
      break;
    case EventKind::kStimulus: {
      StimulusCursor& cursor = graph_.stimulus_cursors[ev.a];
      send_on_channel(static_cast<std::size_t>(cursor.channel),
                      cursor.stimulus->packets[cursor.next].second);
      cursor.next += 1;
      if (cursor.next < cursor.stimulus->packets.size()) {
        // Packets enter the channel in list order; out-of-order timestamps
        // clamp to "now".
        double at = cursor.stimulus->packets[cursor.next].first;
        queue_.push(Event{at > now_ ? at : now_, ev.a, -1,
                          EventKind::kStimulus});
      }
      break;
    }
    case EventKind::kRemoteAck:
      if (graph_.channels[ev.a].credit_mode()) {
        complete_remote_ack_batch(static_cast<std::size_t>(ev.a), ev.b);
      } else {
        complete_remote_ack(static_cast<std::size_t>(ev.a));
      }
      break;
  }
}

std::string Kernel::warn_message(std::uint64_t key) const {
  auto site = static_cast<WarnSite>(key >> 56);
  auto a = static_cast<std::int32_t>((key >> 24) & 0xFFFFFFFFu) - 1;
  auto b = static_cast<std::int32_t>(key & 0xFFFFFFu) - 1;
  switch (site) {
    case WarnSite::kSendUnconnected:
      return "send on unconnected port '" +
             graph_.endpoint_name(ChannelEndpoint{a, b}) + "'";
    case WarnSite::kAckUnconnected:
      return "ack on unconnected port '" +
             graph_.endpoint_name(ChannelEndpoint{a, b}) + "'";
    case WarnSite::kAckEmptyChannel:
      return "ack on empty channel '" +
             graph_.channel_display_name(graph_.channels[a]) + "'";
    case WarnSite::kNegativeDelay:
      return "negative or NaN delay clamped to 0 ns";
  }
  return {};
}

std::string Kernel::warn_first_message(std::uint64_t key) const {
  std::string what = warn_message(key);
  if (static_cast<WarnSite>(key >> 56) == WarnSite::kSendUnconnected) {
    what += "; packet dropped (repeats counted)";
  } else {
    what += " (repeats counted)";
  }
  return what;
}

void Kernel::warn_once(WarnSite site, std::int32_t a, std::int32_t b) {
  std::uint64_t key = (static_cast<std::uint64_t>(site) << 56) |
                      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                           a + 1))
                       << 24) |
                      (static_cast<std::uint32_t>(b + 1) & 0xFFFFFFu);
  if (warn_counts_[key]++ == 0) deferred_warnings_.push_back(key);
}

void Kernel::send(int component, int port, Packet packet) {
  std::int32_t ch = -1;
  if (component >= 0) {
    const Component& comp = graph_.components[component];
    if (port >= 0 && static_cast<std::size_t>(port) < comp.out_channel.size()) {
      ch = comp.out_channel[port];
    }
  } else if (port >= 0 &&
             static_cast<std::size_t>(port) < graph_.top_src_channel.size()) {
    ch = graph_.top_src_channel[port];
  }
  if (ch < 0) {
    warn_once(WarnSite::kSendUnconnected, component, port);
    return;
  }
  send_on_channel(static_cast<std::size_t>(ch), packet);
}

void Kernel::send_on_channel(std::size_t channel_index, Packet packet) {
  Channel& c = graph_.channels[channel_index];
  if (c.credit_mode()) {
    // Credit-mode cut channel (source side): consume a credit per launch;
    // exhausted credits queue in the outbox until an ack batch returns.
    if (c.credits > 0 && c.outbox.empty()) {
      c.credits -= 1;
      router_->post_deliver(c.dst_shard, now_ + c.latency_ns,
                            static_cast<std::int32_t>(channel_index), packet);
    } else {
      c.outbox.emplace_back(now_, packet);
    }
    return;
  }
  if (!c.occupied && c.outbox.empty()) {
    start_channel_transfer(channel_index, packet);
  } else {
    c.outbox.emplace_back(now_, packet);
  }
}

bool Kernel::can_send(int component, int port) const {
  std::int32_t ch = -1;
  if (component >= 0) {
    const Component& comp = graph_.components[component];
    if (port >= 0 && static_cast<std::size_t>(port) < comp.out_channel.size()) {
      ch = comp.out_channel[port];
    }
  } else if (port >= 0 &&
             static_cast<std::size_t>(port) < graph_.top_src_channel.size()) {
    ch = graph_.top_src_channel[port];
  }
  if (ch < 0) return false;
  const Channel& c = graph_.channels[ch];
  if (c.credit_mode()) return c.credits > 0 && c.outbox.empty();
  return !c.occupied && c.outbox.empty();
}

void Kernel::start_channel_transfer(std::size_t channel_index, Packet packet) {
  Channel& c = graph_.channels[channel_index];
  c.occupied = true;
  c.in_flight = packet;
  if (c.dst_shard != shard_) {
    const double deliver_ns = now_ + c.latency_ns;
    cut_deliver_ns_[channel_index] = deliver_ns;
    router_->post_deliver(c.dst_shard, deliver_ns,
                          static_cast<std::int32_t>(channel_index), packet);
  } else {
    push_event(c.latency_ns, EventKind::kDeliver,
               static_cast<std::int32_t>(channel_index), -1);
  }
}

void Kernel::notify_output_acked(ChannelEndpoint src) {
  if (src.component < 0) return;
  Component& comp = graph_.components[src.component];
  if (comp.behavior) {
    comp.behavior->on_output_acked(*this, src.component, src.port);
  }
}

void Kernel::drain_outbox(std::size_t channel_index) {
  // Note: re-check `occupied` — a behaviour notified just before this call
  // may have re-filled the register (the pre-refactor code raced here and
  // could overwrite an in-flight packet).
  Channel& c = graph_.channels[channel_index];
  if (c.credit_mode()) {
    // Credit-mode launch: one queued packet per available credit (a batch
    // of n acks releases up to n packets through repeated drains).
    while (c.credits > 0 && !c.outbox.empty()) {
      QueuedPacket queued = c.outbox.front();
      c.outbox.pop_front();
      c.stats.blocked_ns += now_ - queued.enqueue_ns;
      c.credits -= 1;
      router_->post_deliver(c.dst_shard, now_ + c.latency_ns,
                            static_cast<std::int32_t>(channel_index),
                            queued.packet);
      ChannelEndpoint src = c.src;
      if (src.component >= 0) {
        Component& comp = graph_.components[src.component];
        if (comp.behavior) {
          comp.behavior->on_send_accepted(*this, src.component, src.port);
        }
      }
    }
    return;
  }
  if (c.occupied || c.outbox.empty()) return;
  QueuedPacket queued = c.outbox.front();
  c.outbox.pop_front();
  c.stats.blocked_ns += now_ - queued.enqueue_ns;
  start_channel_transfer(channel_index, queued.packet);
  ChannelEndpoint src = graph_.channels[channel_index].src;
  if (src.component >= 0) {
    Component& comp = graph_.components[src.component];
    if (comp.behavior) {
      comp.behavior->on_send_accepted(*this, src.component, src.port);
    }
  }
}

void Kernel::deliver(std::size_t channel_index) {
  Channel& c = graph_.channels[channel_index];
  c.stats.packets += 1;
  if (c.stats.packets == 1) c.stats.first_delivery_ns = now_;
  c.stats.last_delivery_ns = now_;

  // Credit-mode cut channels carry the payload in the sink-owned arrivals
  // ring (several packets can be in flight); everything else reads the
  // one-deep register.
  Packet packet;
  if (c.credit_mode()) {
    packet = c.arrivals.front();
    c.arrivals.pop_front();
  } else {
    packet = c.in_flight;
  }

  if (trace_enabled_) {
    trace_.append(now_, static_cast<std::int32_t>(channel_index),
                  packet.value, packet.last);
  }

  if (c.dst.component < 0) {
    // Environment observer: always ready, records and acknowledges.
    // Boundary channels are never cut, so this path is always shard-local.
    graph_.top_out_packets[c.dst.port].emplace_back(now_, packet);
    c.occupied = false;
    notify_output_acked(c.src);
    drain_outbox(channel_index);
    return;
  }

  component_events_[c.dst.component] += 1;
  if (c.credit_mode()) {
    c.unacked += 1;
  } else if (c.cross_shard()) {
    c.delivered_pending = true;
  }
  Component& dst = graph_.components[c.dst.component];
  dst.inbox[c.dst.port].push_back(packet);
  if (dst.behavior) {
    dst.behavior->on_receive(*this, c.dst.component, c.dst.port);
  }
}

void Kernel::ack(int component, int port) {
  Component& comp = graph_.components[component];
  std::int32_t ch =
      port >= 0 && static_cast<std::size_t>(port) < comp.in_channel.size()
          ? comp.in_channel[port]
          : -1;
  if (ch < 0) {
    warn_once(WarnSite::kAckUnconnected, component, port);
    return;
  }
  std::size_t channel_index = static_cast<std::size_t>(ch);
  Channel& c = graph_.channels[channel_index];

  if (c.credit_mode()) {
    // Credit-mode cut channel, sink side: consume locally and batch the
    // ack; the batch flushes to the source shard at the window boundary
    // (Kernel::flush_ack_batches) instead of per timestamp.
    if (c.unacked == 0) {
      warn_once(WarnSite::kAckEmptyChannel, ch, -1);
      return;
    }
    auto& box = comp.inbox[port];
    if (!box.empty()) box.pop_front();
    c.unacked -= 1;
    c.ack_batch += 1;
    return;
  }

  if (c.cross_shard()) {
    // Sink side of a cut channel: consume locally, then route the ack to
    // the source shard, which frees the register at this same timestamp
    // (the runtime's same-time fixpoint round).
    //
    // Acking before anything was delivered is warned-and-dropped here. A
    // shard-local channel tolerates that protocol violation differently
    // (it frees a register whose packet is still in flight); mirroring it
    // would let acks precede the channel's delivery time and unsound the
    // runtime's ack-risk bound, so a cut channel refuses instead —
    // well-formed behaviours never hit this path.
    if (!c.delivered_pending) {
      warn_once(WarnSite::kAckEmptyChannel, ch, -1);
      return;
    }
    auto& box = comp.inbox[port];
    if (!box.empty()) box.pop_front();
    c.delivered_pending = false;
    acks_posted_ += 1;
    router_->post_ack(c.src_shard, now_, ch, 1);
    return;
  }

  if (!c.occupied) {
    warn_once(WarnSite::kAckEmptyChannel, ch, -1);
    return;
  }
  // Consume the packet from the sink inbox.
  auto& box = comp.inbox[port];
  if (!box.empty()) box.pop_front();

  c.occupied = false;
  notify_output_acked(c.src);
  drain_outbox(channel_index);
}

void Kernel::complete_remote_ack(std::size_t channel_index) {
  Channel& c = graph_.channels[channel_index];
  if (!c.occupied) return;  // protocol violation; tolerate
  c.occupied = false;
  cut_deliver_ns_[channel_index] = kInfiniteTime;
  notify_output_acked(c.src);
  drain_outbox(channel_index);
}

void Kernel::complete_remote_ack_batch(std::size_t channel_index,
                                       std::int32_t count) {
  Channel& c = graph_.channels[channel_index];
  for (std::int32_t i = 0; i < count; ++i) {
    c.credits += 1;
    notify_output_acked(c.src);
    drain_outbox(channel_index);
  }
}

void Kernel::flush_ack_batches(double time, bool force) {
  for (std::int32_t ch : cross_dst_channels_) {
    Channel& c = graph_.channels[ch];
    if (c.ack_batch == 0) continue;
    if (fault_ != nullptr) {
      // The hang fault swallows batches unconditionally (the watchdog's
      // negative control); the probabilistic withhold defers this channel's
      // flush to a later round unless the quiescence check forces it.
      if (fault_->plan().withhold_acks_forever) continue;
      if (!force && fault_->fires(FaultInjector::Site::kWithholdCredit)) {
        continue;
      }
    }
    router_->post_ack(c.src_shard, time, ch, c.ack_batch);
    c.ack_batch = 0;
  }
}

std::int64_t Kernel::pending_ack_batches() const {
  std::int64_t total = 0;
  for (std::int32_t ch : cross_dst_channels_) {
    total += graph_.channels[ch].ack_batch;
  }
  return total;
}

std::int64_t Kernel::credit_balance() const {
  std::int64_t total = 0;
  for (std::int32_t ch : cross_src_channels_) {
    const Channel& c = graph_.channels[ch];
    if (c.credit_mode()) total += c.credits;
  }
  return total;
}

std::int64_t Kernel::unacked_total() const {
  std::int64_t total = 0;
  for (std::int32_t ch : cross_dst_channels_) {
    const Channel& c = graph_.channels[ch];
    if (c.credit_mode()) total += c.unacked;
  }
  return total;
}

double Kernel::ack_risk_bound() const {
  double bound = kInfiniteTime;
  for (std::int32_t ch : cross_src_channels_) {
    bound = std::min(bound, cut_deliver_ns_[ch]);
  }
  return bound;
}

void Kernel::poke(int component) {
  Component& comp = graph_.components[component];
  if (comp.behavior) comp.behavior->on_receive(*this, component, -1);
}

void Kernel::record_state_transition(int component, Symbol variable,
                                     Symbol from, Symbol to) {
  transitions_.push_back(TransitionRow{now_, component, variable, from, to});
}

namespace {

/// Orders per-kernel row lists into the canonical (time, key) order: the
/// order std::stable_sort gives their concatenation. Each list is in time
/// order (kernel time never decreases), so a K-way merge of the list heads
/// does the bulk and a stable insertion pass moves equal-time rows of one
/// list into key order; both are linear in the rows. (On lists out of time
/// order the pass still sorts, only slower.) Rows with equal keys come from
/// one list, since a channel's sink and a component each run on one kernel,
/// and keep its order.
template <typename Row, typename KeyOf>
std::vector<Row> canonical_merge(std::vector<std::vector<Row>> lists,
                                 KeyOf key_of) {
  auto before = [&](const Row& x, const Row& y) {
    return x.time_ns < y.time_ns ||
           (x.time_ns == y.time_ns && key_of(x) < key_of(y));
  };
  std::vector<Row> rows;
  if (lists.size() == 1) {
    rows = std::move(lists.front());
  } else {
    std::size_t total = 0;
    for (const std::vector<Row>& list : lists) total += list.size();
    rows.reserve(total);
    std::vector<std::size_t> next(lists.size(), 0);
    while (rows.size() < total) {
      std::size_t pick = lists.size();
      for (std::size_t k = 0; k < lists.size(); ++k) {
        if (next[k] < lists[k].size() &&
            (pick == lists.size() ||
             before(lists[k][next[k]], lists[pick][next[pick]]))) {
          pick = k;
        }
      }
      rows.push_back(std::move(lists[pick][next[pick]++]));
    }
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (!before(rows[i], rows[i - 1])) continue;
    Row row = std::move(rows[i]);
    std::size_t j = i;
    for (; j > 0 && before(row, rows[j - 1]); --j) {
      rows[j] = std::move(rows[j - 1]);
    }
    rows[j] = std::move(row);
  }
  return rows;
}

/// Deadlock analysis over the quiesced graph (identical for any shard
/// count: by the time this runs, every queue and mailbox is empty).
void detect_deadlock(SimGraph& graph, SimResult& result) {
  bool anything_blocked = false;
  for (const Channel& c : graph.channels) {
    if (c.occupied || !c.outbox.empty()) {
      anything_blocked = true;
      std::ostringstream why;
      why << "channel " << graph.channel_display_name(c) << ": ";
      if (c.occupied) why << "packet not acknowledged by sink";
      if (!c.outbox.empty()) {
        if (c.occupied) why << ", ";
        why << c.outbox.size() << " packet(s) blocked in outbox";
      }
      result.blocked_report.push_back(why.str());
    }
  }
  for (const Component& comp : graph.components) {
    for (std::size_t port = 0; port < comp.inbox.size(); ++port) {
      if (!comp.inbox[port].empty()) {
        anything_blocked = true;
        std::string port_name =
            comp.streamlet != nullptr ? comp.streamlet->ports[port].name
                                      : std::to_string(port);
        result.blocked_report.push_back(
            "component " + comp.path + ": " +
            std::to_string(comp.inbox[port].size()) +
            " unconsumed packet(s) on port '" + port_name + "'");
      }
    }
  }
  if (!anything_blocked) return;
  result.deadlock = true;

  // Wait-for graph: X -> Y means "X cannot make progress until Y acts".
  //  - a source whose outbox is blocked waits on the sink of that channel;
  //  - a component waiting for a packet on port p waits on the source
  //    feeding p.
  std::vector<std::vector<int>> edges(graph.components.size());
  for (const Channel& c : graph.channels) {
    if (!c.outbox.empty() && c.src.component >= 0 && c.dst.component >= 0) {
      edges[c.src.component].push_back(c.dst.component);
    }
  }
  for (std::size_t i = 0; i < graph.components.size(); ++i) {
    const Component& comp = graph.components[i];
    if (!comp.behavior) continue;
    for (int port : comp.behavior->waiting_ports(comp)) {
      std::int32_t ch =
          port >= 0 && static_cast<std::size_t>(port) < comp.in_channel.size()
              ? comp.in_channel[port]
              : -1;
      if (ch < 0) continue;
      const Channel& c = graph.channels[ch];
      if (c.src.component >= 0) {
        edges[i].push_back(c.src.component);
      }
    }
  }

  // Iterative DFS cycle search in component-index order (deterministic).
  std::vector<std::uint8_t> color(graph.components.size(), 0);  // 0w 1g 2b
  std::vector<int> stack;
  auto dfs = [&](auto&& self, int node) -> bool {
    color[node] = 1;
    stack.push_back(node);
    for (int next : edges[node]) {
      if (color[next] == 1) {
        auto it = std::find(stack.begin(), stack.end(), next);
        for (; it != stack.end(); ++it) {
          result.deadlock_cycle.push_back(graph.components[*it].path);
        }
        return true;
      }
      if (color[next] == 0 && self(self, next)) return true;
    }
    stack.pop_back();
    color[node] = 2;
    return false;
  };
  for (std::size_t i = 0; i < graph.components.size(); ++i) {
    if (!edges[i].empty() && color[i] == 0 && dfs(dfs, static_cast<int>(i))) {
      break;
    }
  }
}

}  // namespace

SimResult merge_results(SimGraph& graph, const std::vector<Kernel*>& kernels,
                        double end_time_ns,
                        support::DiagnosticEngine& diags, bool aborted) {
  SimResult result;
  result.end_time_ns = end_time_ns;
  result.component_events.assign(graph.components.size(), 0);
  for (const Kernel* k : kernels) {
    result.events_processed += k->events_processed();
    const std::vector<std::uint64_t>& per_comp = k->component_events();
    for (std::size_t i = 0; i < per_comp.size(); ++i) {
      result.component_events[i] += per_comp[i];
    }
  }

  // Aborted runs are not quiescent: the wait-for analysis would mistake
  // in-flight work for blockage, so the abort forensics replace it.
  if (!aborted) detect_deadlock(graph, result);

  // Materialize the name strings (and per-channel boundary info) the hot
  // path never built. These are per-channel, not per-event: the columnar
  // trace only stores the channel index.
  for (Channel& c : graph.channels) {
    c.stats.name = graph.channel_display_name(c);
    c.stats.top_input = c.src.component < 0;
    c.stats.top_output = c.dst.component < 0;
    if (c.stats.top_input) {
      c.stats.top_port = graph.top_streamlet->ports[c.src.port].name;
    } else if (c.stats.top_output) {
      c.stats.top_port = graph.top_streamlet->ports[c.dst.port].name;
    }
    result.channels.push_back(c.stats);
  }

  // Trace: the canonical order is (time, channel), stable — a zero-latency
  // channel (clock period 0) can deliver more than once per timestamp, and
  // those duplicates keep their shard-local delivery order. A single
  // already-sorted buffer (the common case) is stolen wholesale; otherwise
  // the merge orders indices over the columns.
  if (kernels.size() == 1 && kernels.front()->trace().canonically_sorted()) {
    result.trace = std::move(kernels.front()->trace());
  } else {
    struct TraceRef {
      double time_ns;
      std::int32_t channel;
      std::uint32_t kernel;
      std::uint32_t index;
    };
    std::vector<std::vector<TraceRef>> lists(kernels.size());
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const TraceBuffer& t = kernels[ki]->trace();
      lists[ki].reserve(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        lists[ki].push_back(TraceRef{t.time_ns(i), t.channel(i),
                                     static_cast<std::uint32_t>(ki),
                                     static_cast<std::uint32_t>(i)});
      }
    }
    for (const TraceRef& ref :
         canonical_merge(std::move(lists),
                         [](const TraceRef& r) { return r.channel; })) {
      const TraceBuffer& t = kernels[ref.kernel]->trace();
      result.trace.append(ref.time_ns, ref.channel, t.value(ref.index),
                          t.last(ref.index));
    }
  }

  for (std::size_t port = 0; port < graph.top_out_packets.size(); ++port) {
    if (graph.top_out_packets[port].empty()) continue;
    result.top_outputs[graph.top_streamlet->ports[port].name] =
        std::move(graph.top_out_packets[port]);
  }

  // State transitions: canonical order is (time, component), with a
  // component's own transitions kept in its execution order (a component
  // runs on exactly one kernel). A single kernel's rows are moved, not
  // copied, and fixed up in place.
  std::vector<std::vector<TransitionRow>> lists;
  for (Kernel* k : kernels) lists.push_back(std::move(k->transitions()));
  std::vector<TransitionRow> rows =
      canonical_merge(std::move(lists),
                      [](const TransitionRow& r) { return r.component; });
  // One path per transitioning component, not one per row.
  std::vector<std::string> paths(graph.components.size());
  for (const TransitionRow& row : rows) {
    std::string& path = paths[static_cast<std::size_t>(row.component)];
    if (path.empty()) path = graph.components[row.component].path;
  }
  result.state_transitions =
      StateTransitionTable(std::move(rows), std::move(paths));

  // Warnings. Kernels defer their first-hit warnings to keep the diagnostic
  // engine off the shard threads; emit them now in shard order, once per
  // site (a run-wide site can be hit on several shards).
  std::unordered_set<std::uint64_t> emitted;
  for (Kernel* k : kernels) {
    for (const std::uint64_t key : k->deferred_warnings()) {
      if (emitted.insert(key).second) {
        diags.warning("sim", k->warn_first_message(key), {});
      }
    }
  }
  // Summarize deduplicated warning sites across shards (sorted by key so
  // the report order is deterministic).
  std::map<std::uint64_t, std::uint64_t> totals;
  for (const Kernel* k : kernels) {
    for (const auto& [key, count] : k->warn_counts()) totals[key] += count;
  }
  for (const auto& [key, count] : totals) {
    if (count <= 1) continue;
    diags.note("sim",
               kernels.front()->warn_message(key) + " occurred " +
                   std::to_string(count) + " time(s) in total",
               {});
  }
  return result;
}

}  // namespace tydi::sim
