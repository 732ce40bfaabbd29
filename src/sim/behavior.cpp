#include "src/sim/behavior.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "src/eval/interp.hpp"
#include "src/eval/scope.hpp"

namespace tydi::sim {

using elab::Impl;
using elab::Port;
using elab::Streamlet;
using support::Symbol;

namespace {

std::vector<int> port_indices(const Streamlet& s, lang::PortDir dir) {
  std::vector<int> out;
  for (std::size_t i = 0; i < s.ports.size(); ++i) {
    if (s.ports[i].dir == dir) out.push_back(static_cast<int>(i));
  }
  return out;
}

double param(const std::map<std::string, double>& params,
             const std::string& key, double fallback) {
  auto it = params.find(key);
  return it != params.end() ? it->second : fallback;
}

// ---------------------------------------------------------------------------
// Built-in models
// ---------------------------------------------------------------------------

/// Always-ready sink: acknowledges after `latency_cycles` (default 0).
/// Delayed acks travel as timer events whose token is the port index.
class SinkModel : public Behavior {
 public:
  explicit SinkModel(double latency_cycles) : latency_(latency_cycles) {}

  void on_receive(Kernel& engine, int self, int port) override {
    if (port < 0) return;
    if (latency_ <= 0.0) {
      engine.ack(self, port);
      return;
    }
    engine.schedule_timer(latency_ * engine.clock_period(self), self, port);
  }

  void on_timer(Kernel& engine, int self, std::int32_t token) override {
    engine.ack(self, token);
  }

 private:
  double latency_;
};

/// Emits `count` packets at a fixed interval regardless of backpressure
/// (excess queues in the outbox, producing the blocked-time signal the
/// bottleneck analysis ranks).
class SourceModel : public Behavior {
 public:
  SourceModel(int out_port, std::int64_t count, double interval_cycles)
      : out_(out_port), count_(count), interval_(interval_cycles) {}

  void on_start(Kernel& engine, int self) override { emit(engine, self); }

  void on_receive(Kernel&, int, int) override {}

  void on_timer(Kernel& engine, int self, std::int32_t) override {
    emit(engine, self);
  }

 private:
  int out_;
  std::int64_t count_;
  double interval_;
  std::int64_t sent_ = 0;

  void emit(Kernel& engine, int self) {
    if (sent_ >= count_) return;
    Packet p;
    p.value = sent_;
    p.last = (sent_ == count_ - 1);
    engine.send(self, out_, p);
    ++sent_;
    if (sent_ < count_) {
      engine.schedule_timer(interval_ * engine.clock_period(self), self, 0);
    }
  }
};

/// Copies each input packet to every output; acknowledges the input once all
/// outputs were acknowledged (Sec. IV-C).
class DuplicatorModel : public Behavior {
 public:
  DuplicatorModel(int in_port, std::vector<int> out_ports)
      : in_(in_port), outs_(std::move(out_ports)) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }

  void on_output_acked(Kernel& engine, int self, int) override {
    if (!forwarding_) return;
    if (--pending_ == 0) {
      forwarding_ = false;
      engine.ack(self, in_);
      try_fire(engine, self);
    }
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    if (self.inbox[in_].empty()) return {in_};
    return {};
  }

 private:
  int in_;
  std::vector<int> outs_;
  bool forwarding_ = false;
  std::size_t pending_ = 0;

  void try_fire(Kernel& engine, int self) {
    if (forwarding_) return;
    auto& box = engine.component(self).inbox[in_];
    if (box.empty()) return;
    forwarding_ = true;
    pending_ = outs_.size();
    Packet p = box.front();
    for (int out : outs_) {
      engine.send(self, out, p);
    }
  }
};

/// Round-robin distributor: forwards to out[rr] only when that channel is
/// free, so backpressure propagates to the producer.
class DemuxModel : public Behavior {
 public:
  DemuxModel(int in_port, std::vector<int> out_ports)
      : in_(in_port), outs_(std::move(out_ports)) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_forward(engine, self);
  }
  void on_output_acked(Kernel& engine, int self, int) override {
    try_forward(engine, self);
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    if (self.inbox[in_].empty()) return {in_};
    return {};
  }

 private:
  int in_;
  std::vector<int> outs_;
  std::size_t rr_ = 0;

  void try_forward(Kernel& engine, int self) {
    auto& box = engine.component(self).inbox[in_];
    while (!box.empty() && engine.can_send(self, outs_[rr_])) {
      engine.send(self, outs_[rr_], box.front());
      engine.ack(self, in_);
      rr_ = (rr_ + 1) % outs_.size();
    }
  }
};

/// Round-robin collector (order-preserving counterpart of DemuxModel).
class MuxModel : public Behavior {
 public:
  MuxModel(std::vector<int> in_ports, int out_port)
      : ins_(std::move(in_ports)), out_(out_port) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_forward(engine, self);
  }
  void on_output_acked(Kernel& engine, int self, int) override {
    try_forward(engine, self);
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    int want = ins_[rr_];
    if (self.inbox[want].empty()) return {want};
    return {};
  }

 private:
  std::vector<int> ins_;
  int out_;
  std::size_t rr_ = 0;

  void try_forward(Kernel& engine, int self) {
    for (;;) {
      auto& box = engine.component(self).inbox[ins_[rr_]];
      if (box.empty() || !engine.can_send(self, out_)) return;
      engine.send(self, out_, box.front());
      engine.ack(self, ins_[rr_]);
      rr_ = (rr_ + 1) % ins_.size();
    }
  }
};

/// Non-pipelined processing unit: consumes one packet, works for
/// `latency_cycles`, then emits the transformed packet — e.g. the paper's
/// "32-bit adder with a delay of 8 clock cycles" (Sec. IV-B).
class PipeModel : public Behavior {
 public:
  using Transform = std::function<Packet(const Packet&)>;
  PipeModel(int in_port, int out_port, double latency_cycles,
            Transform transform)
      : in_(in_port),
        out_(out_port),
        latency_(latency_cycles),
        transform_(std::move(transform)) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_start(engine, self);
  }
  void on_output_acked(Kernel& engine, int self, int) override {
    if (done_waiting_out_) complete(engine, self);
  }
  void on_timer(Kernel& engine, int self, std::int32_t) override {
    if (engine.can_send(self, out_)) {
      complete(engine, self);
    } else {
      done_waiting_out_ = true;
    }
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    if (busy_) return {};
    if (self.inbox[in_].empty()) return {in_};
    return {};
  }

 private:
  int in_;
  int out_;
  double latency_;
  Transform transform_;
  bool busy_ = false;
  bool done_waiting_out_ = false;
  Packet current_;

  void try_start(Kernel& engine, int self) {
    if (busy_) return;
    auto& box = engine.component(self).inbox[in_];
    if (box.empty()) return;
    busy_ = true;
    current_ = box.front();
    engine.schedule_timer(latency_ * engine.clock_period(self), self, 0);
  }

  void complete(Kernel& engine, int self) {
    done_waiting_out_ = false;
    engine.send(self, out_, transform_(current_));
    engine.ack(self, in_);
    busy_ = false;
    try_start(engine, self);
  }
};

/// `filter<in, keep, out>`: forwards when keep != 0, drops otherwise; both
/// inputs are acknowledged together (Sec. VI).
class FilterModel : public Behavior {
 public:
  FilterModel(int data_port, int keep_port, int out_port)
      : data_(data_port), keep_(keep_port), out_(out_port) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }
  void on_output_acked(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    std::vector<int> missing;
    for (int p : {data_, keep_}) {
      if (self.inbox[p].empty()) missing.push_back(p);
    }
    return missing;
  }

 private:
  int data_;
  int keep_;
  int out_;

  void try_fire(Kernel& engine, int self) {
    for (;;) {
      auto& data_box = engine.component(self).inbox[data_];
      auto& keep_box = engine.component(self).inbox[keep_];
      if (data_box.empty() || keep_box.empty()) return;
      bool keep_bit = keep_box.front().value != 0;
      if (keep_bit) {
        if (!engine.can_send(self, out_)) return;
        engine.send(self, out_, data_box.front());
      }
      engine.ack(self, data_);
      engine.ack(self, keep_);
    }
  }
};

/// n-input logical reduce (and/or) with full input synchronization.
class LogicReduceModel : public Behavior {
 public:
  LogicReduceModel(std::vector<int> in_ports, int out_port, bool is_and)
      : ins_(std::move(in_ports)), out_(out_port), and_(is_and) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }
  void on_output_acked(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    std::vector<int> missing;
    for (int p : ins_) {
      if (self.inbox[p].empty()) missing.push_back(p);
    }
    return missing;
  }

 private:
  std::vector<int> ins_;
  int out_;
  bool and_;

  void try_fire(Kernel& engine, int self) {
    for (;;) {
      bool all_ready = true;
      for (int p : ins_) {
        if (engine.component(self).inbox[p].empty()) {
          all_ready = false;
          break;
        }
      }
      if (!all_ready || !engine.can_send(self, out_)) return;
      bool result = and_;
      bool last = false;
      for (int p : ins_) {
        const Packet& pk = engine.component(self).inbox[p].front();
        bool bit = pk.value != 0;
        result = and_ ? (result && bit) : (result || bit);
        last = last || pk.last;
      }
      Packet out;
      out.value = result ? 1 : 0;
      out.last = last;
      engine.send(self, out_, out);
      for (int p : ins_) engine.ack(self, p);
    }
  }
};

/// Two-operand synchronized unit (add2/sub2/mul2/cmp2): fires when both
/// operands are present, applies `op`, acknowledges both.
class Join2Model : public Behavior {
 public:
  using Op = std::function<std::int64_t(std::int64_t, std::int64_t)>;
  Join2Model(int lhs, int rhs, int out, Op op)
      : lhs_(lhs), rhs_(rhs), out_(out), op_(std::move(op)) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }
  void on_output_acked(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    std::vector<int> missing;
    for (int p : {lhs_, rhs_}) {
      if (self.inbox[p].empty()) missing.push_back(p);
    }
    return missing;
  }

 private:
  int lhs_;
  int rhs_;
  int out_;
  Op op_;

  void try_fire(Kernel& engine, int self) {
    for (;;) {
      auto& lbox = engine.component(self).inbox[lhs_];
      auto& rbox = engine.component(self).inbox[rhs_];
      if (lbox.empty() || rbox.empty() || !engine.can_send(self, out_)) {
        return;
      }
      Packet out;
      out.value = op_(lbox.front().value, rbox.front().value);
      out.last = lbox.front().last || rbox.front().last;
      engine.send(self, out_, out);
      engine.ack(self, lhs_);
      engine.ack(self, rhs_);
    }
  }
};

/// Sums a dimension-1 sequence, emitting the total when `last` arrives.
class AccumulatorModel : public Behavior {
 public:
  AccumulatorModel(int in_port, int out_port) : in_(in_port), out_(out_port) {}

  void on_receive(Kernel& engine, int self, int port) override {
    if (port < 0) return;
    auto& box = engine.component(self).inbox[in_];
    while (!box.empty()) {
      Packet p = box.front();
      acc_ += p.value;
      engine.ack(self, in_);
      if (p.last) {
        Packet total;
        total.value = acc_;
        total.last = true;
        engine.send(self, out_, total);
        acc_ = 0;
      }
    }
  }

 private:
  int in_;
  int out_;
  std::int64_t acc_ = 0;
};

// ---------------------------------------------------------------------------
// sim { } block interpreter (Sec. V-A)
// ---------------------------------------------------------------------------

struct Instr {
  enum class Op { kAck, kSend, kDelay, kSet, kCondJumpFalse, kJump,
                  kBindLocal };
  Op op{};
  int port = -1;                 // port index (ack/send); -1 = unresolved
  int slot = -1;                 // state slot (set); -1 = undeclared
  Symbol name = support::kNoSymbol;  // state var (set) or local var (bind)
  const lang::Expr* expr = nullptr;  // payload / delay / condition / value
  std::size_t target = 0;        // jump target
  /// kBindLocal: the pre-evaluated loop value. For the other expression
  /// ops: the expression's value when it is a literal (`delay(7)`,
  /// `set s = "busy"`), folded at compile time so execution skips scope
  /// construction and the evaluator entirely. A literal `set` stores the
  /// value's string form here (what the state scope binds) and its
  /// interned symbol in `value_sym`, so the write interns nothing.
  eval::Value bind_value;
  Symbol value_sym = support::kNoSymbol;
  bool constant = false;
};

/// The string form a `set` gives its state variable.
std::string state_text(const eval::Value& v) {
  return v.is_string() ? v.as_string() : v.to_display();
}

/// Resolves a `set` target to its state slot (-1 when undeclared).
using StateResolver = std::function<int(Symbol, support::Loc)>;

/// Folds literal expressions into the instruction (engine-side constant
/// propagation; anything with identifiers still evaluates at run time).
void fold_literal(Instr& instr) {
  if (instr.expr == nullptr) return;
  const auto& node = instr.expr->node;
  eval::Value v;
  if (const auto* i = std::get_if<lang::IntLit>(&node)) {
    v = eval::Value(i->value);
  } else if (const auto* f = std::get_if<lang::FloatLit>(&node)) {
    v = eval::Value(f->value);
  } else if (const auto* s = std::get_if<lang::StringLit>(&node)) {
    v = eval::Value(s->value);
  } else if (const auto* b = std::get_if<lang::BoolLit>(&node)) {
    v = eval::Value(b->value);
  } else {
    return;
  }
  instr.bind_value = std::move(v);
  instr.constant = true;  // expr stays for diagnostics (source location)
}

// Compiles handler actions to a flat instruction list, resolving port names
// against `streamlet` and `set` targets through `resolve_state` once.
// `consts` carries the captured elaboration constants plus enclosing sim-for
// loop bindings; sim-for loops unroll at compile time (their iterables must
// be constant) with the loop variable bound per iteration via kBindLocal.
void compile_actions(const std::vector<lang::SimAction>& actions,
                     const Streamlet& streamlet, std::vector<Instr>& out,
                     const std::map<std::string, eval::Value>& consts,
                     const StateResolver& resolve_state,
                     support::DiagnosticEngine& diags) {
  auto resolve_port = [&](lang::Name port_name, support::Loc loc) -> int {
    int port = streamlet.port_index(port_name.sym);
    if (port < 0) {
      diags.warning("sim",
                    "sim block references unknown port '" + port_name.str() +
                        "' of streamlet '" + streamlet.name + "'",
                    loc);
    }
    return port;
  };
  for (const lang::SimAction& a : actions) {
    std::visit(
        [&](const auto& n) {
          using T = std::decay_t<decltype(n)>;
          if constexpr (std::is_same_v<T, lang::ActAck>) {
            Instr instr;
            instr.op = Instr::Op::kAck;
            instr.port = resolve_port(n.port, a.loc);
            out.push_back(std::move(instr));
          } else if constexpr (std::is_same_v<T, lang::ActSend>) {
            Instr instr;
            instr.op = Instr::Op::kSend;
            instr.port = resolve_port(n.port, a.loc);
            instr.expr = n.payload.get();
            fold_literal(instr);
            out.push_back(std::move(instr));
          } else if constexpr (std::is_same_v<T, lang::ActDelay>) {
            Instr instr;
            instr.op = Instr::Op::kDelay;
            instr.expr = n.cycles.get();
            fold_literal(instr);
            out.push_back(std::move(instr));
          } else if constexpr (std::is_same_v<T, lang::ActSet>) {
            Instr instr;
            instr.op = Instr::Op::kSet;
            instr.name = n.state_var.sym;
            instr.slot = resolve_state(instr.name, a.loc);
            instr.expr = n.value.get();
            fold_literal(instr);
            if (instr.constant) {
              std::string text = state_text(instr.bind_value);
              instr.value_sym = support::intern(text);
              instr.bind_value = eval::Value(std::move(text));
            }
            out.push_back(std::move(instr));
          } else if constexpr (std::is_same_v<T, lang::ActFor>) {
            eval::Scope scope;
            for (const auto& [name, value] : consts) {
              scope.define(name, value);
            }
            try {
              eval::Value iterable = eval::evaluate(*n.iterable, scope);
              if (!iterable.is_array()) {
                diags.error("sim",
                            "sim for iterable must be a constant array or "
                            "range",
                            a.loc);
                return;
              }
              for (const eval::Value& element : iterable.as_array()) {
                Instr bind;
                bind.op = Instr::Op::kBindLocal;
                bind.name = n.var.sym;
                bind.bind_value = element;
                out.push_back(std::move(bind));
                std::map<std::string, eval::Value> inner = consts;
                inner.insert_or_assign(n.var.str(), element);
                compile_actions(n.body, streamlet, out, inner, resolve_state,
                                diags);
              }
            } catch (const eval::EvalError& e) {
              diags.error("sim",
                          std::string("sim for iterable must be evaluable "
                                      "at elaboration time: ") +
                              e.what(),
                          e.loc());
            }
          } else {  // ActIf
            std::size_t cond_index = out.size();
            Instr cond;
            cond.op = Instr::Op::kCondJumpFalse;
            cond.expr = n.cond.get();
            fold_literal(cond);
            out.push_back(std::move(cond));
            compile_actions(n.then_body, streamlet, out, consts, resolve_state,
                            diags);
            if (n.else_body.empty()) {
              out[cond_index].target = out.size();
            } else {
              std::size_t jump_index = out.size();
              Instr jump;
              jump.op = Instr::Op::kJump;
              out.push_back(std::move(jump));
              out[cond_index].target = out.size();
              compile_actions(n.else_body, streamlet, out, consts,
                              resolve_state, diags);
              out[jump_index].target = out.size();
            }
          }
        },
        a.node);
  }
}

/// Interprets the `sim { state ...; on event { ... } }` block of an external
/// implementation. Handler semantics: fires when every waited port has a
/// pending packet and the component is idle; `send(p)` forwards the trigger
/// payload, `send(p, expr)` sends an evaluated value; `delay(n)` suspends
/// for n clock cycles; handlers must `ack` their waited ports.
///
/// Scope layout (all symbol-keyed, no string hashing per instruction):
///   captured_scope_ (elaboration constants, built once)
///     <- state_scope_ (state variables, updated in place on `set` when an
///        expression can read them)
///        <- per-evaluation scope (payload, locals, port payloads)
class SimBlockBehavior : public Behavior {
 public:
  SimBlockBehavior(const elab::SimProgram& program, const Streamlet& streamlet,
                   support::DiagnosticEngine& diags)
      : diags_(diags), state_scope_(&captured_scope_) {
    for (const auto& [name, value] : program.captured) {
      captured_scope_.define(name, value);
    }
    for (const lang::SimStateDecl& s : program.block->states) {
      const Symbol sym = s.name.sym;
      state_.push_back(StateVar{sym, support::intern(s.initial)});
      state_scope_.assign(sym, eval::Value(s.initial));
    }
    // Undeclared `set` targets warn once per variable here and are
    // skipped at run time.
    std::vector<Symbol> undeclared;
    StateResolver resolve_state = [&](Symbol var, support::Loc loc) {
      for (std::size_t i = 0; i < state_.size(); ++i) {
        if (state_[i].name == var) return static_cast<int>(i);
      }
      if (std::find(undeclared.begin(), undeclared.end(), var) ==
          undeclared.end()) {
        undeclared.push_back(var);
        diags_.warning("sim",
                       "set of undeclared state variable '" +
                           support::symbol_name(var) + "'",
                       loc);
      }
      return -1;
    };
    payload_sym_ = support::intern("payload");
    payload_last_sym_ = support::intern("payload_last");
    for (std::size_t i = 0; i < streamlet.ports.size(); ++i) {
      port_payload_syms_.push_back(
          support::intern(streamlet.ports[i].name + "_payload"));
    }
    for (const lang::SimHandler& h : program.block->handlers) {
      Handler compiled;
      for (const lang::Name port_name : h.wait_ports) {
        int port = streamlet.port_index(port_name.sym);
        if (port < 0) {
          diags_.warning("sim",
                         "sim handler waits on unknown port '" +
                             port_name.str() +
                             "' of streamlet '" + streamlet.name + "'",
                         program.block->loc);
          continue;
        }
        compiled.wait_ports.push_back(port);
      }
      compile_actions(h.actions, streamlet, compiled.code, program.captured,
                      resolve_state, diags_);
      for (const Instr& instr : compiled.code) {
        if (!instr.constant && instr.expr != nullptr) scope_read_ = true;
      }
      handlers_.push_back(std::move(compiled));
    }
  }

  void on_start(Kernel& engine, int self) override {
    for (std::size_t h = 0; h < handlers_.size(); ++h) {
      if (handlers_[h].wait_ports.empty()) {
        fire(engine, self, h, Packet{});
      }
    }
  }

  void on_receive(Kernel& engine, int self, int) override {
    try_fire(engine, self);
  }

  void on_timer(Kernel& engine, int self, std::int32_t token) override {
    Resume resume = std::move(pending_[token]);
    free_slots_.push_back(token);
    exec(engine, self, resume.handler, resume.pc, resume.trigger,
         std::move(resume.locals));
  }

  [[nodiscard]] std::vector<int> waiting_ports(
      const Component& self) const override {
    std::vector<int> missing;
    for (const Handler& h : handlers_) {
      for (int p : h.wait_ports) {
        if (self.inbox[p].empty()) missing.push_back(p);
      }
    }
    return missing;
  }

 private:
  struct Handler {
    std::vector<int> wait_ports;
    std::vector<Instr> code;
  };

  using Locals = std::shared_ptr<std::vector<std::pair<Symbol, eval::Value>>>;

  /// A handler suspended in `delay(...)`, waiting for its timer.
  struct Resume {
    std::size_t handler = 0;
    std::size_t pc = 0;
    Packet trigger;
    Locals locals;
  };

  support::DiagnosticEngine& diags_;
  eval::Scope captured_scope_;
  eval::Scope state_scope_;
  /// Reusable innermost evaluation scope: cleared (capacity kept) before
  /// each instruction that evaluates an expression. Safe to share because
  /// expression evaluation never re-enters this behaviour.
  eval::Scope scratch_scope_{&state_scope_};
  /// State variables: current values tracked as interned symbols (change
  /// detection and transition recording are integer compares); the string
  /// form lives in state_scope_ for expression evaluation.
  struct StateVar {
    Symbol name;
    Symbol value_sym;
  };
  std::vector<StateVar> state_;
  /// Some instruction evaluates an expression at run time, so something can
  /// read state_scope_. Without one a literal `set` records its transition
  /// but skips the scope write, which nothing would read.
  bool scope_read_ = false;
  Symbol payload_sym_ = support::kNoSymbol;
  Symbol payload_last_sym_ = support::kNoSymbol;
  std::vector<Symbol> port_payload_syms_;
  std::vector<Handler> handlers_;
  std::vector<Resume> pending_;
  std::vector<std::int32_t> free_slots_;
  bool busy_ = false;
  std::size_t fires_without_progress_ = 0;

  void try_fire(Kernel& engine, int self) {
    if (busy_) return;
    for (std::size_t h = 0; h < handlers_.size(); ++h) {
      const Handler& handler = handlers_[h];
      if (handler.wait_ports.empty()) continue;
      bool ready = true;
      for (int p : handler.wait_ports) {
        if (engine.component(self).inbox[p].empty()) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      if (++fires_without_progress_ > 100000) {
        diags_.warning("sim",
                       "sim block of '" +
                           engine.component(self).path +
                           "' fired 100000 times without acknowledging; "
                           "stopping (missing ack in handler?)",
                       {});
        return;
      }
      Packet trigger =
          engine.component(self).inbox[handler.wait_ports.front()].front();
      fire(engine, self, h, trigger);
      return;
    }
  }

  void fire(Kernel& engine, int self, std::size_t handler_index,
            Packet trigger) {
    busy_ = true;
    exec(engine, self, handler_index, 0, trigger, nullptr);
  }

  /// Rebuilds the innermost evaluation scope for one instruction: trigger
  /// payload, loop locals, and per-port head-of-inbox payloads. Parent
  /// chain supplies state and captured constants without copying.
  eval::Scope& build_scope(Kernel& engine, int self, const Packet& trigger,
                           const Locals& locals) {
    eval::Scope& scope = scratch_scope_;
    scope.clear();
    scope.define(payload_sym_, eval::Value(trigger.value));
    scope.define(payload_last_sym_, eval::Value(trigger.last));
    if (locals != nullptr) {
      for (const auto& [name, value] : *locals) scope.assign(name, value);
    }
    const Component& comp = engine.component(self);
    for (std::size_t port = 0; port < comp.inbox.size(); ++port) {
      if (!comp.inbox[port].empty()) {
        scope.define(port_payload_syms_[port],
                     eval::Value(comp.inbox[port].front().value));
      }
    }
    return scope;
  }

  /// Literal `set`: the symbol and the scope value were folded when the
  /// handler was compiled, so the write interns and builds nothing.
  void set_state(Kernel& engine, int self, const Instr& instr) {
    StateVar& s = state_[instr.slot];
    if (s.value_sym == instr.value_sym) return;
    engine.record_state_transition(self, s.name, s.value_sym,
                                   instr.value_sym);
    s.value_sym = instr.value_sym;
    if (scope_read_) state_scope_.assign(s.name, instr.bind_value);
  }

  /// Expression-valued `set`: interns the evaluated string form.
  void set_state(Kernel& engine, int self, int slot, std::string to) {
    StateVar& s = state_[slot];
    Symbol to_sym = support::intern(to);
    if (s.value_sym == to_sym) return;
    engine.record_state_transition(self, s.name, s.value_sym, to_sym);
    s.value_sym = to_sym;
    state_scope_.assign(s.name, eval::Value(std::move(to)));
  }

  // Conversions for compile-time-folded literals, mirroring the
  // eval::evaluate_* contracts (EvalError carries the literal's location).
  static std::int64_t constant_int(const Instr& instr) {
    const eval::Value& v = instr.bind_value;
    if (v.is_int()) return v.as_int();
    if (v.is_float() && std::floor(v.as_float()) == v.as_float()) {
      return static_cast<std::int64_t>(v.as_float());
    }
    throw eval::EvalError("expected an integer, got " +
                              std::string(v.type_name()) + " (" +
                              v.to_display() + ")",
                          instr.expr->loc);
  }
  static double constant_number(const Instr& instr) {
    const eval::Value& v = instr.bind_value;
    if (v.is_numeric()) return v.as_number();
    throw eval::EvalError("expected a number, got " +
                              std::string(v.type_name()),
                          instr.expr->loc);
  }
  static bool constant_bool(const Instr& instr) {
    const eval::Value& v = instr.bind_value;
    if (v.is_bool()) return v.as_bool();
    throw eval::EvalError("expected a bool, got " +
                              std::string(v.type_name()),
                          instr.expr->loc);
  }

  void exec(Kernel& engine, int self, std::size_t handler_index,
            std::size_t pc, Packet trigger, Locals locals) {
    const Handler& handler = handlers_[handler_index];
    while (pc < handler.code.size()) {
      const Instr& instr = handler.code[pc];
      try {
        switch (instr.op) {
          case Instr::Op::kAck:
            engine.ack(self, instr.port);
            fires_without_progress_ = 0;
            ++pc;
            break;
          case Instr::Op::kSend: {
            Packet p = trigger;
            if (instr.constant) {
              p.value = constant_int(instr);
            } else if (instr.expr != nullptr) {
              p.value = eval::evaluate_int(
                  *instr.expr, build_scope(engine, self, trigger, locals));
            }
            engine.send(self, instr.port, p);
            ++pc;
            break;
          }
          case Instr::Op::kDelay: {
            double cycles =
                instr.constant
                    ? constant_number(instr)
                    : eval::evaluate_number(
                          *instr.expr,
                          build_scope(engine, self, trigger, locals));
            double delay = cycles * engine.clock_period(self);
            std::int32_t token;
            if (!free_slots_.empty()) {
              token = free_slots_.back();
              free_slots_.pop_back();
            } else {
              token = static_cast<std::int32_t>(pending_.size());
              pending_.emplace_back();
            }
            pending_[token] =
                Resume{handler_index, pc + 1, trigger, std::move(locals)};
            engine.schedule_timer(delay, self, token);
            return;  // resumes via on_timer
          }
          case Instr::Op::kSet:
            // An undeclared target (slot -1) warned at construction.
            if (instr.slot >= 0 && instr.constant) {
              set_state(engine, self, instr);
            } else if (instr.slot >= 0) {
              set_state(engine, self, instr.slot,
                        state_text(eval::evaluate(
                            *instr.expr,
                            build_scope(engine, self, trigger, locals))));
            }
            ++pc;
            break;
          case Instr::Op::kCondJumpFalse: {
            bool cond =
                instr.constant
                    ? constant_bool(instr)
                    : eval::evaluate_bool(
                          *instr.expr,
                          build_scope(engine, self, trigger, locals));
            pc = cond ? pc + 1 : instr.target;
            break;
          }
          case Instr::Op::kJump:
            pc = instr.target;
            break;
          case Instr::Op::kBindLocal: {
            // At most one continuation per fire is alive (delay suspends the
            // whole handler), so the shared list is mutated in place.
            if (locals == nullptr) {
              locals = std::make_shared<
                  std::vector<std::pair<Symbol, eval::Value>>>();
            }
            bool found = false;
            for (auto& [name, value] : *locals) {
              if (name == instr.name) {
                value = instr.bind_value;
                found = true;
                break;
              }
            }
            if (!found) locals->emplace_back(instr.name, instr.bind_value);
            ++pc;
            break;
          }
        }
      } catch (const eval::EvalError& e) {
        diags_.error("sim", e.what(), e.loc());
        break;
      }
    }
    busy_ = false;
    // Re-examine conditions: more packets may be pending.
    engine.schedule_poke(0.0, self);
  }
};

/// Fallback: forwards first input to first output combinationally.
class PassThroughModel : public Behavior {
 public:
  PassThroughModel(int in_port, int out_port) : in_(in_port), out_(out_port) {}

  void on_receive(Kernel& engine, int self, int) override {
    try_forward(engine, self);
  }
  void on_output_acked(Kernel& engine, int self, int) override {
    try_forward(engine, self);
  }

 private:
  int in_;
  int out_;

  void try_forward(Kernel& engine, int self) {
    auto& box = engine.component(self).inbox[in_];
    while (!box.empty() && engine.can_send(self, out_)) {
      engine.send(self, out_, box.front());
      engine.ack(self, in_);
    }
  }
};

/// Sink that ignores everything (ports exist but stay idle).
class IdleModel : public Behavior {
 public:
  void on_receive(Kernel&, int, int) override {}
};

}  // namespace

std::unique_ptr<Behavior> make_behavior(
    const Impl& impl, const Streamlet& streamlet,
    const std::map<std::string, double>& params,
    support::DiagnosticEngine& diags) {
  // 1. User-written simulation code wins.
  if (impl.sim.has_value()) {
    return std::make_unique<SimBlockBehavior>(*impl.sim, streamlet, diags);
  }

  auto ins = port_indices(streamlet, lang::PortDir::kIn);
  auto outs = port_indices(streamlet, lang::PortDir::kOut);
  const std::string& family = impl.template_name;
  auto port_name = [&](int port) -> const std::string& {
    return streamlet.ports[port].name;
  };

  // 2. Built-in models by stdlib family.
  if (family == "voider_i" || family == "sink_i") {
    return std::make_unique<SinkModel>(param(params, "latency_cycles", 0.0));
  }
  if (family == "source_i" || family == "const_generator_i") {
    if (!outs.empty()) {
      return std::make_unique<SourceModel>(
          outs.front(),
          static_cast<std::int64_t>(param(params, "count", 256.0)),
          param(params, "interval_cycles", 1.0));
    }
  }
  if (family == "duplicator_i" && !ins.empty()) {
    return std::make_unique<DuplicatorModel>(ins.front(), outs);
  }
  if (family == "group_split2_i" && !ins.empty() && outs.size() >= 2) {
    // The abstract payload cannot be bit-sliced; both field streams carry
    // the packet value (timing-accurate, value-approximate).
    return std::make_unique<DuplicatorModel>(ins.front(), outs);
  }
  if (family == "group_combine2_i" && ins.size() >= 2 && !outs.empty()) {
    // Joint handshake of both fields; the combined packet carries the
    // high-order field's value (see group_split2_i note).
    return std::make_unique<Join2Model>(
        ins[0], ins[1], outs.front(),
        [](std::int64_t a, std::int64_t) { return a; });
  }
  if (family == "demux_i" && !ins.empty() && !outs.empty()) {
    return std::make_unique<DemuxModel>(ins.front(), outs);
  }
  if (family == "mux_i" && !ins.empty() && !outs.empty()) {
    return std::make_unique<MuxModel>(ins, outs.front());
  }
  if ((family == "adder_i" || family == "subtractor_i" ||
       family == "multiplier_i" || family == "comparator_i" ||
       family == "const_compare_i" || family == "const_compare_int_i") &&
      !ins.empty() && !outs.empty()) {
    double latency = param(params, "latency_cycles", 1.0);
    return std::make_unique<PipeModel>(ins.front(), outs.front(), latency,
                                       [](const Packet& p) { return p; });
  }
  if ((family == "add2_i" || family == "sub2_i" || family == "mul2_i" ||
       family == "cmp2_i") &&
      ins.size() >= 2 && !outs.empty()) {
    Join2Model::Op op;
    if (family == "add2_i") {
      op = [](std::int64_t a, std::int64_t b) { return a + b; };
    } else if (family == "sub2_i") {
      op = [](std::int64_t a, std::int64_t b) { return a - b; };
    } else if (family == "mul2_i") {
      op = [](std::int64_t a, std::int64_t b) { return a * b; };
    } else {
      // cmp2_i defaults to equality; the op string only affects RTL.
      op = [](std::int64_t a, std::int64_t b) {
        return static_cast<std::int64_t>(a == b);
      };
    }
    return std::make_unique<Join2Model>(ins[0], ins[1], outs.front(),
                                        std::move(op));
  }
  if (family == "filter_i" && ins.size() >= 2 && !outs.empty()) {
    int keep = ins[1];
    for (int p : ins) {
      if (port_name(p).find("keep") != std::string::npos) keep = p;
    }
    int data = (ins[0] == keep && ins.size() > 1) ? ins[1] : ins[0];
    return std::make_unique<FilterModel>(data, keep, outs.front());
  }
  if ((family == "logic_and_i" || family == "logic_or_i") && !ins.empty() &&
      !outs.empty()) {
    return std::make_unique<LogicReduceModel>(ins, outs.front(),
                                              family == "logic_and_i");
  }
  if (family == "accumulator_i" && !ins.empty() && !outs.empty()) {
    return std::make_unique<AccumulatorModel>(ins.front(), outs.front());
  }

  // 3. Fallback.
  if (!ins.empty() && !outs.empty()) {
    diags.note("sim",
               "no behaviour model for '" + impl.display_name +
                   "' (family '" + family +
                   "'); using pass-through model",
               impl.loc);
    return std::make_unique<PassThroughModel>(ins.front(), outs.front());
  }
  if (!ins.empty()) {
    return std::make_unique<SinkModel>(0.0);
  }
  if (!outs.empty()) {
    return std::make_unique<SourceModel>(outs.front(), 0, 1.0);
  }
  return std::make_unique<IdleModel>();
}

const std::vector<std::string>& builtin_behavior_families() {
  static const std::vector<std::string> families = {
      "voider_i",       "sink_i",           "source_i",
      "const_generator_i", "duplicator_i",  "demux_i",
      "mux_i",          "adder_i",          "subtractor_i",
      "multiplier_i",   "comparator_i",     "const_compare_i",
      "const_compare_int_i", "filter_i",    "logic_and_i",
      "logic_or_i",     "accumulator_i",    "add2_i",
      "sub2_i",         "mul2_i",           "cmp2_i",
      "group_split2_i", "group_combine2_i"};
  return families;
}

}  // namespace tydi::sim
