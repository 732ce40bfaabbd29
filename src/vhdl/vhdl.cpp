#include "src/vhdl/vhdl.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/obs/metrics.hpp"
#include "src/support/text.hpp"
#include "src/vhdl/rtl_lib.hpp"

namespace tydi::vhdl {

using ir::Index;
using ir::IrConnection;
using ir::IrEndpoint;
using ir::IrImpl;
using ir::IrInstance;
using ir::IrPort;
using ir::IrStreamlet;
using ir::kNoIndex;
using ir::Module;
using ir::StreamLayout;
using support::CodeWriter;
using types::PhysicalSignal;

std::string vhdl_name(std::string_view name) {
  return support::sanitize_identifier(name);
}

namespace {

/// VHDL direction of a physical signal on an entity port: forward signals
/// follow the port direction, ready runs opposite; Reverse streams flip.
std::string_view port_mode(const IrPort& p, const StreamLayout& layout,
                           const PhysicalSignal& sig) {
  bool forward_is_in = (p.dir == lang::PortDir::kIn);
  if (layout.stream.direction == lang::StreamDir::kReverse) {
    forward_is_in = !forward_is_in;
  }
  bool is_in = sig.reverse ? !forward_is_in : forward_is_in;
  return is_in ? "in" : "out";
}

/// One physical net of a port: the `<suffix>_<signal>` name tail shared by
/// the port name and every signal-bundle prefix, plus pre-rendered pieces
/// for the per-instance emission sites (signal declarations and port maps),
/// which repeat once per instance of the streamlet.
struct Net {
  std::string suffix_sig;
  std::string decl_tail;  ///< "<suffix_sig> : <type>;"
  std::string map_head;   ///< "<port><suffix_sig> => sig_"
  bool reverse = false;
};

/// Emission products of one port — a pure function of (port name, logical
/// type identity, direction), so a session can share them across compiles.
struct PortEmit {
  std::vector<Net> nets;                ///< flattened over (layout, signal)
  std::vector<std::string> port_lines;  ///< entity/component port lines
};

/// "std_logic" for 1-bit valid/ready, "std_logic_vector(...)" otherwise,
/// appended to `out` without a temporary.
void append_signal_type(std::string& out, const PhysicalSignal& sig) {
  if (sig.name == "valid" || sig.name == "ready") {
    out += "std_logic";
  } else {
    out += "std_logic_vector(";
    out += std::to_string(sig.width - 1);
    out += " downto 0)";
  }
}

std::shared_ptr<const PortEmit> build_port_emit(const IrPort& p) {
  auto out = std::make_shared<PortEmit>();
  for (const StreamLayout& layout : p.layouts) {
    for (const PhysicalSignal& sig : layout.signals) {
      Net net;
      net.suffix_sig = layout.suffix + "_" + sig.name;
      net.reverse = sig.reverse;
      net.decl_tail = net.suffix_sig;
      net.decl_tail += " : ";
      append_signal_type(net.decl_tail, sig);
      net.decl_tail += ';';
      net.map_head = p.vhdl + net.suffix_sig + " => sig_";
      std::string line = p.vhdl + net.suffix_sig;
      line += " : ";
      line += port_mode(p, layout, sig);
      line += ' ';
      append_signal_type(line, sig);
      out->port_lines.push_back(std::move(line));
      out->nets.push_back(std::move(net));
    }
  }
  return out;
}

}  // namespace

/// Session port-emission cache, keyed by (port name symbol, logical-type
/// identity, direction). An entry holds a weak pin on its TypeRef and hits
/// only while the pin is live: a live object's address cannot be reused, so
/// the pointer key stays correct, and an entry lives exactly as long as
/// something else (a retained memo payload) keeps its type. Expired entries
/// are replaced when their key is published again and swept once the map
/// has doubled since the last sweep. Thread-safe: lookups take the shared
/// lock; a miss builds the PortEmit outside any lock and publishes under the
/// exclusive lock (first live writer wins), so concurrent emits of a session
/// share entries without blocking each other's string building.
struct EmitSession::Impl {
  struct Key {
    support::Symbol name_sym = support::kNoSymbol;
    const types::LogicalType* type = nullptr;
    lang::PortDir dir = lang::PortDir::kIn;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = std::hash<const void*>()(k.type);
      h ^= (static_cast<std::size_t>(k.name_sym) + 1) *
           std::size_t{0x9e3779b97f4a7c15ULL};
      return h + (k.dir == lang::PortDir::kIn ? 0 : 1);
    }
  };
  struct Entry {
    std::weak_ptr<const types::LogicalType> pin;
    std::shared_ptr<const PortEmit> emit;
  };
  /// Below this many entries a whole-map sweep is not worth running.
  static constexpr std::size_t kMinSweepEntries = 256;

  std::unordered_map<Key, Entry, KeyHash> ports;
  std::size_t sweep_at = kMinSweepEntries;
  mutable std::shared_mutex mu;

  [[nodiscard]] std::shared_ptr<const PortEmit> find(const Key& key) const {
    std::shared_lock lock(mu);
    auto it = ports.find(key);
    return it != ports.end() && !it->second.pin.expired() ? it->second.emit
                                                          : nullptr;
  }
  /// Publishes `emit` for `key` unless another thread got there first, and
  /// returns the entry that ended up cached.
  [[nodiscard]] std::shared_ptr<const PortEmit> publish(
      const Key& key, const types::TypeRef& pin,
      std::shared_ptr<const PortEmit> emit) {
    std::unique_lock lock(mu);
    auto [it, inserted] = ports.try_emplace(key, Entry{pin, emit});
    if (!inserted && it->second.pin.expired()) {
      it->second = Entry{pin, emit};  // the address now names a new type
    }
    std::shared_ptr<const PortEmit> cached = it->second.emit;
    if (ports.size() >= sweep_at) sweep_locked();
    return cached;
  }
  void sweep_locked() {
    std::erase_if(ports, [](const auto& kv) { return kv.second.pin.expired(); });
    sweep_at = std::max(kMinSweepEntries, 2 * ports.size());
  }
};

EmitSession::EmitSession() : impl_(std::make_unique<Impl>()) {}
EmitSession::~EmitSession() = default;
void EmitSession::clear() {
  std::unique_lock lock(impl_->mu);
  impl_->ports.clear();
  impl_->sweep_at = Impl::kMinSweepEntries;
}

void EmitSession::sweep() {
  std::unique_lock lock(impl_->mu);
  impl_->sweep_locked();
}

std::size_t EmitSession::live_entries() const {
  std::shared_lock lock(impl_->mu);
  return static_cast<std::size_t>(std::count_if(
      impl_->ports.begin(), impl_->ports.end(),
      [](const auto& kv) { return !kv.second.pin.expired(); }));
}

std::vector<const types::LogicalType*> EmitSession::live_types() const {
  std::shared_lock lock(impl_->mu);
  std::vector<const types::LogicalType*> out;
  for (const auto& [key, entry] : impl_->ports) {
    if (!entry.pin.expired()) out.push_back(key.type);
  }
  return out;
}

namespace {

/// Per-module emission cache: every string that the old emitter rebuilt per
/// use site — entity port lines, per-net `suffix_signal` name tails,
/// sanitized impl names, rendered component declarations — is built at most
/// once per module and written through the rope writer as `string_view`
/// pieces. With a session, per-port products come from the session cache,
/// so warm compiles skip the string building entirely.
class EmitCache {
 public:
  EmitCache(const Module& m, EmitSession::Impl* session)
      : m_(m),
        session_(session),
        streamlets_(m.streamlets.size()),
        impl_names_(m.impls.size()) {}

  /// Sanitized entity name of an impl, computed once per module.
  const std::string& impl_name(Index impl) {
    std::string& name = impl_names_[impl];
    if (name.empty()) name = vhdl_name(m_.impls[impl].name);
    return name;
  }

  struct StreamletEmit {
    /// Parallel to streamlet.ports; shared with the session cache.
    std::vector<std::shared_ptr<const PortEmit>> ports;
    std::size_t net_count = 0;  ///< total nets across all ports
  };

  const StreamletEmit& streamlet(Index index) {
    std::unique_ptr<StreamletEmit>& slot = streamlets_[index];
    if (slot == nullptr) {
      slot = std::make_unique<StreamletEmit>();
      build(m_.streamlets[index], *slot);
    }
    return *slot;
  }

  /// Fully rendered component declaration of an impl (depth 1 — component
  /// declarations only ever appear in an architecture's declarative part).
  /// Children recur across parent impls, so the block renders once per
  /// module and later mentions are a single chunk-level write().
  const std::string& component_decl(Index impl) {
    if (component_decls_.empty()) component_decls_.resize(m_.impls.size());
    std::string& text = component_decls_[impl];
    if (text.empty()) {
      CodeWriter w("  ", 1);
      emit_component_decl_uncached(w, impl_name(impl),
                                   streamlet(m_.impls[impl].streamlet));
      text = w.take();
    }
    return text;
  }

  static void emit_port_lines(CodeWriter& w, const StreamletEmit& se) {
    std::size_t written = 0;
    for (const auto& pe : se.ports) {
      for (const std::string& line : pe->port_lines) {
        ++written;
        w.line(line, written < se.net_count ? ";" : "");
      }
    }
  }

  static void emit_component_decl_uncached(CodeWriter& w,
                                           std::string_view name,
                                           const StreamletEmit& se) {
    w.open("component ", name, " is");
    w.open("port (");
    w.line("clk : in std_logic;");
    w.line("rst : in std_logic;");
    emit_port_lines(w, se);
    w.close(");");
    w.close("end component;");
  }

 private:
  void build(const IrStreamlet& s, StreamletEmit& out) {
    out.ports.reserve(s.ports.size());
    for (const IrPort& p : s.ports) {
      std::shared_ptr<const PortEmit> pe;
      if (session_ != nullptr && p.type != nullptr) {
        static obs::Counter& hits = obs::MetricsRegistry::global().counter(
            "tydi.vhdl.port_cache_hits");
        static obs::Counter& misses = obs::MetricsRegistry::global().counter(
            "tydi.vhdl.port_cache_misses");
        const EmitSession::Impl::Key key{p.sym, p.type.get(), p.dir};
        pe = session_->find(key);
        if (pe == nullptr) {
          ++misses;
          pe = session_->publish(key, p.type, build_port_emit(p));
        } else {
          ++hits;
        }
      } else {
        pe = build_port_emit(p);
      }
      out.net_count += pe->nets.size();
      out.ports.push_back(std::move(pe));
    }
  }

  const Module& m_;
  EmitSession::Impl* session_;
  std::vector<std::unique_ptr<StreamletEmit>> streamlets_;
  std::vector<std::string> impl_names_;
  std::vector<std::string> component_decls_;
};

/// Emits `entity <name> is port (...); end <name>;` off the cached lines.
void emit_entity(CodeWriter& w, std::string_view name,
                 const EmitCache::StreamletEmit& se) {
  w.open("entity ", name, " is");
  w.open("port (");
  w.line("clk : in std_logic;");
  w.line("rst : in std_logic;");
  EmitCache::emit_port_lines(w, se);
  w.close(");");
  w.close("end entity ", name, ";");
}

class ArchitectureEmitter {
 public:
  ArchitectureEmitter(CodeWriter& w, const Module& module, Index impl_index,
                      EmitCache& cache, support::DiagnosticEngine& diags)
      : w_(w),
        module_(module),
        impl_(module.impls[impl_index]),
        impl_index_(impl_index),
        cache_(cache),
        diags_(diags) {}

  void emit_structural() {
    w_.open("architecture structural of ", cache_.impl_name(impl_index_),
            " is");
    emit_component_decls();
    emit_signal_decls();
    w_.dedent();
    w_.open("begin");
    emit_instantiations();
    emit_connection_wiring();
    w_.close("end architecture structural;");
  }

 private:
  CodeWriter& w_;
  const Module& module_;
  const IrImpl& impl_;
  Index impl_index_;
  EmitCache& cache_;
  support::DiagnosticEngine& diags_;

  /// Streamlet table index of an instance's child impl, or kNoIndex.
  [[nodiscard]] Index child_streamlet_index(const IrInstance& inst) const {
    if (inst.impl == kNoIndex) return kNoIndex;
    return module_.impls[inst.impl].streamlet;
  }

  void emit_component_decls() {
    // One declaration per distinct child implementation, first-seen order
    // (flat per-impl bitmap, not a string-keyed map).
    std::vector<bool> declared(module_.impls.size(), false);
    for (const IrInstance& inst : impl_.instances) {
      Index cs = child_streamlet_index(inst);
      if (cs == kNoIndex || declared[inst.impl]) continue;
      declared[inst.impl] = true;
      w_.write(cache_.component_decl(inst.impl));
    }
  }

  void emit_signal_decls() {
    // One signal bundle per instance port; entity ports are used directly.
    // The bundle prefix `sig_<inst>_<port>` is written as view pieces — no
    // per-port prefix strings are built.
    for (const IrInstance& inst : impl_.instances) {
      Index cs = child_streamlet_index(inst);
      if (cs == kNoIndex) {
        diags_.warning("vhdl",
                       "instance '" + inst.name +
                           "' has unresolved impl; skipped in VHDL",
                       inst.loc);
        continue;
      }
      const IrStreamlet& child = module_.streamlets[cs];
      const EmitCache::StreamletEmit& se = cache_.streamlet(cs);
      for (std::size_t pi = 0; pi < child.ports.size(); ++pi) {
        const IrPort& p = child.ports[pi];
        for (const Net& net : se.ports[pi]->nets) {
          w_.line("signal sig_", inst.vhdl, "_", p.vhdl, net.decl_tail);
        }
      }
    }
  }

  void emit_instantiations() {
    for (const IrInstance& inst : impl_.instances) {
      Index cs = child_streamlet_index(inst);
      if (cs == kNoIndex) continue;
      const IrStreamlet& child = module_.streamlets[cs];
      const EmitCache::StreamletEmit& se = cache_.streamlet(cs);
      w_.open("u_", inst.vhdl, " : ", cache_.impl_name(inst.impl));
      w_.open("port map (");
      w_.line("clk => clk,");
      w_.line("rst => rst", se.net_count > 0 ? "," : "");
      std::size_t written = 0;
      for (std::size_t pi = 0; pi < child.ports.size(); ++pi) {
        const IrPort& p = child.ports[pi];
        for (const Net& net : se.ports[pi]->nets) {
          ++written;
          w_.line(net.map_head, inst.vhdl, "_", p.vhdl, net.suffix_sig,
                  written < se.net_count ? "," : "");
        }
      }
      w_.close(");");
      w_.dedent();
    }
  }

  /// A resolved wiring side: the port (for layouts), its cached nets, and
  /// the signal-bundle prefix as view pieces (self ports use their own
  /// names, instance ports their declared internal bundle).
  struct Side {
    const IrPort* port = nullptr;
    const PortEmit* nets = nullptr;
    std::string_view lead;  // "sig_" or ""
    std::string_view inst;  // instance identifier or ""
    std::string_view sep;   // "_" or ""
    std::string_view name;  // port identifier
  };

  [[nodiscard]] bool resolve_side(const IrEndpoint& ep, Side& out) {
    if (!ep.ok()) return false;
    Index cs;
    if (ep.is_self()) {
      cs = impl_.streamlet;
    } else {
      const IrInstance& inst = impl_.instances[ep.instance];
      cs = child_streamlet_index(inst);
      out.lead = "sig_";
      out.inst = inst.vhdl;
      out.sep = "_";
    }
    if (cs == kNoIndex) return false;
    out.port = &module_.streamlets[cs].ports[ep.port];
    out.nets = cache_.streamlet(cs).ports[ep.port].get();
    out.name = out.port->vhdl;
    return true;
  }

  void emit_connection_wiring() {
    for (const IrConnection& c : impl_.connections) {
      Side src;
      Side dst;
      if (!resolve_side(c.src, src) || !resolve_side(c.dst, dst)) {
        diags_.warning("vhdl",
                       "unresolved connection " + c.src.display() + " => " +
                           c.dst.display() + "; skipped in VHDL",
                       c.loc);
        continue;
      }
      const auto& src_layouts = src.port->layouts;
      const auto& dst_layouts = dst.port->layouts;
      if (src_layouts.size() != dst_layouts.size()) continue;  // DRC reported
      emit_endpoint_comment(c.src, c.dst);
      std::size_t src_net = 0;
      std::size_t dst_net = 0;
      for (std::size_t s = 0; s < src_layouts.size(); ++s) {
        const auto& src_sigs = src_layouts[s].signals;
        const auto& dst_sigs = dst_layouts[s].signals;
        const std::size_t common = std::min(src_sigs.size(), dst_sigs.size());
        for (std::size_t k = 0; k < common; ++k) {
          const PhysicalSignal& sig = src_sigs[k];
          // src side: the cached `<suffix>_<sig>` tail; dst side keeps the
          // historical spelling `<dst suffix>_<src signal name>`.
          const std::string& src_tail = src.nets->nets[src_net + k].suffix_sig;
          const std::string& dst_suffix = dst_layouts[s].suffix;
          if (sig.reverse) {
            // ready flows sink -> source.
            w_.line(src.lead, src.inst, src.sep, src.name, src_tail, " <= ",
                    dst.lead, dst.inst, dst.sep, dst.name, dst_suffix, "_",
                    sig.name, ";");
          } else {
            w_.line(dst.lead, dst.inst, dst.sep, dst.name, dst_suffix, "_",
                    sig.name, " <= ", src.lead, src.inst, src.sep, src.name,
                    src_tail, ";");
          }
        }
        src_net += src_sigs.size();
        dst_net += dst_sigs.size();
      }
    }
  }

  /// "-- src => dst" comment, written as interner-backed view pieces.
  void emit_endpoint_comment(const IrEndpoint& src, const IrEndpoint& dst) {
    auto named = [](support::Symbol sym) -> std::string_view {
      return sym != support::kNoSymbol ? std::string_view(support::symbol_name(sym))
                                       : std::string_view();
    };
    auto part = [&named](const IrEndpoint& ep,
                         std::size_t piece) -> std::string_view {
      if (ep.is_self()) {
        return piece == 2 ? named(ep.port_sym) : std::string_view();
      }
      switch (piece) {
        case 0: return named(ep.instance_sym);
        case 1: return ".";
        default: return named(ep.port_sym);
      }
    };
    w_.line("-- ", part(src, 0), part(src, 1), part(src, 2), " => ",
            part(dst, 0), part(dst, 1), part(dst, 2));
  }
};

void emit_external_architecture(CodeWriter& w, const IrImpl& impl,
                                const IrStreamlet& streamlet,
                                std::string_view name,
                                const VhdlOptions& options,
                                support::DiagnosticEngine& diags) {
  std::optional<RtlBody> body;
  if (options.generate_stdlib_rtl) {
    body = generate_stdlib_rtl(impl, streamlet);
  }
  if (!body) {
    w.open("architecture blackbox of ", name, " is");
    w.dedent();
    w.open("begin");
    w.line("-- external implementation '", impl.display_name,
           "' is provided by an external tool;");
    w.line("-- its behaviour is characterized by the Tydi simulation code "
           "and verified via generated testbenches.");
    w.close("end architecture blackbox;");
    if (!impl.template_family.empty()) {
      diags.note("vhdl",
                 "external impl '" + impl.display_name +
                     "' emitted as black box (no stdlib RTL generator for "
                     "family '" +
                     impl.template_family + "')",
                 impl.loc);
    }
    return;
  }
  // Splice the generated body by moving its rope chunks — the generators
  // wrote their lines at architecture-body depth already.
  w.open("architecture behavioural of ", name, " is");
  w.append(std::move(body->declarations));
  w.dedent();
  w.open("begin");
  w.append(std::move(body->statements));
  w.close("end architecture behavioural;");
}

}  // namespace

std::string emit(const Module& module, const VhdlOptions& options,
                 support::DiagnosticEngine& diags, EmitSession* session) {
  CodeWriter w;
  EmitCache cache(module, session != nullptr ? &session->impl() : nullptr);
  if (options.emit_header) {
    w.line("-- VHDL generated by tydi-cpp (Tydi-IR backend)");
    if (!module.top_name.empty()) w.line("-- top: ", module.top_name);
    w.line();
  }
  for (std::size_t i = 0; i < module.impls.size(); ++i) {
    const IrImpl& impl = module.impls[i];
    const IrStreamlet* s = module.streamlet_of(impl);
    if (s == nullptr) {
      diags.warning("vhdl",
                    "impl '" + impl.name +
                        "' has unresolved streamlet; skipped",
                    impl.loc);
      continue;
    }
    const std::string& name = cache.impl_name(static_cast<Index>(i));
    w.line("library ieee;");
    w.line("use ieee.std_logic_1164.all;");
    w.line("use ieee.numeric_std.all;");
    w.line();
    w.line("-- ", impl.display_name, " of ", s->display_name);
    emit_entity(w, name, cache.streamlet(impl.streamlet));
    w.line();
    if (impl.external) {
      emit_external_architecture(w, impl, *s, name, options, diags);
    } else {
      ArchitectureEmitter arch(w, module, static_cast<Index>(i), cache, diags);
      arch.emit_structural();
    }
    w.line();
  }
  return w.take();
}

}  // namespace tydi::vhdl
