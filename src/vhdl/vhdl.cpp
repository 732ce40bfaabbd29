#include "src/vhdl/vhdl.hpp"

#include <algorithm>
#include <memory>

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

void add_diag(std::vector<support::Diagnostic>& out, support::Severity sev,
              std::string message, support::Loc loc) {
  out.push_back(support::Diagnostic{sev, "vhdl", std::move(message), loc});
}

}  // namespace

/// Everything the emitter writes per streamlet, built once per streamlet
/// payload: the nets of every port and the component port list (clk/rst
/// plus one line per net), which every parent architecture declares.
struct StreamletEmit {
  /// One physical net of a port: the `<suffix>_<signal>` name tail shared by
  /// the port name and every signal-bundle prefix, its VHDL type and its
  /// mode on the entity.
  struct Net {
    std::string suffix_sig;
    std::string type;
    std::string_view mode;  ///< "in" / "out"
  };

  std::vector<std::vector<Net>> ports;  ///< parallel to streamlet.ports
  std::size_t net_count = 0;            ///< total nets across all ports
  std::string component_ports;
};

/// One instance's lines in its parent's architecture — the signal bundle
/// declarations and the instantiation — at architecture depth: a function
/// of the instance name and the child impl and streamlet.
struct InstanceBlock {
  std::string signals;
  std::string instantiation;
};

/// One external impl's block: library header, entity and architecture, plus
/// the diagnostics rendering it reported (replayed on every use).
struct RenderedImpl {
  std::string text;
  std::vector<support::Diagnostic> diags;
};

namespace {

using Net = StreamletEmit::Net;

/// The writer's text with no spare capacity (cached texts live long).
std::string take_exact(CodeWriter& w) {
  std::string text = w.take();
  text.shrink_to_fit();
  return text;
}

/// Writes clk/rst and one `<port><suffix>_<sig> : <mode> <type>` line per
/// net — the port list of an entity or component declaration.
void write_port_list(CodeWriter& w, const IrStreamlet& s,
                     const StreamletEmit& se) {
  w.line("clk : in std_logic;");
  w.line("rst : in std_logic;");
  std::size_t written = 0;
  for (std::size_t pi = 0; pi < s.ports.size(); ++pi) {
    for (const Net& net : se.ports[pi]) {
      ++written;
      w.line(s.ports[pi].vhdl, net.suffix_sig, " : ", net.mode, " ", net.type,
             written < se.net_count ? ";" : "");
    }
  }
}

StreamletEmit build_streamlet_emit(const IrStreamlet& s) {
  StreamletEmit out;
  out.ports.reserve(s.ports.size());
  for (const IrPort& p : s.ports) {
    std::vector<Net>& nets = out.ports.emplace_back();
    for (const StreamLayout& layout : p.layouts) {
      for (const PhysicalSignal& sig : layout.signals) {
        Net& net = nets.emplace_back();
        net.suffix_sig = layout.suffix + "_" + sig.name;
        append_signal_type(net.type, sig);
        net.mode = port_mode(p, layout, sig);
        ++out.net_count;
      }
    }
  }
  CodeWriter w("  ", 3);
  write_port_list(w, s, out);
  out.component_ports = take_exact(w);
  return out;
}

/// Per-compile view of the emission caches: streamlet products and impl
/// blocks by module index, each looked up in the session memo (when there
/// is one and the IR carries payload identities) before it is built.
class EmitContext {
 public:
  EmitContext(const Module& m, const VhdlOptions& options, EmitMemo* memo,
              support::CacheHold* hold)
      : m_(m),
        options_(options),
        memo_(hold != nullptr ? memo : nullptr),
        hold_(hold),
        streamlets_(m.streamlets.size()) {}

  const StreamletEmit& streamlet(Index index) {
    std::shared_ptr<const StreamletEmit>& slot = streamlets_[index];
    if (slot == nullptr) {
      const IrStreamlet& s = *m_.streamlets[index];
      auto build = [&s] { return build_streamlet_emit(s); };
      if (memo_ == nullptr || s.origin.id == nullptr) {
        slot = std::make_shared<const StreamletEmit>(build());
      } else {
        support::IdentityKey key;
        key.parts.push_back(s.origin);
        slot = memo_->streamlets.find_or_build(std::move(key), *hold_, build);
      }
    }
    return *slot;
  }

  /// The block of external impl `index` (whose streamlet is resolved).
  std::shared_ptr<const RenderedImpl> impl(Index index);

  /// Writes impl `index`'s block — library header, entity, architecture —
  /// into `w`, collecting its diagnostics in `diags`.
  void write_impl(CodeWriter& w, Index index,
                  std::vector<support::Diagnostic>& diags);

  /// The lines of instance `inst` (whose child impl and streamlet are
  /// resolved) in its parent's architecture.
  std::shared_ptr<const InstanceBlock> instance(const IrInstance& inst) {
    const IrImpl& child = m_.impls[inst.impl];
    const IrStreamlet& s = *m_.streamlets[child.streamlet];
    auto build = [&] { return render_instance(inst, child, s); };
    if (memo_ == nullptr || child.origin.id == nullptr ||
        s.origin.id == nullptr) {
      return std::make_shared<const InstanceBlock>(build());
    }
    support::IdentityKey key;
    key.parts = {child.origin, s.origin};
    key.tag = inst.sym;
    return memo_->instances.find_or_build(std::move(key), *hold_, build);
  }

  /// Writes the component declaration of impl `index` (depth 1 — component
  /// declarations only appear in an architecture's declarative part).
  void component_decl(CodeWriter& w, Index index) {
    const IrImpl& impl = m_.impls[index];
    w.open("component ", impl.vhdl, " is");
    w.open("port (");
    w.write(streamlet(impl.streamlet).component_ports);
    w.close(");");
    w.close("end component;");
  }

  [[nodiscard]] const Module& module() const { return m_; }

  /// Publishes this compile's block lookups to the registry (one add each).
  void count_lookups() const {
    if (memo_ == nullptr) return;
    static obs::Counter& hits =
        obs::MetricsRegistry::global().counter("tydi.vhdl.memo_hits");
    static obs::Counter& misses =
        obs::MetricsRegistry::global().counter("tydi.vhdl.memo_misses");
    hits += hits_;
    misses += misses_;
  }

 private:
  InstanceBlock render_instance(const IrInstance& inst, const IrImpl& child,
                                const IrStreamlet& s) {
    const StreamletEmit& se = streamlet(child.streamlet);
    InstanceBlock out;
    // The bundle prefix `sig_<inst>_<port>` is written as view pieces — no
    // per-port prefix strings are built.
    CodeWriter signals("  ", 1);
    CodeWriter map("  ", 1);
    map.open("u_", inst.vhdl, " : ", child.vhdl);
    map.open("port map (");
    map.line("clk => clk,");
    map.line("rst => rst", se.net_count > 0 ? "," : "");
    std::size_t written = 0;
    for (std::size_t pi = 0; pi < s.ports.size(); ++pi) {
      const std::string& port = s.ports[pi].vhdl;
      for (const Net& net : se.ports[pi]) {
        ++written;
        signals.line("signal sig_", inst.vhdl, "_", port, net.suffix_sig,
                     " : ", net.type, ";");
        map.line(port, net.suffix_sig, " => sig_", inst.vhdl, "_", port,
                 net.suffix_sig, written < se.net_count ? "," : "");
      }
    }
    map.close(");");
    map.dedent();
    out.signals = take_exact(signals);
    out.instantiation = take_exact(map);
    return out;
  }

  const Module& m_;
  const VhdlOptions& options_;
  EmitMemo* memo_;
  support::CacheHold* hold_;
  std::vector<std::shared_ptr<const StreamletEmit>> streamlets_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Emits `entity <name> is port (...); end <name>;`.
void emit_entity(CodeWriter& w, std::string_view name, const IrStreamlet& s,
                 const StreamletEmit& se) {
  w.open("entity ", name, " is");
  w.open("port (");
  write_port_list(w, s, se);
  w.close(");");
  w.close("end entity ", name, ";");
}

class ArchitectureEmitter {
 public:
  ArchitectureEmitter(CodeWriter& w, Index impl_index, EmitContext& cache,
                      std::vector<support::Diagnostic>& diags)
      : w_(w),
        module_(cache.module()),
        impl_(module_.impls[impl_index]),
        cache_(cache),
        diags_(diags) {}

  void emit_structural() {
    w_.open("architecture structural of ", impl_.vhdl, " is");
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
  EmitContext& cache_;
  std::vector<support::Diagnostic>& diags_;

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
      cache_.component_decl(w_, inst.impl);
    }
  }

  /// The per-instance blocks, parallel to impl_.instances (null when the
  /// instance's impl is unresolved).
  std::vector<std::shared_ptr<const InstanceBlock>> instances_;

  void emit_signal_decls() {
    // One signal bundle per instance port; entity ports are used directly.
    instances_.reserve(impl_.instances.size());
    for (const IrInstance& inst : impl_.instances) {
      if (child_streamlet_index(inst) == kNoIndex) {
        add_diag(diags_, support::Severity::kWarning,
                 "instance '" + inst.name +
                     "' has unresolved impl; skipped in VHDL",
                 inst.loc);
        instances_.emplace_back();
        continue;
      }
      w_.write(instances_.emplace_back(cache_.instance(inst))->signals);
    }
  }

  void emit_instantiations() {
    for (const auto& block : instances_) {
      if (block != nullptr) w_.write(block->instantiation);
    }
  }

  /// A resolved wiring side: the port (for layouts), its cached nets, and
  /// the signal-bundle prefix as view pieces (self ports use their own
  /// names, instance ports their declared internal bundle).
  struct Side {
    const IrPort* port = nullptr;
    const std::vector<Net>* nets = nullptr;
    std::string_view lead;  // "sig_" or ""
    std::string_view inst;  // instance identifier or ""
    std::string_view sep;   // "_" or ""
    std::string_view name;  // port identifier
    std::string_view inst_name;  // instance name or "" (for comments)
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
      out.inst_name = inst.name;
    }
    if (cs == kNoIndex) return false;
    out.port = &module_.streamlets[cs]->ports[ep.port];
    out.nets = &cache_.streamlet(cs).ports[ep.port];
    out.name = out.port->vhdl;
    return true;
  }

  void emit_connection_wiring() {
    for (const IrConnection& c : impl_.connections) {
      Side src;
      Side dst;
      if (!resolve_side(c.src, src) || !resolve_side(c.dst, dst)) {
        add_diag(diags_, support::Severity::kWarning,
                 "unresolved connection " + c.src.display() + " => " +
                     c.dst.display() + "; skipped in VHDL",
                 c.loc);
        continue;
      }
      const auto& src_layouts = src.port->layouts;
      const auto& dst_layouts = dst.port->layouts;
      if (src_layouts.size() != dst_layouts.size()) continue;  // DRC reported
      emit_endpoint_comment(src, dst);
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
          const std::string& src_tail = (*src.nets)[src_net + k].suffix_sig;
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

  /// "-- src => dst" comment, written as view pieces.
  void emit_endpoint_comment(const Side& src, const Side& dst) {
    w_.line("-- ", src.inst_name, src.inst_name.empty() ? "" : ".",
            src.port->name, " => ", dst.inst_name,
            dst.inst_name.empty() ? "" : ".", dst.port->name);
  }
};

void emit_external_architecture(CodeWriter& w, const IrImpl& impl,
                                const IrStreamlet& streamlet,
                                std::string_view name,
                                const VhdlOptions& options,
                                std::vector<support::Diagnostic>& diags) {
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
      add_diag(diags, support::Severity::kNote,
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

std::shared_ptr<const RenderedImpl> EmitContext::impl(Index index) {
  // An external block reads only its impl, its streamlet and the options.
  const IrImpl& impl = m_.impls[index];
  const support::Identity& streamlet = m_.streamlets[impl.streamlet]->origin;
  auto build = [&] {
    RenderedImpl out;
    CodeWriter w;
    write_impl(w, index, out.diags);
    out.text = take_exact(w);
    return out;
  };
  if (memo_ == nullptr || impl.origin.id == nullptr ||
      streamlet.id == nullptr) {
    return std::make_shared<const RenderedImpl>(build());
  }
  support::IdentityKey key;
  key.parts = {impl.origin, streamlet};
  key.tag = options_.generate_stdlib_rtl ? 1 : 0;
  bool hit = false;
  auto block = memo_->impls.find_or_build(std::move(key), *hold_, build, &hit);
  ++(hit ? hits_ : misses_);
  return block;
}

void EmitContext::write_impl(CodeWriter& w, Index index,
                             std::vector<support::Diagnostic>& diags) {
  const IrImpl& impl = m_.impls[index];
  const IrStreamlet& s = *m_.streamlets[impl.streamlet];
  w.line("library ieee;");
  w.line("use ieee.std_logic_1164.all;");
  w.line("use ieee.numeric_std.all;");
  w.line();
  w.line("-- ", impl.display_name, " of ", s.display_name);
  emit_entity(w, impl.vhdl, s, streamlet(impl.streamlet));
  w.line();
  if (impl.external) {
    emit_external_architecture(w, impl, s, impl.vhdl, options_, diags);
  } else {
    ArchitectureEmitter(w, index, *this, diags).emit_structural();
  }
  w.line();
}

}  // namespace

std::string emit(const Module& module, const VhdlOptions& options,
                 support::DiagnosticEngine& diags, EmitMemo* memo,
                 support::CacheHold* hold) {
  EmitContext context(module, options, memo, hold);
  CodeWriter w;
  if (options.emit_header) {
    w.line("-- VHDL generated by tydi-cpp (Tydi-IR backend)");
    if (!module.top_name.empty()) w.line("-- top: ", module.top_name);
    w.line();
  }
  for (std::size_t i = 0; i < module.impls.size(); ++i) {
    const IrImpl& impl = module.impls[i];
    if (module.streamlet_of(impl) == nullptr) {
      diags.warning("vhdl",
                    "impl '" + impl.name +
                        "' has unresolved streamlet; skipped",
                    impl.loc);
      continue;
    }
    std::shared_ptr<const RenderedImpl> block;
    std::vector<support::Diagnostic> fresh;
    if (impl.external) {
      block = context.impl(static_cast<Index>(i));
      w.write(block->text);
    } else {
      // A structural architecture (an edited top) is written in place from
      // cached parts; no whole-block copy is kept or made.
      context.write_impl(w, static_cast<Index>(i), fresh);
    }
    for (const support::Diagnostic& d : block ? block->diags : fresh) {
      diags.report(d.severity, d.phase, d.message, d.loc);
    }
  }
  context.count_lookups();
  return w.take();
}

}  // namespace tydi::vhdl
