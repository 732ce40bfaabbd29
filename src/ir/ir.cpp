#include "src/ir/ir.hpp"

#include "src/elab/design.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/text.hpp"

namespace tydi::ir {

Index IrStreamlet::port_index(Symbol port_sym) const {
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (ports[i].sym == port_sym) return static_cast<Index>(i);
  }
  return kNoIndex;
}

Index IrImpl::instance_index(Symbol instance_sym) const {
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (instances[i].sym == instance_sym) return static_cast<Index>(i);
  }
  return kNoIndex;
}

std::string IrEndpoint::display() const {
  std::string port = port_sym != support::kNoSymbol
                         ? support::symbol_name(port_sym)
                         : std::string();
  if (is_self()) return port;
  return support::symbol_name(instance_sym) + "." + port;
}

const IrImpl* Module::find_impl(Symbol sym) const {
  Index i = impl_index(sym);
  return i != kNoIndex ? &impls[i] : nullptr;
}

Index Module::streamlet_index(Symbol sym) const {
  auto it = streamlet_index_.find(sym);
  return it != streamlet_index_.end() ? it->second : kNoIndex;
}

Index Module::impl_index(Symbol sym) const {
  auto it = impl_index_.find(sym);
  return it != impl_index_.end() ? it->second : kNoIndex;
}

const IrStreamlet* Module::streamlet_of(const IrImpl& impl) const {
  return impl.streamlet != kNoIndex ? streamlets[impl.streamlet].get()
                                    : nullptr;
}

const IrPort* Module::resolve(const IrImpl& impl,
                              const IrEndpoint& ep) const {
  if (!ep.ok()) return nullptr;
  if (ep.is_self()) {
    const IrStreamlet* s = streamlet_of(impl);
    return s != nullptr ? &s->ports[ep.port] : nullptr;
  }
  const IrInstance& inst = impl.instances[ep.instance];
  if (inst.impl == kNoIndex) return nullptr;
  const IrStreamlet* s = streamlet_of(impls[inst.impl]);
  return s != nullptr ? &s->ports[ep.port] : nullptr;
}

void Module::rebuild_index() {
  streamlet_index_.clear();
  impl_index_.clear();
  streamlet_index_.reserve(streamlets.size());
  impl_index_.reserve(impls.size());
  for (std::size_t i = 0; i < streamlets.size(); ++i) {
    streamlet_index_[streamlets[i]->sym] = static_cast<Index>(i);
  }
  for (std::size_t i = 0; i < impls.size(); ++i) {
    impl_index_[impls[i].sym] = static_cast<Index>(i);
  }
}

namespace {

IrTemplateArg lower_template_arg(const elab::TemplateArgValue& a) {
  IrTemplateArg out;
  out.display = a.display();
  if (a.kind == elab::TemplateArgValue::Kind::kValue) {
    if (a.value.is_int()) {
      out.kind = IrTemplateArg::Kind::kInt;
      out.int_value = a.value.as_int();
    } else if (a.value.is_string()) {
      out.kind = IrTemplateArg::Kind::kString;
      out.string_value = a.value.as_string();
    }
  }
  return out;
}

/// A type's display form and physical stream layouts.
struct TypeLowering {
  std::string display;
  std::vector<StreamLayout> layouts;
};

/// Types lowered so far in one lower() call, keyed by identity. The ports of
/// one design share few distinct types (2.5-4 ports per type on TPC-H), so
/// each type is lowered once per call; the design keeps the keys alive.
using TypeLowerings =
    std::unordered_map<const types::LogicalType*, TypeLowering>;

IrPort lower_port(const elab::Port& p, TypeLowerings& lowered) {
  IrPort out;
  out.sym = p.sym != support::kNoSymbol ? p.sym : support::intern(p.name);
  out.name = p.name;
  out.vhdl = support::sanitize_identifier(p.name);
  out.dir = p.dir;
  out.type = p.type;
  out.clock_domain = p.clock_domain;
  out.clock_sym = support::intern(p.clock_domain);
  out.loc = p.loc;
  if (p.type == nullptr) {
    out.type_display = "<unresolved>";
    return out;
  }
  auto [it, fresh] = lowered.try_emplace(p.type.get());
  TypeLowering& type = it->second;
  if (fresh) {
    type.display = p.type->to_display();
    if (p.type->is_stream()) {
      // Prefix "" gives each stream's suffix directly ("" for the primary
      // stream, "__field..." for nested ones); consumers prepend their own
      // prefixes, so the layout is computed once here and never again.
      for (types::PhysicalStream& ps : types::physical_streams(p.type, "")) {
        StreamLayout layout;
        layout.suffix = ps.name;
        layout.signals = ps.signals();
        layout.stream = std::move(ps);
        type.layouts.push_back(std::move(layout));
      }
    }
  }
  out.type_display = type.display;
  out.layouts = type.layouts;
  return out;
}

IrStreamlet lower_streamlet(const std::shared_ptr<const elab::Streamlet>& slot,
                            TypeLowerings& lowered) {
  const elab::Streamlet& s = *slot;
  IrStreamlet is;
  is.sym = s.sym != support::kNoSymbol ? s.sym : support::intern(s.name);
  is.name = s.name;
  is.display_name = s.display_name;
  is.loc = s.loc;
  is.ports.reserve(s.ports.size());
  for (const elab::Port& p : s.ports) {
    is.ports.push_back(lower_port(p, lowered));
  }
  is.origin = support::Identity(slot);
  return is;
}

/// An impl with every name interned and every module-relative index
/// (streamlet, instance impls, endpoint resolution) still unset.
IrImpl lower_impl_shell(const std::shared_ptr<const elab::Impl>& slot) {
  const elab::Impl& i = *slot;
  IrImpl ii;
  ii.sym = i.sym != support::kNoSymbol ? i.sym : support::intern(i.name);
  ii.name = i.name;
  ii.vhdl = support::sanitize_identifier(i.name);
  ii.display_name = i.display_name;
  ii.streamlet_sym = support::intern(i.streamlet_name);
  ii.external = i.external;
  if (!i.template_name.empty()) {
    ii.family_sym = support::intern(i.template_name);
    ii.template_family = i.template_name;
  }
  ii.template_args.reserve(i.template_args.size());
  for (const elab::TemplateArgValue& a : i.template_args) {
    ii.template_args.push_back(lower_template_arg(a));
  }
  ii.instances.reserve(i.instances.size());
  for (const elab::Instance& inst : i.instances) {
    IrInstance ir_inst;
    ir_inst.sym = support::intern(inst.name);
    ir_inst.name = inst.name;
    ir_inst.vhdl = support::sanitize_identifier(inst.name);
    ir_inst.impl_sym = support::intern(inst.impl_name);
    ir_inst.loc = inst.loc;
    ii.instances.push_back(std::move(ir_inst));
  }
  auto endpoint = [](const elab::Endpoint& ep) {
    IrEndpoint out;
    out.loc = ep.loc;
    out.port_sym = support::intern(ep.port);
    if (!ep.instance.empty()) out.instance_sym = support::intern(ep.instance);
    return out;
  };
  ii.connections.reserve(i.connections.size());
  for (const elab::Connection& c : i.connections) {
    IrConnection ic;
    ic.src = endpoint(c.src);
    ic.dst = endpoint(c.dst);
    ic.structural = c.structural;
    ic.loc = c.loc;
    ii.connections.push_back(std::move(ic));
  }
  ii.has_simulation = i.sim.has_value();
  ii.loc = i.loc;
  ii.origin = support::Identity(slot);
  return ii;
}

/// Resolves one endpoint of a connection inside `impl` to dense indices.
void resolve_endpoint(const Module& m, const IrImpl& impl, IrEndpoint& ep) {
  ep.instance = kNoIndex;
  ep.port = kNoIndex;
  ep.status = EndpointStatus::kOk;
  Index streamlet = impl.streamlet;
  if (ep.is_self()) {
    if (streamlet == kNoIndex) {
      ep.status = EndpointStatus::kUnknownStreamlet;
      return;
    }
  } else {
    ep.instance = impl.instance_index(ep.instance_sym);
    if (ep.instance == kNoIndex) {
      ep.status = EndpointStatus::kUnknownInstance;
      return;
    }
    const IrInstance& inst = impl.instances[ep.instance];
    streamlet = inst.impl != kNoIndex ? m.impls[inst.impl].streamlet : kNoIndex;
    if (streamlet == kNoIndex) {
      ep.status = EndpointStatus::kUnresolvedImpl;
      return;
    }
  }
  ep.port = m.streamlets[streamlet]->port_index(ep.port_sym);
  if (ep.port == kNoIndex) ep.status = EndpointStatus::kUnknownPort;
}

/// Memo lookups of one lower() call, published to the registry once.
struct Lookups {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Looks `slot`'s lowering up in `cache` (when given), else builds and
/// publishes it.
template <typename T, typename Payload, typename Build>
std::shared_ptr<const T> lowered_once(support::IdentityCache<T>* cache,
                                      support::CacheHold* hold,
                                      const std::shared_ptr<Payload>& slot,
                                      Lookups& lookups, const Build& build) {
  if (cache == nullptr) return std::make_shared<const T>(build());
  support::IdentityKey key;
  key.parts.emplace_back(slot);
  bool hit = false;
  auto lowered = cache->find_or_build(std::move(key), *hold, build, &hit);
  ++(hit ? lookups.hits : lookups.misses);
  return lowered;
}

}  // namespace

Module lower(const elab::Design& design, LowerMemo* memo,
             support::CacheHold* hold) {
  if (hold == nullptr) memo = nullptr;
  Module m;
  m.streamlets.reserve(design.streamlets().size());
  m.impls.reserve(design.impls().size());

  TypeLowerings lowered;
  Lookups lookups;
  for (std::size_t i = 0; i < design.streamlets().size(); ++i) {
    const auto& slot = design.streamlets().slot(i);
    m.streamlets.push_back(lowered_once(
        memo != nullptr ? &memo->streamlets : nullptr, hold, slot, lookups,
        [&] { return lower_streamlet(slot, lowered); }));
  }
  for (std::size_t i = 0; i < design.impls().size(); ++i) {
    const auto& slot = design.impls().slot(i);
    m.impls.push_back(*lowered_once(memo != nullptr ? &memo->impls : nullptr,
                                    hold, slot, lookups,
                                    [&] { return lower_impl_shell(slot); }));
  }
  if (memo != nullptr) {
    static obs::Counter& hits =
        obs::MetricsRegistry::global().counter("tydi.lower.memo_hits");
    static obs::Counter& misses =
        obs::MetricsRegistry::global().counter("tydi.lower.memo_misses");
    hits += lookups.hits;
    misses += lookups.misses;
  }
  m.rebuild_index();

  // Resolve every cross-reference to dense indices (all of them, before any
  // endpoint is resolved — an endpoint may point at an instance of an impl
  // that appears later in the table).
  for (IrImpl& ii : m.impls) {
    ii.streamlet = m.streamlet_index(ii.streamlet_sym);
    for (IrInstance& inst : ii.instances) {
      inst.impl = m.impl_index(inst.impl_sym);
    }
  }
  for (IrImpl& ii : m.impls) {
    for (IrConnection& c : ii.connections) {
      resolve_endpoint(m, ii, c.src);
      resolve_endpoint(m, ii, c.dst);
    }
  }

  if (!design.top().empty()) {
    m.top_name = design.top();
    m.top = m.impl_index(support::Interner::global().intern(design.top()));
  }
  return m;
}

std::string emit(const Module& module) {
  support::CodeWriter w;
  w.line("// Tydi-IR generated by tydi-cpp");
  if (!module.top_name.empty()) w.line("// top: ", module.top_name);
  w.line();
  for (const auto& slot : module.streamlets) {
    const IrStreamlet& s = *slot;
    if (s.display_name != s.name) w.line("// ", s.display_name);
    w.open("streamlet ", s.name, " {");
    for (const IrPort& p : s.ports) {
      const bool has_clock = p.clock_domain != "default";
      w.line("port ", p.name, ": ", lang::to_string(p.dir), " ",
             p.type_display, has_clock ? " @ " : "",
             has_clock ? std::string_view(p.clock_domain)
                       : std::string_view(),
             ";");
    }
    w.close("}");
    w.line();
  }
  for (const IrImpl& i : module.impls) {
    const IrStreamlet* s = module.streamlet_of(i);
    const std::string& streamlet_name =
        s != nullptr ? s->name : support::symbol_name(i.streamlet_sym);
    if (i.display_name != i.name) w.line("// ", i.display_name);
    if (i.external) {
      std::string generator;
      if (!i.template_family.empty() && i.template_family != i.name) {
        generator = " @generator(" + i.template_family;
        for (const IrTemplateArg& a : i.template_args) {
          generator += ", " + a.display;
        }
        generator += ")";
      }
      w.line("external impl ", i.name, " of ", streamlet_name, generator,
             i.has_simulation ? " @simulated" : "", ";");
      w.line();
      continue;
    }
    w.open("impl ", i.name, " of ", streamlet_name, " {");
    for (const IrInstance& inst : i.instances) {
      w.line("instance ", inst.name, ": ",
             support::symbol_name(inst.impl_sym), ";");
    }
    for (const IrConnection& c : i.connections) {
      w.line("connect ", c.src.display(), " -> ", c.dst.display(),
             c.structural ? " @structural" : "", ";");
    }
    w.close("}");
    w.line();
  }
  return w.take();
}

}  // namespace tydi::ir
