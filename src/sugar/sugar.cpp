#include "src/sugar/sugar.hpp"

#include <sstream>
#include <unordered_map>

#include "src/obs/metrics.hpp"
#include "src/support/hash.hpp"
#include "src/support/text.hpp"

namespace tydi::sugar {

using elab::Connection;
using elab::Design;
using elab::Endpoint;
using elab::Impl;
using elab::Instance;
using elab::Port;
using elab::Streamlet;
using support::Symbol;

std::string SugarStats::summary() const {
  std::ostringstream out;
  out << "sugaring: " << duplicators_inserted << " duplicator(s), "
      << voiders_inserted << " voider(s), " << duplicated_channels
      << " duplicated channel(s)";
  return out.str();
}

SugarStats& SugarStats::operator+=(const SugarStats& other) {
  duplicators_inserted += other.duplicators_inserted;
  voiders_inserted += other.voiders_inserted;
  duplicated_channels += other.duplicated_channels;
  return *this;
}

namespace {

std::string hex8(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 0; i < 8; ++i) out[i] = digits[(h >> (i * 4)) & 0xF];
  return out;
}

/// type_token() off an already rendered display.
std::string type_token(const types::LogicalType& type,
                       const std::string& display) {
  std::string base = type.origin().empty()
                         ? "anon"
                         : support::sanitize_identifier(type.origin());
  return base + "_" + hex8(support::fnv1a64(display));
}

/// What sugaring one impl reads: its payload, its streamlet and each
/// instance's impl and streamlet (null when unresolved), as resolved in the
/// design at the time — also the impl's memo key.
struct SugarInputs {
  std::shared_ptr<const Impl> impl;
  std::shared_ptr<const Streamlet> self;
  std::vector<std::pair<std::shared_ptr<const Impl>,
                        std::shared_ptr<const Streamlet>>>
      children;  ///< parallel to impl->instances

  [[nodiscard]] support::IdentityKey key(const SugarOptions& options) const {
    support::IdentityKey key;
    key.parts.reserve(2 + 2 * children.size());
    key.parts.emplace_back(impl);
    key.parts.emplace_back(self);
    for (const auto& [child, streamlet] : children) {
      key.parts.emplace_back(child);
      key.parts.emplace_back(streamlet);
    }
    key.tag = (options.insert_duplicators ? 1U : 0U) |
              (options.insert_voiders ? 2U : 0U);
    return key;
  }
};

std::shared_ptr<const Streamlet> share_streamlet(const Design& design,
                                                 std::string_view name) {
  const Symbol sym = support::Interner::global().find(name);
  return sym != support::kNoSymbol ? design.share_streamlet(sym) : nullptr;
}

std::shared_ptr<const Impl> share_impl(const Design& design,
                                       std::string_view name) {
  const Symbol sym = support::Interner::global().find(name);
  return sym != support::kNoSymbol ? design.share_impl(sym) : nullptr;
}

/// Builds the sugaring of one impl without touching the design.
class EntryBuilder {
 public:
  EntryBuilder(const Design& design, const SugarInputs& in,
               const SugarOptions& options, SugarMemo* memo,
               support::CacheHold* hold)
      : design_(design),
        in_(in),
        options_(options),
        memo_(memo),
        hold_(hold) {}

  SugarEntry build() {
    struct SourceInfo {
      Endpoint endpoint;
      types::TypeRef type;
      std::vector<std::size_t> connection_indices;  // where endpoint is src
    };
    // Enumerate every source endpoint of this implementation with its type.
    std::vector<SourceInfo> sources;
    for (const Port& p : in_.self->ports) {
      if (p.dir == lang::PortDir::kIn) {
        sources.push_back({Endpoint{"", p.name, p.loc}, p.type, {}});
      }
    }
    const Impl& impl = *in_.impl;
    for (std::size_t k = 0; k < impl.instances.size(); ++k) {
      const Streamlet* child = in_.children[k].second.get();
      if (child == nullptr) continue;
      const Instance& inst = impl.instances[k];
      for (const Port& p : child->ports) {
        if (p.dir == lang::PortDir::kOut) {
          sources.push_back(
              {Endpoint{inst.name, p.name, inst.loc}, p.type, {}});
        }
      }
    }

    // Attribute each connection to its source endpoint, keyed by the
    // (instance, port) name pair: no display strings, no interning.
    using EndpointKey = std::pair<std::string_view, std::string_view>;
    struct EndpointHash {
      std::size_t operator()(const EndpointKey& k) const {
        const std::hash<std::string_view> h;
        return h(k.first) * 31 + h(k.second);
      }
    };
    auto key_of = [](const Endpoint& ep) {
      return EndpointKey(ep.instance, ep.port);
    };
    std::unordered_map<EndpointKey, std::size_t, EndpointHash> source_index;
    source_index.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      source_index[key_of(sources[i].endpoint)] = i;
    }
    for (std::size_t c = 0; c < impl.connections.size(); ++c) {
      auto it = source_index.find(key_of(impl.connections[c].src));
      if (it != source_index.end()) {
        sources[it->second].connection_indices.push_back(c);
      }
    }

    std::size_t auto_counter = 0;
    for (const SourceInfo& src : sources) {
      const std::size_t fanout = src.connection_indices.size();
      if (fanout == 0 && options_.insert_voiders) {
        // Fig. 4 left: unused output -> voider.
        std::string voider = materialize_voider(src.type);
        Impl& mut = rewritten();
        std::string inst_name = "auto_void_" + std::to_string(auto_counter++);
        mut.instances.push_back(
            Instance{inst_name, voider, support::Loc::synthesized()});
        Connection conn;
        conn.src = src.endpoint;
        conn.dst = Endpoint{inst_name, "in_", support::Loc::synthesized()};
        mut.connections.push_back(std::move(conn));
        ++entry_.stats.voiders_inserted;
        note("inserted voider for unused source " + src.endpoint.display() +
                 " in '" + mut.display_name + "'",
             src.endpoint.loc);
      } else if (fanout > 1 && options_.insert_duplicators) {
        // Fig. 4 right: fan-out -> duplicator with `fanout` channels.
        std::string dup = materialize_duplicator(src.type, fanout);
        Impl& mut = rewritten();
        std::string inst_name = "auto_dup_" + std::to_string(auto_counter++);
        mut.instances.push_back(
            Instance{inst_name, dup, support::Loc::synthesized()});
        for (std::size_t k = 0; k < fanout; ++k) {
          Connection& rewired = mut.connections[src.connection_indices[k]];
          rewired.src =
              Endpoint{inst_name, "out_" + std::to_string(k), rewired.loc};
        }
        Connection feed;
        feed.src = src.endpoint;
        feed.dst = Endpoint{inst_name, "in_", support::Loc::synthesized()};
        mut.connections.push_back(std::move(feed));
        ++entry_.stats.duplicators_inserted;
        entry_.stats.duplicated_channels += fanout;
        note("inserted " + std::to_string(fanout) + "-way duplicator for " +
                 src.endpoint.display() + " in '" + mut.display_name + "'",
             src.endpoint.loc);
      }
    }
    entry_.sugared = std::move(rewritten_);
    return std::move(entry_);
  }

 private:
  /// The impl under rewrite, cloned off the (possibly memo-shared) payload
  /// on first mutation.
  Impl& rewritten() {
    if (rewritten_ == nullptr) rewritten_ = std::make_shared<Impl>(*in_.impl);
    return *rewritten_;
  }

  void note(std::string message, support::Loc loc) {
    entry_.notes.push_back(support::Diagnostic{
        support::Severity::kNote, "sugar", std::move(message), loc});
  }

  /// Ensures the stdlib impl `impl_name` for a type of display `display`
  /// is materialized: reuses one this impl already needs, the design
  /// already holds or the session already built, else builds it.
  template <typename Make>
  std::string materialize(std::string impl_name, const std::string& display,
                          const Make& make) {
    for (const auto& m : entry_.materialized) {
      if (m->impl->name == impl_name) return impl_name;
    }
    std::shared_ptr<const StdlibInstance> found;
    if (std::shared_ptr<const Impl> impl = share_impl(design_, impl_name)) {
      found = std::make_shared<const StdlibInstance>(StdlibInstance{
          share_streamlet(design_, impl->streamlet_name), std::move(impl),
          display});
    }
    support::IdentityKey key;
    bool publish = found == nullptr && memo_ != nullptr;
    if (publish) {
      key.tag = support::fnv1a64(impl_name) ^
                (support::fnv1a64(display) * 31);
      found = memo_->stdlib.find(key, *hold_);
      if (found != nullptr && (found->impl->name != impl_name ||
                               found->type_display != display)) {
        found = nullptr;  // a hash collision: build a private one
        publish = false;
      }
    }
    if (found == nullptr) {
      auto [s, i] = make();
      found = std::make_shared<const StdlibInstance>(StdlibInstance{
          make_streamlet(std::move(s)), make_impl(std::move(i)), display});
      if (publish) {
        found = memo_->stdlib.publish(std::move(key), found, *hold_);
      }
    }
    entry_.materialized.push_back(std::move(found));
    return impl_name;
  }

  std::string materialize_voider(const types::TypeRef& type) {
    const std::string display = type->to_display();
    const std::string token = type_token(*type, display);
    return materialize("std_voider_i__" + token, display, [&] {
      Streamlet s;
      s.name = "std_voider_s__" + token;
      s.display_name = "voider_s<" + display + ">";
      s.ports.push_back(Port{"in_", type, lang::PortDir::kIn, "default", {}});

      Impl i;
      i.name = "std_voider_i__" + token;
      i.display_name = "voider_i<" + display + ">";
      i.template_name = "voider_i";
      elab::TemplateArgValue t;
      t.kind = elab::TemplateArgValue::Kind::kType;
      t.type = type;
      i.template_args.push_back(std::move(t));
      i.streamlet_name = s.name;
      i.streamlet_family = "voider_s";
      i.external = true;
      return std::make_pair(std::move(s), std::move(i));
    });
  }

  std::string materialize_duplicator(const types::TypeRef& type,
                                     std::size_t channels) {
    const std::string display = type->to_display();
    const std::string token =
        type_token(*type, display) + "_x" + std::to_string(channels);
    return materialize("std_duplicator_i__" + token, display, [&] {
      Streamlet s;
      s.name = "std_duplicator_s__" + token;
      s.display_name = "duplicator_s<" + display + ", " +
                       std::to_string(channels) + ">";
      s.ports.push_back(Port{"in_", type, lang::PortDir::kIn, "default", {}});
      for (std::size_t k = 0; k < channels; ++k) {
        s.ports.push_back(Port{"out_" + std::to_string(k), type,
                               lang::PortDir::kOut, "default", {}});
      }

      Impl i;
      i.name = "std_duplicator_i__" + token;
      i.display_name = "duplicator_i<" + display + ", " +
                       std::to_string(channels) + ">";
      i.template_name = "duplicator_i";
      elab::TemplateArgValue t;
      t.kind = elab::TemplateArgValue::Kind::kType;
      t.type = type;
      i.template_args.push_back(std::move(t));
      elab::TemplateArgValue n;
      n.kind = elab::TemplateArgValue::Kind::kValue;
      n.value = eval::Value(static_cast<std::int64_t>(channels));
      i.template_args.push_back(std::move(n));
      i.streamlet_name = s.name;
      i.streamlet_family = "duplicator_s";
      i.external = true;
      return std::make_pair(std::move(s), std::move(i));
    });
  }

  const Design& design_;
  const SugarInputs& in_;
  const SugarOptions& options_;
  SugarMemo* memo_;
  support::CacheHold* hold_;
  SugarEntry entry_;
  std::shared_ptr<Impl> rewritten_;
};

/// Inserts an entry's effects into the design, as a cold sugaring would.
void replay(const SugarEntry& entry, Design& design, std::size_t impl_index,
            SugarStats& stats, support::DiagnosticEngine& diags) {
  for (const auto& m : entry.materialized) {
    if (design.find_impl(m->impl->sym) != nullptr) continue;
    design.add_streamlet(m->streamlet);
    design.add_impl(m->impl);
  }
  if (entry.sugared != nullptr) design.replace_impl(impl_index, entry.sugared);
  for (const support::Diagnostic& d : entry.notes) {
    diags.report(d.severity, d.phase, d.message, d.loc);
  }
  stats += entry.stats;
}

}  // namespace

std::string type_token(const types::TypeRef& type) {
  return type == nullptr ? "null" : type_token(*type, type->to_display());
}

SugarStats apply_sugaring(Design& design, const SugarOptions& options,
                          support::DiagnosticEngine& diags, SugarMemo* memo,
                          support::CacheHold* hold) {
  if (hold == nullptr) memo = nullptr;
  static obs::Counter& hits =
      obs::MetricsRegistry::global().counter("tydi.sugar.memo_hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::global().counter("tydi.sugar.memo_misses");
  SugarStats stats;
  // Index-based loop: materializing stdlib impls appends to design.impls.
  const std::size_t original_count = design.impls().size();
  for (std::size_t i = 0; i < original_count; ++i) {
    SugarInputs in;
    in.impl = design.impls().slot(i);
    if (in.impl->external) continue;
    in.self = share_streamlet(design, in.impl->streamlet_name);
    if (in.self == nullptr) continue;
    in.children.reserve(in.impl->instances.size());
    for (const Instance& inst : in.impl->instances) {
      std::shared_ptr<const Impl> child = share_impl(design, inst.impl_name);
      std::shared_ptr<const Streamlet> child_streamlet =
          child != nullptr ? share_streamlet(design, child->streamlet_name)
                           : nullptr;
      in.children.emplace_back(std::move(child), std::move(child_streamlet));
    }
    auto build = [&] {
      return EntryBuilder(design, in, options, memo, hold).build();
    };
    std::shared_ptr<const SugarEntry> entry;
    if (memo == nullptr) {
      entry = std::make_shared<const SugarEntry>(build());
    } else {
      bool hit = false;
      entry = memo->impls.find_or_build(in.key(options), *hold, build, &hit);
      ++(hit ? hits : misses);
    }
    replay(*entry, design, i, stats, diags);
  }
  return stats;
}

}  // namespace tydi::sugar
