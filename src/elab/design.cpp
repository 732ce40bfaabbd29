#include "src/elab/design.hpp"

#include <algorithm>
#include <sstream>

namespace tydi::elab {

const Port* Streamlet::find_port(std::string_view port_name) const {
  for (const Port& p : ports) {
    if (p.name == port_name) return &p;
  }
  return nullptr;
}

int Streamlet::port_index(Symbol port_sym) const {
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (ports[i].sym == port_sym) return static_cast<int>(i);
  }
  return -1;
}

const Instance* Impl::find_instance(std::string_view instance_name) const {
  for (const Instance& i : instances) {
    if (i.name == instance_name) return &i;
  }
  return nullptr;
}

std::string TemplateArgValue::display() const {
  switch (kind) {
    case Kind::kValue:
      return value.to_display();
    case Kind::kType:
      return type != nullptr
                 ? (type->origin().empty() ? type->to_display()
                                           : type->origin())
                 : "<null type>";
    case Kind::kImpl:
      return "impl " + impl_name;
  }
  return "?";
}

std::shared_ptr<const Streamlet> make_streamlet(Streamlet s) {
  s.sym = support::intern(s.name);
  for (Port& p : s.ports) p.sym = support::intern(p.name);
  return std::make_shared<const Streamlet>(std::move(s));
}

std::shared_ptr<const Impl> make_impl(Impl i) {
  i.sym = support::intern(i.name);
  return std::make_shared<const Impl>(std::move(i));
}

const Streamlet& Design::add_streamlet(Streamlet s) {
  return add_streamlet(make_streamlet(std::move(s)));
}

const Impl& Design::add_impl(Impl i) {
  return add_impl(make_impl(std::move(i)));
}

const Streamlet& Design::add_streamlet(std::shared_ptr<const Streamlet> s) {
  streamlet_index_[s->sym] = streamlets_.size();
  streamlets_.push_back(std::move(s));
  return *streamlets_.back();
}

const Impl& Design::add_impl(std::shared_ptr<const Impl> i) {
  impl_index_[i->sym] = impls_.size();
  impls_.push_back(std::move(i));
  return *impls_.back();
}

std::shared_ptr<const Streamlet> Design::share_streamlet(Symbol sym) const {
  auto it = streamlet_index_.find(sym);
  return it != streamlet_index_.end() ? streamlets_[it->second] : nullptr;
}

std::shared_ptr<const Impl> Design::share_impl(Symbol sym) const {
  auto it = impl_index_.find(sym);
  return it != impl_index_.end() ? impls_[it->second] : nullptr;
}

void Design::pin(std::shared_ptr<const void> ast) {
  if (ast != nullptr && std::find(pins_.begin(), pins_.end(), ast) ==
                            pins_.end()) {
    pins_.push_back(std::move(ast));
  }
}

void Design::replace_impl(std::size_t index,
                          std::shared_ptr<const Impl> impl) {
  impls_[index] = std::move(impl);
}

const Streamlet* Design::find_streamlet(std::string_view name) const {
  // find(), not intern(): negative lookups must not grow the global table.
  Symbol sym = support::Interner::global().find(name);
  return sym != support::kNoSymbol ? find_streamlet(sym) : nullptr;
}

const Streamlet* Design::find_streamlet(Symbol sym) const {
  auto it = streamlet_index_.find(sym);
  if (it == streamlet_index_.end()) return nullptr;
  return streamlets_[it->second].get();
}

const Impl* Design::find_impl(std::string_view name) const {
  Symbol sym = support::Interner::global().find(name);
  return sym != support::kNoSymbol ? find_impl(sym) : nullptr;
}

const Impl* Design::find_impl(Symbol sym) const {
  auto it = impl_index_.find(sym);
  if (it == impl_index_.end()) return nullptr;
  return impls_[it->second].get();
}

const Streamlet* Design::streamlet_of(const Impl& impl) const {
  return find_streamlet(impl.streamlet_name);
}

std::string Design::summary() const {
  std::ostringstream out;
  out << "design: " << streamlets_.size() << " streamlet(s), "
      << impls_.size() << " implementation(s)";
  if (!top_.empty()) out << ", top = " << top_;
  out << "\n";
  for (const auto& slot : impls_) {
    const Impl& i = *slot;
    out << "  impl " << i.name;
    if (i.display_name != i.name) out << " (" << i.display_name << ")";
    out << " of " << i.streamlet_name;
    if (i.external) out << " @external";
    out << ": " << i.instances.size() << " instance(s), "
        << i.connections.size() << " connection(s)\n";
  }
  return out.str();
}

}  // namespace tydi::elab
