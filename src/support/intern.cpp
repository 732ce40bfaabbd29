#include "src/support/intern.hpp"

#include <mutex>
#include <new>

#include "src/support/hash.hpp"

namespace tydi::support {

Interner::~Interner() {
  for (std::size_t sym = 0; sym < size_; ++sym) {
    const auto [chunk, offset] = locate(static_cast<Symbol>(sym));
    chunks_[chunk].load(std::memory_order_relaxed)[offset].~basic_string();
  }
  for (std::atomic<std::string*>& chunk : chunks_) {
    ::operator delete(chunk.load(std::memory_order_relaxed));
  }
}

Symbol Interner::intern(std::string_view s) {
  {
    std::shared_lock lock(mu_);
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  // Re-check: another thread may have inserted between the locks.
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const auto sym = static_cast<Symbol>(size_);
  const auto [chunk, offset] = locate(sym);
  std::string* strings = chunks_[chunk].load(std::memory_order_relaxed);
  if (strings == nullptr) {
    // Raw storage: only the strings constructed into it touch its pages.
    strings = static_cast<std::string*>(::operator new(
        sizeof(std::string) << (kFirstChunkBits + chunk)));
    chunks_[chunk].store(strings, std::memory_order_release);
  }
  const std::string* stored = ::new (strings + offset) std::string(s);
  ++size_;
  index_.emplace(std::string_view(*stored), sym);
  return sym;
}

Symbol Interner::find(std::string_view s) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(s);
  return it != index_.end() ? it->second : kNoSymbol;
}

Interner& Interner::global() {
  static Interner interner;
  return interner;
}

Symbol intern(std::string_view s) {
  // A direct-mapped memo per thread. The global table only grows, so a
  // remembered entry never goes stale.
  struct Memo {
    std::string_view str;  // the interned copy; empty in an unused slot
    Symbol sym;
  };
  thread_local std::array<Memo, 1024> memo{};
  Memo& slot = memo[short_hash(s) % memo.size()];
  if (!s.empty() && slot.str == s) return slot.sym;
  Interner& table = Interner::global();
  const Symbol sym = table.intern(s);
  slot = Memo{table.str(sym), sym};
  return sym;
}

const std::string& symbol_name(Symbol sym) {
  return Interner::global().str(sym);
}

}  // namespace tydi::support
