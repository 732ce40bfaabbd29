// Global string interner (Sec. V performance substrate).
//
// Every name that crosses the elaborator/simulator boundary — port names,
// instance paths, impl names, scope bindings — is interned once into a
// process-wide table and handled as a dense 32-bit `Symbol` afterwards.
// Symbol comparison is integer comparison; the steady-state simulation path
// never touches string hashing or string-keyed maps. The table only grows
// (symbols are stable for the lifetime of the process), mirroring the
// resolve-names-once-at-lowering approach of compiled simulation kernels.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace tydi::support {

/// Index into the global interner table. Dense, starts at 0.
using Symbol = std::uint32_t;

/// Sentinel for "not yet interned / no name".
inline constexpr Symbol kNoSymbol = 0xFFFFFFFFu;

/// Thread-safe: the sharded simulator interns (rarely — state values and
/// diagnostics) from worker threads. Lookups take a shared lock; first-time
/// insertion upgrades to an exclusive lock. Reading a symbol's string takes
/// no lock.
class Interner {
 public:
  Interner() = default;
  ~Interner();
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the symbol for `s`, inserting it on first sight. Stable: the
  /// same string always yields the same symbol.
  Symbol intern(std::string_view s);

  /// The string behind a symbol. `sym` must come from this interner.
  /// The returned reference is stable for the interner's lifetime (the
  /// table only grows and element addresses never move).
  [[nodiscard]] const std::string& str(Symbol sym) const {
    const auto [chunk, offset] = locate(sym);
    return chunks_[chunk].load(std::memory_order_acquire)[offset];
  }

  /// Symbol for `s` if already interned, else kNoSymbol (no insertion).
  [[nodiscard]] Symbol find(std::string_view s) const;

  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock(mu_);
    return size_;
  }

  /// The process-wide interner used by the compiler and simulator.
  static Interner& global();

 private:
  // The strings live in chunks that never move: chunk k holds
  // 2^(kFirstChunkBits + k) of them, so kChunks chunks cover every symbol.
  // A chunk is published before any symbol in it is handed out, so str()
  // needs no lock, and the string_view keys of index_ stay valid.
  static constexpr unsigned kFirstChunkBits = 10;
  static constexpr std::size_t kChunks = 22;
  static std::pair<std::size_t, std::size_t> locate(Symbol sym) {
    const std::uint64_t i = std::uint64_t{sym} + (1u << kFirstChunkBits);
    const std::size_t chunk = std::bit_width(i) - 1 - kFirstChunkBits;
    return {chunk, i - (std::uint64_t{1} << (chunk + kFirstChunkBits))};
  }

  mutable std::shared_mutex mu_;
  std::array<std::atomic<std::string*>, kChunks> chunks_{};
  std::size_t size_ = 0;  // guarded by mu_
  std::unordered_map<std::string_view, Symbol> index_;
};

/// Shorthands over Interner::global(). `intern` remembers each thread's
/// recent lookups, so a name interned again costs a hash and a compare,
/// not a lock.
[[nodiscard]] Symbol intern(std::string_view s);
[[nodiscard]] const std::string& symbol_name(Symbol sym);

}  // namespace tydi::support
