// Session caches keyed on object identity (the back-end memo of a
// driver::CompileSession).
//
// A compile through a session hands later compiles the *same* elaborated
// payload objects wherever the template memo hits, so a back-end product —
// a sugared impl, a lowered streamlet, a rendered VHDL block — can be keyed
// on the addresses of the payloads it was derived from instead of on their
// contents. An entry holds those payloads weakly (a live object's address
// cannot be reused, so an address key stays correct while every pin is
// live) and holds its value weakly too: the compiles that used an entry
// keep it alive through their footprint (`CacheHold`), exactly like the
// template memo's versions. An entry is live while every pin and its value
// are; a dead entry only costs its map slot until the next sweep.
//
// Thread-safe: lookups take the shared lock, the caller builds a missing
// value outside any lock, and a publish takes the exclusive lock — the
// first live writer wins and every racer adopts its value.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace tydi::support {

/// One object a cache entry is keyed on: its address plus a weak pin. A
/// default Identity (no object) is a valid key part that never expires.
struct Identity {
  const void* id = nullptr;
  std::weak_ptr<const void> pin;

  Identity() = default;
  template <typename T>
  explicit Identity(const std::shared_ptr<T>& object)
      : id(object.get()), pin(object) {}

  [[nodiscard]] bool alive() const { return id == nullptr || !pin.expired(); }
};

/// The identities an entry derives from, in a fixed order, plus non-identity
/// key material (option bits). Equality and hashing read addresses only.
struct IdentityKey {
  std::vector<Identity> parts;
  std::uint64_t tag = 0;

  [[nodiscard]] bool alive() const;
  friend bool operator==(const IdentityKey& a, const IdentityKey& b);
};

/// What one compile used from the identity caches: strong references that
/// keep those entries' values alive (part of a session footprint).
using CacheHold = std::vector<std::shared_ptr<const void>>;

/// Untyped core of IdentityCache (values are type-erased).
class IdentityCacheBase {
 public:
  IdentityCacheBase() = default;
  IdentityCacheBase(const IdentityCacheBase&) = delete;
  IdentityCacheBase& operator=(const IdentityCacheBase&) = delete;

  void clear();
  /// Drops every dead entry now (publishes otherwise sweep once the map has
  /// doubled since the last sweep).
  void sweep();
  [[nodiscard]] std::size_t live_entries() const;
  /// Calls `fn` with the key of every live entry.
  void for_each_live(const std::function<void(const IdentityKey&,
                                              const void*)>& fn) const;

 protected:
  [[nodiscard]] std::shared_ptr<const void> find_erased(
      const IdentityKey& key) const;
  [[nodiscard]] std::shared_ptr<const void> publish_erased(
      IdentityKey key, std::shared_ptr<const void> value);

 private:
  struct KeyHash {
    std::size_t operator()(const IdentityKey& key) const;
  };
  /// Below this many entries a whole-map sweep is not worth running.
  static constexpr std::size_t kMinSweepEntries = 256;

  void sweep_locked();

  std::unordered_map<IdentityKey, std::weak_ptr<const void>, KeyHash>
      entries_;
  std::size_t sweep_at_ = kMinSweepEntries;
  mutable std::shared_mutex mu_;
};

template <typename T>
class IdentityCache : public IdentityCacheBase {
 public:
  /// The live value cached under `key`, or nullptr; a hit joins `hold`.
  [[nodiscard]] std::shared_ptr<const T> find(const IdentityKey& key,
                                              CacheHold& hold) const {
    auto value = std::static_pointer_cast<const T>(find_erased(key));
    if (value != nullptr) hold.push_back(value);
    return value;
  }
  /// Publishes `value` unless a live entry got there first, and returns the
  /// value that ended up cached (joining `hold`).
  [[nodiscard]] std::shared_ptr<const T> publish(IdentityKey key,
                                                 std::shared_ptr<const T> value,
                                                 CacheHold& hold) {
    auto cached =
        std::static_pointer_cast<const T>(publish_erased(std::move(key),
                                                         std::move(value)));
    hold.push_back(cached);
    return cached;
  }
  /// The live value cached under `key`, else `build()` — run outside any
  /// lock — published. `hit` (optional) tells which.
  template <typename Build>
  [[nodiscard]] std::shared_ptr<const T> find_or_build(IdentityKey key,
                                                       CacheHold& hold,
                                                       const Build& build,
                                                       bool* hit = nullptr) {
    std::shared_ptr<const T> found = find(key, hold);
    if (hit != nullptr) *hit = found != nullptr;
    if (found != nullptr) return found;
    return publish(std::move(key), std::make_shared<const T>(build()), hold);
  }
  /// Calls `fn` with the key and value of every live entry.
  void for_each_live(
      const std::function<void(const IdentityKey&, const T&)>& fn) const {
    IdentityCacheBase::for_each_live(
        [&fn](const IdentityKey& key, const void* value) {
          fn(key, *static_cast<const T*>(value));
        });
  }
};

}  // namespace tydi::support
