#include "src/support/identity_cache.hpp"

#include <algorithm>
#include <mutex>

namespace tydi::support {

bool IdentityKey::alive() const {
  return std::all_of(parts.begin(), parts.end(),
                     [](const Identity& part) { return part.alive(); });
}

bool operator==(const IdentityKey& a, const IdentityKey& b) {
  return a.tag == b.tag &&
         std::equal(a.parts.begin(), a.parts.end(), b.parts.begin(),
                    b.parts.end(), [](const Identity& x, const Identity& y) {
                      return x.id == y.id;
                    });
}

std::size_t IdentityCacheBase::KeyHash::operator()(
    const IdentityKey& key) const {
  std::uint64_t h = key.tag ^ 1469598103934665603ULL;
  for (const Identity& part : key.parts) {
    h = (h ^ reinterpret_cast<std::uintptr_t>(part.id)) *
        0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

namespace {

bool live(const IdentityKey& key, const std::weak_ptr<const void>& value) {
  return !value.expired() && key.alive();
}

}  // namespace

std::shared_ptr<const void> IdentityCacheBase::find_erased(
    const IdentityKey& key) const {
  std::shared_lock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || !it->first.alive()) return nullptr;
  return it->second.lock();
}

std::shared_ptr<const void> IdentityCacheBase::publish_erased(
    IdentityKey key, std::shared_ptr<const void> value) {
  std::unique_lock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->first.alive()) {
      if (std::shared_ptr<const void> cached = it->second.lock()) {
        return cached;  // a live writer got there first
      }
    }
    // Dead: the addresses may now name new objects — re-key with new pins.
    entries_.erase(it);
  }
  entries_.emplace(std::move(key), value);
  if (entries_.size() >= sweep_at_) sweep_locked();
  return value;
}

void IdentityCacheBase::sweep_locked() {
  std::erase_if(entries_,
                [](const auto& kv) { return !live(kv.first, kv.second); });
  sweep_at_ = std::max(kMinSweepEntries, 2 * entries_.size());
}

void IdentityCacheBase::clear() {
  std::unique_lock lock(mu_);
  entries_.clear();
  sweep_at_ = kMinSweepEntries;
}

void IdentityCacheBase::sweep() {
  std::unique_lock lock(mu_);
  sweep_locked();
}

std::size_t IdentityCacheBase::live_entries() const {
  std::shared_lock lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& kv) { return live(kv.first, kv.second); }));
}

void IdentityCacheBase::for_each_live(
    const std::function<void(const IdentityKey&, const void*)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [key, weak] : entries_) {
    if (!key.alive()) continue;
    if (std::shared_ptr<const void> value = weak.lock()) fn(key, value.get());
  }
}

}  // namespace tydi::support
