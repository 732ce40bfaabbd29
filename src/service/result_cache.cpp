#include "src/service/result_cache.hpp"

#include <functional>
#include <iterator>
#include <string_view>

#include "src/obs/metrics.hpp"

namespace tydi::service {

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& admitted;
  obs::Counter& evictions;
  obs::Gauge& bytes;
  obs::Gauge& entries;

  static CacheMetrics& get() {
    static auto& reg = obs::MetricsRegistry::global();
    static CacheMetrics m{reg.counter("tydi.service.result_cache.hits"),
                          reg.counter("tydi.service.result_cache.misses"),
                          reg.counter("tydi.service.result_cache.admitted"),
                          reg.counter("tydi.service.result_cache.evictions"),
                          reg.gauge("tydi.service.result_cache.bytes"),
                          reg.gauge("tydi.service.result_cache.entries")};
    return m;
  }
};

std::uint64_t key_hash(const std::string& key) {
  return std::hash<std::string_view>{}(key);
}

}  // namespace

ResultCache::ResultCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

ResultCache::~ResultCache() { clear(); }

ResultCache::Lookup ResultCache::lookup(const std::string& key) {
  auto& metrics = CacheMetrics::get();
  const std::uint64_t hash = key_hash(key);
  Lookup out;
  {
    std::lock_guard lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      out.hit = it->second->payload;
    } else {
      out.admit = sight_locked(hash);
    }
  }
  ++(out.hit ? metrics.hits : metrics.misses);
  return out;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const std::string> payload) {
  auto& metrics = CacheMetrics::get();
  Entry entry{key, std::move(payload)};
  const std::size_t size = entry.bytes();
  if (size > budget_bytes_) return;
  std::lock_guard lock(mu_);
  if (index_.contains(key)) return;  // a concurrent miss stored it first
  while (bytes_ + size > budget_bytes_) {
    erase_locked(std::prev(lru_.end()));
    ++metrics.evictions;
  }
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += size;
  ++metrics.admitted;
  metrics.bytes.add(static_cast<double>(size));
  metrics.entries.add(1.0);
}

void ResultCache::mark_sighted(const std::string& key) {
  std::lock_guard lock(mu_);
  (void)sight_locked(key_hash(key));
}

void ResultCache::clear() {
  std::lock_guard lock(mu_);
  while (!lru_.empty()) erase_locked(lru_.begin());
  sighted_.clear();
}

std::size_t ResultCache::bytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

std::size_t ResultCache::entries() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

bool ResultCache::sight_locked(std::uint64_t hash) {
  if (sighted_.contains(hash)) return true;
  if (sighted_.size() >= kMaxSighted) sighted_.clear();
  sighted_.insert(hash);
  return false;
}

void ResultCache::erase_locked(Lru::iterator it) {
  auto& metrics = CacheMetrics::get();
  const std::size_t size = it->bytes();
  index_.erase(it->key);
  lru_.erase(it);
  bytes_ -= size;
  metrics.bytes.add(-static_cast<double>(size));
  metrics.entries.add(-1.0);
}

}  // namespace tydi::service
