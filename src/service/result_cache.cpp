#include "src/service/result_cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/uio.h>
#include <unistd.h>

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
  obs::Gauge& frames;

  static CacheMetrics& get() {
    static auto& reg = obs::MetricsRegistry::global();
    static CacheMetrics m{reg.counter("tydi.service.result_cache.hits"),
                          reg.counter("tydi.service.result_cache.misses"),
                          reg.counter("tydi.service.result_cache.admitted"),
                          reg.counter("tydi.service.result_cache.evictions"),
                          reg.gauge("tydi.service.result_cache.bytes"),
                          reg.gauge("tydi.service.result_cache.entries"),
                          reg.gauge("tydi.service.result_cache.frames")};
    return m;
  }
};

std::uint64_t key_hash(const std::string& key) {
  return std::hash<std::string_view>{}(key);
}

}  // namespace

std::shared_ptr<const ReplyFrame> ReplyFrame::create(
    std::string_view header, std::string_view payload) {
  const int fd =
      ::memfd_create("tydid-reply", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) return nullptr;
  std::shared_ptr<const ReplyFrame> frame(
      new ReplyFrame(fd, header.size() + payload.size() + 2));
  char newline = '\n';
  iovec parts[4] = {{const_cast<char*>(header.data()), header.size()},
                    {&newline, 1},
                    {const_cast<char*>(payload.data()), payload.size()},
                    {&newline, 1}};
  // A fresh tmpfs file takes the whole write or fails (ENOSPC, ENOMEM); a
  // short count is a failure too, and the entry is stored without a frame.
  if (::writev(fd, parts, 4) != static_cast<ssize_t>(frame->size()) ||
      ::fcntl(fd, F_ADD_SEALS, F_SEAL_WRITE | F_SEAL_GROW | F_SEAL_SHRINK) <
          0) {
    return nullptr;
  }
  return frame;
}

ReplyFrame::~ReplyFrame() { ::close(fd_); }

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
      out.frame = it->second->frame;
    } else {
      out.admit = sight_locked(hash);
    }
  }
  ++(out.hit ? metrics.hits : metrics.misses);
  return out;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const std::string> payload,
                         std::string_view header) {
  auto& metrics = CacheMetrics::get();
  Entry entry{key, std::move(payload), nullptr};
  if (entry.bytes() > budget_bytes_) return;
  // The frame is written before the lock is taken; a racing insert of the
  // same key drops it again below.
  if (entry.payload->size() >= kMinFrameBytes) {
    entry.frame = ReplyFrame::create(header, *entry.payload);
    if (entry.bytes() > budget_bytes_) entry.frame = nullptr;
  }
  const std::size_t size = entry.bytes();
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
  if (lru_.front().frame) metrics.frames.add(1.0);
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
  if (it->frame) metrics.frames.add(-1.0);
  index_.erase(it->key);
  lru_.erase(it);
  bytes_ -= size;
  metrics.bytes.add(-static_cast<double>(size));
  metrics.entries.add(-1.0);
}

}  // namespace tydi::service
