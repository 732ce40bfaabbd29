#include "src/service/source_cache.hpp"

#include <algorithm>
#include <ctime>
#include <iterator>
#include <mutex>

#include "src/elab/memo.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/source.hpp"

namespace tydi::service {

namespace {

struct SourceMetrics {
  obs::Counter& hits;
  obs::Counter& reads;
  obs::Counter& racy;
  obs::Gauge& bytes;

  static SourceMetrics& get() {
    static auto& reg = obs::MetricsRegistry::global();
    static SourceMetrics m{reg.counter("tydi.service.source_cache.hits"),
                           reg.counter("tydi.service.source_cache.reads"),
                           reg.counter("tydi.service.source_cache.racy"),
                           reg.gauge("tydi.service.source_cache.bytes")};
    return m;
  }
};

std::int64_t ns(const timespec& t) {
  return std::int64_t{t.tv_sec} * 1'000'000'000 + t.tv_nsec;
}

bool same_identity(const struct stat& a, const struct stat& b) {
  return a.st_dev == b.st_dev && a.st_ino == b.st_ino &&
         a.st_size == b.st_size && ns(a.st_mtim) == ns(b.st_mtim) &&
         ns(a.st_ctim) == ns(b.st_ctim);
}

}  // namespace

SourceCache::~SourceCache() { clear(); }

support::Status SourceCache::get(const std::string& path, Source& out) {
  auto& metrics = SourceMetrics::get();
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) {
    std::shared_lock lock(mu_);
    const auto it = index_.find(path);
    if (it != index_.end() && same_identity(it->second->identity, st)) {
      out = it->second->source;
      ++metrics.hits;
      return support::Status::ok();
    }
  }
  // Anything else reads the file. The wall clock is taken before the open,
  // so every write the read could miss happens after it.
  ++metrics.reads;
  timespec opened{};
  ::clock_gettime(CLOCK_REALTIME, &opened);
  std::string text;
  const support::Status read = support::read_file(path, text, &st);
  if (!read.is_ok()) {
    replace(path, nullptr);
    return read;
  }
  out.hash = elab::source_hash(text);
  out.text = std::make_shared<const std::string>(std::move(text));
  const std::int64_t changed = std::max(ns(st.st_mtim), ns(st.st_ctim));
  if (changed + std::chrono::nanoseconds(kRacyWindow).count() > ns(opened)) {
    ++metrics.racy;
    replace(path, nullptr);
    return read;
  }
  Entry entry{path, st, out};
  replace(path, &entry);
  return read;
}

void SourceCache::replace(const std::string& path, Entry* entry) {
  std::unique_lock lock(mu_);
  if (const auto old = index_.find(path); old != index_.end()) {
    erase_locked(old->second);
  }
  if (entry == nullptr || entry->source.text->size() > kMaxBytes) return;
  const std::size_t size = entry->source.text->size();
  fifo_.push_back(std::move(*entry));
  index_.emplace(fifo_.back().path, std::prev(fifo_.end()));
  bytes_ += size;
  SourceMetrics::get().bytes.add(static_cast<double>(size));
  while (fifo_.size() > kMaxEntries || bytes_ > kMaxBytes) {
    erase_locked(fifo_.begin());
  }
}

void SourceCache::erase_locked(Fifo::iterator it) {
  const std::size_t size = it->source.text->size();
  index_.erase(it->path);
  fifo_.erase(it);
  bytes_ -= size;
  SourceMetrics::get().bytes.add(-static_cast<double>(size));
}

void SourceCache::clear() {
  std::unique_lock lock(mu_);
  while (!fifo_.empty()) erase_locked(fifo_.begin());
}

std::size_t SourceCache::entries() const {
  std::shared_lock lock(mu_);
  return fifo_.size();
}

std::size_t SourceCache::bytes() const {
  std::shared_lock lock(mu_);
  return bytes_;
}

}  // namespace tydi::service
