// Source cache of the compile service: a FILE request whose sources have
// not changed since they were last read costs one `stat` per source, not a
// read and a content hash.
//
// Every request still `stat`s each path. An entry answers it only when the
// stat shows the identity (device, inode, size, mtime, ctime) that `fstat`
// gave on the fd its bytes were read from; then the stored content hash
// goes into the durable key, and the stored bytes are shared with the
// request, copied only into the compile of a result-cache miss. Any other
// case reads the file as `support::read_file` always does.
//
// Racy-clean rule (git's index uses the same one): a read is kept only when
// the file's max(mtime, ctime) lies at least kRacyWindow before the
// CLOCK_REALTIME taken just before its `open`. A write after that instant
// sets ctime to at least that instant, even on a filesystem whose
// timestamps are only 2 s fine, so it cannot keep the recorded identity.
// A younger file's read is not kept, so it is read again on every request
// until it is kRacyWindow old. What the rule cannot see: a write that
// leaves ctime unchanged (some network filesystems) or a wall clock
// stepped back past the file's times; INVALIDATE clears the cache.
//
// Bound: at most kMaxEntries paths and kMaxBytes of text, oldest entry
// out first. Counts live only in the metrics registry, under
// tydi.service.source_cache.*.
//
// Thread-safety: one shared_mutex; a hit takes it shared, a read takes it
// exclusive only to store or drop its entry. No lock is held across a
// syscall.
#pragma once

#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/support/status.hpp"

namespace tydi::service {

class SourceCache {
 public:
  /// How long after its last mtime/ctime change a file must stay untouched
  /// before a read of it is kept: the coarsest timestamp granularity it
  /// covers is 2 s (FAT's mtime), plus any lag of the kernel's coarse
  /// file-time clock behind CLOCK_REALTIME.
  static constexpr std::chrono::seconds kRacyWindow{2};
  static constexpr std::size_t kMaxEntries = 256;
  static constexpr std::size_t kMaxBytes = std::size_t{8} << 20;

  /// One source as a request sees it: its bytes and their
  /// elab::source_hash.
  struct Source {
    std::shared_ptr<const std::string> text;
    std::uint64_t hash = 0;
  };

  SourceCache() = default;
  ~SourceCache();
  SourceCache(const SourceCache&) = delete;
  SourceCache& operator=(const SourceCache&) = delete;

  /// The current bytes of `path`: from the cache when its entry's identity
  /// still matches, else read from disk (and kept when the racy-clean rule
  /// allows). A failed read returns read_file's status and drops the
  /// path's entry.
  [[nodiscard]] support::Status get(const std::string& path, Source& out);
  /// Drops every entry (the INVALIDATE verb).
  void clear();

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Entry {
    std::string path;
    /// The fstat of the fd `source` was read from: what `stat` must still
    /// show (device, inode, size, mtime, ctime) for the entry to answer.
    struct stat identity;
    Source source;
  };
  using Fifo = std::list<Entry>;  ///< oldest first

  /// Drops `path`'s entry and, given one, stores `entry` in its place.
  void replace(const std::string& path, Entry* entry);
  void erase_locked(Fifo::iterator it);

  mutable std::shared_mutex mu_;
  Fifo fifo_;
  std::unordered_map<std::string_view, Fifo::iterator> index_;
  std::size_t bytes_ = 0;
};

}  // namespace tydi::service
