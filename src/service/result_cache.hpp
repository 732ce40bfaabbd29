// Whole-result cache of the compile service: a warm repeat of a request
// costs a key hash and a lookup, not a re-run of the pipeline.
//
// Keys are the durable compile keys the journal already persists
// (warmup::JournalEntry::serialize(): the normalized request plus a content
// stamp per source file), so "same key" means "same request over the same
// bytes". The stdlib and the default compile options are fixed per process
// and need no stamp; TPCH sources are built into the binary. A hit compares
// the full key string, never just its hash. Values are the successful
// response payloads (VHDL or IR text), held as shared immutable strings:
// the hit path answers with the cached object itself and the miss path
// hands its freshly compiled text over without a copy.
//
// Reply frames: an admitted payload of at least kMinFrameBytes also gets
// its complete OK reply frame written once into a sealed memfd
// (ReplyFrame). A hit hands the frame to the transport, which sends it
// with sendfile instead of copying the payload through a gathering send.
// The frame bytes count against the budget like the payload, and the
// frame size floor bounds the cache's open fds by budget / kMinFrameBytes.
//
// Admission and bound: a payload is stored only on its key's *second*
// sighting, tracked in a bounded set of 64-bit key hashes that is cleared
// when full — traffic that never repeats (an edit loop) stores nothing and
// pays one hash-set probe per request. Stored entries are evicted in LRU
// order to keep keys + payloads + frames under a fixed byte budget.
//
// Thread-safety: every method may be called from any worker thread; one
// mutex guards the tables (held for a probe or a splice, never while
// compiling or writing a frame). Counters and gauges live in the metrics
// registry under tydi.service.result_cache.* — the cache keeps no mirror
// counters.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace tydi::service {

/// One cached reply's complete wire frame (header line, payload, newline)
/// in a sealed memfd. The fd is closed when the last owner lets go: the
/// cache and every hit Response in flight each hold a shared_ptr, so an
/// eviction or INVALIDATE never closes a frame mid-send.
class ReplyFrame {
 public:
  /// Writes `header` + "\n" + `payload` + "\n" with one writev into a new
  /// memfd and seals it against writes, growth and shrinking. nullptr when
  /// memfd_create fails (EMFILE, ENOMEM) or the write comes up short.
  [[nodiscard]] static std::shared_ptr<const ReplyFrame> create(
      std::string_view header, std::string_view payload);
  ~ReplyFrame();

  ReplyFrame(const ReplyFrame&) = delete;
  ReplyFrame& operator=(const ReplyFrame&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  ReplyFrame(int fd, std::size_t size) : fd_(fd), size_(size) {}

  int fd_;
  std::size_t size_;
};

class ResultCache {
 public:
  /// Byte budget of the daemon's cache (keys + payloads).
  static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;
  /// Key hashes remembered for second-sighting admission before the set is
  /// cleared and starts over.
  static constexpr std::size_t kMaxSighted = 4096;
  /// Smallest payload stored with a ReplyFrame. Below it a gathering send
  /// is as cheap, and the floor bounds the frames (open fds) by
  /// kBudgetBytes / kMinFrameBytes = 1024.
  static constexpr std::size_t kMinFrameBytes = std::size_t{64} << 10;

  explicit ResultCache(std::size_t budget_bytes = kBudgetBytes);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  struct Lookup {
    /// The cached payload on a hit, nullptr on a miss.
    std::shared_ptr<const std::string> hit;
    /// The hit's reply frame; null on a miss, for a payload under
    /// kMinFrameBytes, or when the frame could not be built.
    std::shared_ptr<const ReplyFrame> frame;
    /// On a miss: this is at least the key's second sighting, so a
    /// successful result should be offered to `insert`.
    bool admit = false;
  };

  /// Looks `key` up, counting a hit or a miss and recording the sighting.
  [[nodiscard]] Lookup lookup(const std::string& key);
  /// Stores a successful payload (the caller got `admit` from lookup),
  /// evicting least-recently-used entries until the budget holds. A payload
  /// of at least kMinFrameBytes is stored with its reply frame, `header`
  /// (the response header line, no newline) followed by the payload. An
  /// entry larger than the whole budget is not stored.
  void insert(const std::string& key,
              std::shared_ptr<const std::string> payload,
              std::string_view header);
  /// Records one sighting without a lookup: keys recovered from the journal
  /// were seen by the previous process, so their first request here admits.
  void mark_sighted(const std::string& key);
  /// Drops every payload and sighting (the INVALIDATE verb).
  void clear();

  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t entries() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> payload;
    std::shared_ptr<const ReplyFrame> frame;
    [[nodiscard]] std::size_t bytes() const {
      return key.size() + payload->size() + (frame ? frame->size() : 0);
    }
  };
  using Lru = std::list<Entry>;  ///< most recently used first

  /// Returns true when `hash` had been sighted before; records it otherwise.
  bool sight_locked(std::uint64_t hash);
  void erase_locked(Lru::iterator it);

  const std::size_t budget_bytes_;
  mutable std::mutex mu_;
  Lru lru_;
  std::unordered_map<std::string_view, Lru::iterator> index_;
  std::unordered_set<std::uint64_t> sighted_;
  std::size_t bytes_ = 0;
};

}  // namespace tydi::service
