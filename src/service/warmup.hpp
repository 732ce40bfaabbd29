// Durable compile journal + startup replay — how tydid restarts warm.
//
// The daemon's value is its warm state: the template memo, parse cache and
// emission caches a long-lived CompileSession accumulates. That state is
// deliberately *not* serialized — pickling elaborated C++ object graphs
// would tie the on-disk format to compiler internals and silently serve
// stale designs across compiler or source changes. Instead the journal
// persists the *compile keys*: for every request class that successfully
// compiled (TPCH/FILE), the normalized request line plus a content stamp
// (elab::source_hash) of every source file involved. On restart the keys
// are replayed through the normal compile path — the same admission
// control, the same caches — so the rewarmed state is re-derived by the
// current compiler from the current sources, and a key whose sources
// changed on disk is simply skipped as stale. The same holds when the
// stamp function itself changes: a journal written while the stamp was
// FNV-1a 64 (it is XXH64 now) replays nothing after the upgrade — every
// FILE stamp mismatches, so the first boot is cold once.
//
// Layering: support::journal (src/support/journal.hpp) owns bytes-on-disk
// (CRC32C framing, torn-tail recovery, atomic snapshots); this file owns
// the compile-specific record format, the live-key set and its compaction,
// and the replay loop. The service (src/service/service.hpp) wires it into
// the request pipeline; replay submits through a callback so this layer
// never depends on the service types.
//
// Record payload format (one journal record per key):
//
//   line 1:  the normalized request ("TPCH 6 vhdl",
//            "FILE a.td,b.td top_i vhdl" — no envelope, no budget)
//   line 2+: "<content-hash-decimal> <source-path>" per stamped source
//            (TPCH keys carry no stamps: their sources are built in)
//
// Concurrency: one mutex guards the writer, the live-key map and
// compaction — record() is called from worker threads on the first
// successful compile of a key (a duplicate key with identical stamps is a
// no-op before the lock is even expensive) and compacts under that lock
// once superseded records dominate the file; compact() runs from the
// drain path.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/journal.hpp"
#include "src/support/status.hpp"

namespace tydi::service::warmup {

/// One stamped source of a journaled compile key.
struct SourceStampRecord {
  std::string path;
  std::uint64_t hash = 0;

  bool operator==(const SourceStampRecord&) const = default;
};

/// One journaled compile key: the replayable request plus the content
/// stamps that must still match for replay to make sense.
struct JournalEntry {
  /// Normalized request line ("TPCH 6 vhdl" / "FILE <paths> <top> <emit>"):
  /// no envelope tokens, no per-request budget — replay supplies its own.
  std::string request;
  std::vector<SourceStampRecord> stamps;

  [[nodiscard]] std::string serialize() const;
  /// Parses one record payload; false on a malformed payload (corrupt
  /// records that pass CRC cannot occur in practice, but a journal written
  /// by a future format version must degrade to "skip entry", not UB).
  [[nodiscard]] static bool parse(std::string_view payload, JournalEntry& out);

  bool operator==(const JournalEntry&) const = default;
};

/// True when every stamped source still has byte-identical content on disk
/// (re-read + re-hash). Entries with no stamps (TPCH) are always current;
/// a missing/unreadable file is stale, never an error.
[[nodiscard]] bool entry_is_current(const JournalEntry& entry);

/// The durable key set of one daemon. All methods are thread-safe. Appends,
/// append failures, compactions and recovery outcomes count into the
/// process-wide `tydi.journal.*` registry metrics.
class CompileJournal {
 public:
  /// Recovers `path` (longest valid prefix; torn/corrupt tails truncated
  /// away), seeds the live-key set from the recovered records, and opens
  /// the writer for appends. Returns non-ok only when the path cannot be
  /// read/created at all — recovery of any byte content succeeds, possibly
  /// cold. `recovery_dropped_bytes()`/`recovered_corrupt()` report what was
  /// lost for HEALTH and logs.
  [[nodiscard]] support::Status open(const std::string& path);

  /// Compaction on growth: record() compacts once the file exceeds both
  /// this floor and kCompactGrowth times its size right after the last
  /// compaction (none yet after open(): the floor alone decides). The file
  /// therefore stays within max(floor, kCompactGrowth x compacted size)
  /// plus one record; a failed compaction is retried once the file has
  /// doubled again.
  static constexpr std::uint64_t kCompactFloorBytes = 1u << 20;
  static constexpr std::uint64_t kCompactGrowth = 2;

  /// Records one successfully-compiled key. Appends only when the key is
  /// new or its stamps changed (so warm traffic does not grow the
  /// journal), then compacts on growth. Append and compaction failures are
  /// counted and remembered but never propagate — durability is
  /// best-effort, serving is not.
  void record(const JournalEntry& entry);

  /// Atomically rewrites the journal as the deduplicated live-key set
  /// (temp + fsync + rename + parent fsync) and reopens the writer on the
  /// compacted file. On failure the previous journal remains live.
  [[nodiscard]] support::Status compact();

  /// The live set recovered at open() — one entry per key with its newest
  /// stamps, in first-seen order: the replay worklist.
  [[nodiscard]] std::vector<JournalEntry> recovered_entries() const;

  [[nodiscard]] std::uint64_t journal_bytes() const;
  [[nodiscard]] std::size_t live_keys() const;
  /// ms since the last successful compaction; negative when none ran yet.
  [[nodiscard]] double last_compaction_ms() const;
  /// Records read at open(), superseded versions included.
  [[nodiscard]] std::uint64_t recovered_records() const;
  [[nodiscard]] std::uint64_t recovery_dropped_bytes() const;
  /// True when open() found bytes it had to drop (torn tail / corruption)
  /// — the kCorruptData-class event HEALTH reports as journal_error.
  [[nodiscard]] bool recovered_corrupt() const;
  /// Rendered status of the most recent journal I/O failure ("" if none).
  [[nodiscard]] std::string last_error() const;

  /// Fault plan for the writer + snapshot path (tests only).
  void set_fault_plan(const support::IoFaultPlan& plan);

 private:
  void record_error(const support::Status& status);
  [[nodiscard]] support::Status compact_locked();
  [[nodiscard]] std::vector<std::string> live_payloads_locked() const;

  mutable std::mutex mu_;
  std::string path_;
  support::JournalWriter writer_;
  support::IoFaultPlan fault_plan_;
  /// Live keys in first-seen order (replay and compaction preserve it).
  std::vector<JournalEntry> live_;
  std::unordered_map<std::string, std::size_t> index_;  ///< request -> slot
  std::vector<JournalEntry> recovered_;
  std::uint64_t recovered_records_ = 0;
  /// File size the growth trigger is relative to (see kCompactGrowth).
  std::uint64_t compact_base_ = 0;
  std::uint64_t recovery_dropped_ = 0;
  bool recovered_corrupt_ = false;
  double last_compaction_epoch_ms_ = -1.0;  ///< steady-clock ms, -1 = never
  std::string last_error_;
};

/// Replays `entries` through `submit` (one normalized request line per
/// call; the caller wraps it in its own envelope — the service uses
/// "PRIO batch" so live interactive traffic always wins). `submit` returns
/// the request's classification. Each entry counts, as it finishes, into
/// one of the `tydi.service.replay.*` counters: `replayed` (ok),
/// `skipped_stale` (stamps no longer match the files on disk), `shed`
/// (kUnavailable), `failed` (any other error) or `budget_expired` (not
/// attempted: `budget_ms` of wall clock ran out, 0 = unlimited — a huge
/// journal must not hold a restart hostage). `stop` (optional) is polled
/// between entries so a drain aborts replay promptly. Returns wall-clock
/// ms spent.
[[nodiscard]] double replay_entries(
    const std::vector<JournalEntry>& entries, double budget_ms,
    const std::function<support::Status(const std::string& line)>& submit,
    const std::function<bool()>& stop = nullptr);

}  // namespace tydi::service::warmup
