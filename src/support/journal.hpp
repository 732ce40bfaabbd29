// Crash-safe append-only journal framing — the durability primitive under
// the tydid compile journal (src/service/warmup.hpp).
//
// A journal file is a fixed 8-byte magic header followed by CRC32C-framed
// records:
//
//   file   := "TYDJRNL1" record*
//   record := u32le payload_len | u32le crc32c(payload) | payload bytes
//
// The format is designed around one invariant: *whatever bytes survive a
// crash, recovery never fails and never invents data*. `recover_journal`
// scans forward and keeps the longest prefix of records that frame and
// checksum correctly; the first byte that does not (torn tail from a crash
// mid-append, a flipped bit from failing media, a garbage length field) ends
// the scan. The caller then truncates to the valid prefix
// (`truncate_journal`) and appends from there. A file whose header is
// unreadable recovers to zero records — a cold start, never a refusal to
// boot and never UB (every length is bounds-checked before it is trusted,
// mirroring the hardened TYTR reader).
//
// Atomic snapshots (`write_snapshot_atomic`) are the compaction half: the
// replacement journal is written to `<path>.tmp`, fsync'd, renamed over the
// live file, and the parent directory fsync'd — a crash at any instant
// leaves either the complete old journal or the complete new one, never a
// half-written hybrid.
//
// Fault injection: `IoFaultPlan` extends the PR 6 deterministic seed-driven
// idiom (counter-based splitmix64 of (seed, site, step) — stateless,
// thread-free, reproducible) to the I/O path. Injectable faults: torn
// appends (crash mid-write), silent single-bit flips, ENOSPC partial
// writes, and crash-mid-snapshot / crash-before-rename. The journal tests
// drive every recovery rule through these faults the same way the shard
// runtime drives its protocol through sim::FaultPlan.
//
// Thread-safety: a JournalWriter is externally synchronized (the compile
// journal holds one mutex across append/compact); the free functions are
// pure I/O.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.hpp"

namespace tydi::support {

/// CRC32C (Castagnoli, polynomial 0x1EDC6F41 reflected) over `data`.
/// Software table implementation; the standard check value
/// crc32c("123456789") == 0xE3069283 is unit-tested.
[[nodiscard]] std::uint32_t crc32c(std::string_view data);

/// The journal file magic ("TYDJRNL1", 8 bytes).
inline constexpr char kJournalMagic[8] = {'T', 'Y', 'D', 'J',
                                          'R', 'N', 'L', '1'};
inline constexpr std::size_t kJournalHeaderBytes = sizeof(kJournalMagic);
/// Per-record frame header: u32le payload length + u32le payload CRC32C.
inline constexpr std::size_t kRecordHeaderBytes = 8;
/// Sanity bound on a single record. A length field above this is treated as
/// corruption (it almost certainly is — compile keys are tiny), which stops
/// a flipped high bit from making recovery attempt a 4 GiB allocation.
inline constexpr std::size_t kMaxRecordBytes = 16u << 20;

/// Deterministic I/O fault plan (PR 6 idiom, extended to the write path).
/// All probabilistic sites hash (seed, site, step) — same plan, same fault
/// schedule, regardless of thread or call timing.
struct IoFaultPlan {
  /// Master seed; 0 disables the probabilistic sites below.
  std::uint64_t seed = 0;
  /// Probability [0,1] that an append is torn: a seed-derived prefix of the
  /// frame is written, then the writer behaves as if the process died
  /// (every later operation fails kIoError). Recovery must truncate the
  /// torn tail.
  double torn_append_p = 0.0;
  /// Probability [0,1] that one seed-derived bit of an appended frame is
  /// flipped on its way to disk. The append *succeeds* — silent media
  /// corruption — and recovery must drop the flipped record and everything
  /// after it.
  double bit_flip_p = 0.0;
  /// Probability [0,1] that an append hits ENOSPC after a partial write.
  /// The writer repairs the torn tail (ftruncate back to the last good
  /// offset) and stays usable — a full disk must not corrupt the journal.
  double enospc_p = 0.0;
  /// One-shot snapshot faults: die after writing roughly half the temp
  /// file, or after the temp file is complete + fsync'd but before the
  /// rename. Either way the previous journal must survive intact.
  bool crash_mid_snapshot = false;
  bool crash_before_rename = false;

  [[nodiscard]] bool enabled() const {
    return seed != 0 || crash_mid_snapshot || crash_before_rename;
  }

  /// A mixed plan deriving every probability from one seed in [0.05, 0.4]
  /// — the shape the seeded fault-sweep tests use.
  [[nodiscard]] static IoFaultPlan from_seed(std::uint64_t seed);
};

/// Stateless fault oracle for the write path (counter-based splitmix64 of
/// (seed, site, step), one monotonic step counter per site).
class IoFaultInjector {
 public:
  enum class Site : std::uint32_t {
    kTornAppend = 1,
    kBitFlip = 2,
    kEnospc = 3,
  };

  explicit IoFaultInjector(const IoFaultPlan& plan) : plan_(plan) {}

  /// True when the fault at `site` fires for this step (each site keeps its
  /// own monotonic step counter).
  [[nodiscard]] bool fires(Site site);
  /// Seed-derived value in [0, bound) for the firing site's current step —
  /// picks the torn-write length / flipped bit deterministically.
  [[nodiscard]] std::uint64_t pick(Site site, std::uint64_t bound) const;

  [[nodiscard]] const IoFaultPlan& plan() const { return plan_; }

 private:
  IoFaultPlan plan_;
  std::uint64_t steps_[4] = {0, 0, 0, 0};
};

/// What `recover_journal` found on disk.
struct RecoveredJournal {
  /// Record payloads of the longest valid prefix, in append order.
  std::vector<std::string> records;
  /// Byte offset just past the last valid record (== the size a repaired
  /// journal should be truncated to). At least kJournalHeaderBytes for a
  /// readable journal; 0 for a missing/unreadable/not-a-journal file.
  std::uint64_t valid_bytes = 0;
  /// Total bytes present on disk when scanned.
  std::uint64_t total_bytes = 0;
  /// True when bytes past the valid prefix were dropped (torn tail or
  /// corruption). The caller should truncate and log — this is the
  /// kCorruptData-class event of a journal boot, but never a boot failure.
  [[nodiscard]] bool dropped_tail() const { return valid_bytes < total_bytes; }
  [[nodiscard]] std::uint64_t dropped_bytes() const {
    return total_bytes - valid_bytes;
  }
};

/// Scans `path` into `out`. A missing file recovers to zero records and
/// kOk (first boot); an unreadable file returns kIoError; any readable
/// byte sequence — including garbage, a bad magic, torn or bit-flipped
/// records — recovers the longest valid prefix and returns kOk with
/// `dropped_tail()` saying whether anything was lost. Never throws, never
/// trusts an unvalidated length.
[[nodiscard]] Status recover_journal(const std::string& path,
                                     RecoveredJournal& out);

/// Truncates `path` to `valid_bytes` (recovery repair). When `valid_bytes`
/// is below the header size the file is rewritten as a fresh empty journal
/// (header only) — the cold-start path for corrupt-beyond-salvage files.
[[nodiscard]] Status truncate_journal(const std::string& path,
                                      std::uint64_t valid_bytes);

/// Writes a complete journal (header + `records`) to `path` atomically:
/// temp file + fsync + rename + parent-directory fsync. On any failure the
/// previous file at `path` is untouched and the temp file is removed (best
/// effort). `injector` (optional) drives the snapshot crash faults.
[[nodiscard]] Status write_snapshot_atomic(
    const std::string& path, const std::vector<std::string>& records,
    IoFaultInjector* injector = nullptr);

/// Append-only journal writer. `open` validates/creates the header and
/// positions at the end — run `recover_journal` + `truncate_journal` first
/// so a torn tail from the previous process is repaired before new appends
/// land after it.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  [[nodiscard]] Status open(const std::string& path);
  /// Appends one framed record, without an fsync (compaction is what makes
  /// the file durable against power loss). On a partial write the torn
  /// tail is repaired (ftruncate to the pre-append offset) so the journal
  /// stays valid; a simulated crash fault leaves the tear in place and
  /// fails every later call (the tests recover it like a real crash).
  [[nodiscard]] Status append(std::string_view payload);
  /// Bytes currently in the journal (header + valid records).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  void close();

  /// Installs the fault plan driving this writer's injected failures
  /// (tests only; default: no faults).
  void set_fault_plan(const IoFaultPlan& plan);

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t bytes_ = 0;
  /// Simulated process death: set by a torn-append fault; every later
  /// operation fails kIoError without touching the file.
  bool crashed_ = false;
  IoFaultInjector injector_{IoFaultPlan{}};
};

}  // namespace tydi::support
