// Durability tests: CRC32C framing, torn-tail-tolerant recovery driven as
// a fuzz-style corpus (truncation at every byte, a bit flip at every
// byte, seeded I/O fault sweeps), atomic snapshot crash safety, the
// compile-journal key set, the replay loop, and an in-process
// warm-restart of the whole CompileService. The invariant under test is
// the journal's one promise: whatever bytes survive a crash, boot always
// succeeds with the longest valid prefix — never UB, never a refusal to
// serve.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/elab/memo.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/service.hpp"
#include "src/service/warmup.hpp"
#include "src/support/hash.hpp"
#include "src/support/journal.hpp"
#include "src/support/source.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {
namespace {

using service::warmup::CompileJournal;
using service::warmup::JournalEntry;
using service::warmup::SourceStampRecord;
using support::IoFaultPlan;
using support::RecoveredJournal;
using support::Status;
using support::StatusCode;

/// A process-wide registry counter. Every journal and service in this
/// process counts into the same registry, so the tests compare deltas.
std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Deltas of the tydi.service.replay.* counters since construction.
struct ReplayDeltas {
  const std::uint64_t replayed0 = replay("replayed");
  const std::uint64_t skipped_stale0 = replay("skipped_stale");
  const std::uint64_t shed0 = replay("shed");
  const std::uint64_t failed0 = replay("failed");
  const std::uint64_t budget_expired0 = replay("budget_expired");

  static std::uint64_t replay(const std::string& name) {
    return counter("tydi.service.replay." + name);
  }
  std::uint64_t replayed() const { return replay("replayed") - replayed0; }
  std::uint64_t skipped_stale() const {
    return replay("skipped_stale") - skipped_stale0;
  }
  std::uint64_t shed() const { return replay("shed") - shed0; }
  std::uint64_t failed() const { return replay("failed") - failed0; }
  std::uint64_t budget_expired() const {
    return replay("budget_expired") - budget_expired0;
  }
};

std::string temp_path(const std::string& tag) {
  return "/tmp/tydi_journal_" + std::to_string(::getpid()) + "_" + tag;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The file's bytes; empty when it cannot be read.
std::string read_file(const std::string& path) {
  std::string bytes;
  (void)support::read_file(path, bytes);
  return bytes;
}

/// A journal at `path` holding exactly `payloads`, written fault-free.
void build_journal(const std::string& path,
                   const std::vector<std::string>& payloads) {
  ::unlink(path.c_str());
  support::JournalWriter writer;
  ASSERT_TRUE(writer.open(path).is_ok());
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(writer.append(payload).is_ok());
  }
}

TEST(Crc32c, KnownAnswerAndBasics) {
  // The standard CRC32C check value.
  EXPECT_EQ(support::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(support::crc32c(""), 0u);
  EXPECT_NE(support::crc32c("abc"), support::crc32c("abd"));
  // Binary-safe: embedded NUL bytes count.
  EXPECT_NE(support::crc32c(std::string_view("a\0b", 3)),
            support::crc32c(std::string_view("ab", 2)));
}

// The content stamp journals persist (elab::source_hash, XXH64 seed 0).
// Changing it silently would turn every journaled key stale, so its values
// are pinned: any XXH64 implementation reproduces them.
TEST(SourceStamp, KnownAnswers) {
  EXPECT_EQ(elab::source_hash(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(elab::source_hash("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(elab::source_hash("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(elab::source_hash("streamlet s {}"), 0xDEDF2A052339F9F9ULL);
  EXPECT_EQ(elab::source_hash("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCULL);
  std::string alphabet;
  for (int i = 0; i < 100; ++i) alphabet += static_cast<char>('a' + i % 26);
  EXPECT_EQ(elab::source_hash(alphabet), 0x79C9FA152BB53C71ULL);
}

TEST(SourceStamp, EverySingleByteEditOfATpchSourceChangesIt) {
  std::vector<std::string> sources{std::string(tpch::fletcher_source())};
  for (const tpch::QueryCase& q : tpch::queries()) {
    sources.emplace_back(q.source);
  }
  for (const std::string& source : sources) {
    const std::uint64_t base = elab::source_hash(source);
    std::string edited = source;
    for (std::size_t i = 0; i < edited.size(); ++i) {
      for (const char delta : {'\x01', '\x80'}) {
        edited[i] = static_cast<char>(source[i] ^ delta);
        EXPECT_NE(elab::source_hash(edited), base)
            << "offset " << i << " of " << source.size();
        edited[i] = source[i];
      }
    }
  }
}

TEST(SourceStamp, PrefixesAndTrailingNulsHashApart) {
  const std::string text =
      "type t = Stream(Bit(8), d=1);\n"
      "streamlet s { i : t in, o : t out, p : t out; }\n";
  ASSERT_GE(text.size(), 70u);
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= 70; ++len) {
    seen.insert(elab::source_hash(std::string_view(text).substr(0, len)));
  }
  EXPECT_EQ(seen.size(), 71u);
  EXPECT_NE(elab::source_hash("a"), elab::source_hash(std::string("a\0", 2)));
  EXPECT_NE(elab::source_hash(""), elab::source_hash(std::string(1, '\0')));
}

TEST(JournalFraming, AppendRecoverRoundTrip) {
  const std::string path = temp_path("roundtrip.jnl");
  const std::vector<std::string> payloads = {
      "TPCH 6 vhdl\n", "", std::string("bin\0\n\xff", 6),
      std::string(2000, 'x')};
  build_journal(path, payloads);

  RecoveredJournal recovered;
  ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
  EXPECT_EQ(recovered.records, payloads);
  EXPECT_FALSE(recovered.dropped_tail());
  EXPECT_EQ(recovered.valid_bytes, recovered.total_bytes);
  ::unlink(path.c_str());
}

TEST(JournalFraming, MissingFileIsFirstBoot) {
  RecoveredJournal recovered;
  ASSERT_TRUE(
      support::recover_journal(temp_path("nonexistent.jnl"), recovered)
          .is_ok());
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_EQ(recovered.total_bytes, 0u);
  EXPECT_FALSE(recovered.dropped_tail());
}

TEST(JournalFraming, NotAJournalRecoversColdAndRepairs) {
  const std::string path = temp_path("garbage.jnl");
  write_file(path, "this is not a journal at all");
  RecoveredJournal recovered;
  ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_EQ(recovered.valid_bytes, 0u);
  EXPECT_TRUE(recovered.dropped_tail());
  // The repair path rewrites a fresh header-only journal.
  ASSERT_TRUE(support::truncate_journal(path, recovered.valid_bytes).is_ok());
  ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_FALSE(recovered.dropped_tail());
  EXPECT_EQ(recovered.total_bytes, support::kJournalHeaderBytes);
  ::unlink(path.c_str());
}

// Fuzz-style corpus #1: truncate the journal at EVERY byte offset
// (covering all record boundaries and boundaries +/- 1). Recovery must
// always succeed with exactly the records that fit completely.
TEST(JournalRecoveryFuzz, TruncationAtEveryByte) {
  const std::string path = temp_path("trunc.jnl");
  const std::vector<std::string> payloads = {"alpha", "bee", "", "delta!"};
  build_journal(path, payloads);
  const std::string image = read_file(path);

  // Record end offsets in the intact image.
  std::vector<std::size_t> ends;
  std::size_t offset = support::kJournalHeaderBytes;
  for (const std::string& p : payloads) {
    offset += support::kRecordHeaderBytes + p.size();
    ends.push_back(offset);
  }
  ASSERT_EQ(offset, image.size());

  const std::string cut_path = temp_path("trunc_cut.jnl");
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    write_file(cut_path, image.substr(0, cut));
    RecoveredJournal recovered;
    ASSERT_TRUE(support::recover_journal(cut_path, recovered).is_ok())
        << "cut at " << cut;
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    if (cut < support::kJournalHeaderBytes) {
      EXPECT_EQ(recovered.valid_bytes, 0u) << "cut at " << cut;
      expect = 0;
    }
    ASSERT_EQ(recovered.records.size(), expect) << "cut at " << cut;
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(recovered.records[i], payloads[i]) << "cut at " << cut;
    }
    EXPECT_EQ(recovered.dropped_tail(),
              cut != 0 && (cut < support::kJournalHeaderBytes ||
                           recovered.valid_bytes < cut))
        << "cut at " << cut;
  }
  ::unlink(path.c_str());
  ::unlink(cut_path.c_str());
}

// Fuzz-style corpus #2: flip one bit in EVERY byte of the image. Recovery
// must keep exactly the records before the damaged one and never crash
// (the ASan/UBSan CI job runs this test too).
TEST(JournalRecoveryFuzz, BitFlipAtEveryByte) {
  const std::string path = temp_path("flip.jnl");
  const std::vector<std::string> payloads = {"alpha", "bee", "", "delta!"};
  build_journal(path, payloads);
  const std::string image = read_file(path);

  std::vector<std::size_t> starts;
  std::size_t offset = support::kJournalHeaderBytes;
  for (const std::string& p : payloads) {
    starts.push_back(offset);
    offset += support::kRecordHeaderBytes + p.size();
  }

  const std::string flip_path = temp_path("flip_cut.jnl");
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    std::string damaged = image;
    damaged[byte] = static_cast<char>(
        static_cast<unsigned char>(damaged[byte]) ^ (1u << (byte % 8)));
    write_file(flip_path, damaged);
    RecoveredJournal recovered;
    ASSERT_TRUE(support::recover_journal(flip_path, recovered).is_ok())
        << "flip at " << byte;
    // Record containing the flipped byte (== starts.size() when the flip
    // is in the header).
    std::size_t damaged_record = 0;
    if (byte < support::kJournalHeaderBytes) {
      damaged_record = 0;  // header flip: nothing survives
      EXPECT_EQ(recovered.valid_bytes, 0u) << "flip at " << byte;
    } else {
      while (damaged_record + 1 < starts.size() &&
             starts[damaged_record + 1] <= byte) {
        ++damaged_record;
      }
    }
    EXPECT_TRUE(recovered.dropped_tail()) << "flip at " << byte;
    ASSERT_EQ(recovered.records.size(), damaged_record)
        << "flip at " << byte;
    for (std::size_t i = 0; i < damaged_record; ++i) {
      EXPECT_EQ(recovered.records[i], payloads[i]) << "flip at " << byte;
    }
  }
  ::unlink(path.c_str());
  ::unlink(flip_path.c_str());
}

TEST(JournalFaults, EnospcMidAppendKeepsWriterUsable) {
  const std::string path = temp_path("enospc.jnl");
  ::unlink(path.c_str());
  support::JournalWriter writer;
  ASSERT_TRUE(writer.open(path).is_ok());

  IoFaultPlan plan;
  plan.seed = 7;
  plan.enospc_p = 1.0;  // every append hits ENOSPC after a partial write
  writer.set_fault_plan(plan);
  const Status full = writer.append("doomed payload");
  EXPECT_EQ(full.code(), StatusCode::kIoError);

  // The tear was repaired in place: the journal is still valid and the
  // writer still works once space frees up.
  writer.set_fault_plan(IoFaultPlan{});
  ASSERT_TRUE(writer.append("survivor").is_ok());
  writer.close();

  RecoveredJournal recovered;
  ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0], "survivor");
  EXPECT_FALSE(recovered.dropped_tail());
  ::unlink(path.c_str());
}

TEST(JournalFaults, TornAppendIsACrashRecoveryTruncates) {
  const std::string path = temp_path("torn.jnl");
  build_journal(path, {"first"});

  support::JournalWriter writer;
  ASSERT_TRUE(writer.open(path).is_ok());
  IoFaultPlan plan;
  plan.seed = 11;
  plan.torn_append_p = 1.0;
  writer.set_fault_plan(plan);
  EXPECT_EQ(writer.append("torn away").code(), StatusCode::kIoError);
  // Simulated process death: every later call fails without touching disk.
  EXPECT_EQ(writer.append("after death").code(), StatusCode::kIoError);
  writer.close();

  // Next boot: recover, truncate the tear, continue appending.
  RecoveredJournal recovered;
  ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0], "first");
  ASSERT_TRUE(
      support::truncate_journal(path, recovered.valid_bytes).is_ok());
  support::JournalWriter writer2;
  ASSERT_TRUE(writer2.open(path).is_ok());
  ASSERT_TRUE(writer2.append("second life").is_ok());
  writer2.close();
  ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
  EXPECT_EQ(recovered.records,
            (std::vector<std::string>{"first", "second life"}));
  ::unlink(path.c_str());
}

// Seeded sweep: many mixed fault schedules (torn appends, silent bit
// flips, ENOSPC), each fully deterministic from its seed. Whatever the
// schedule does, recovery must yield an in-order subset of the appended
// payloads, and the repaired journal must accept new appends.
TEST(JournalFaults, SeededFaultScheduleSweep) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string path =
        temp_path("sweep_" + std::to_string(seed) + ".jnl");
    ::unlink(path.c_str());
    {
      support::JournalWriter writer;
      ASSERT_TRUE(writer.open(path).is_ok()) << "seed " << seed;
      writer.set_fault_plan(IoFaultPlan::from_seed(seed));
      for (int i = 0; i < 30; ++i) {
        (void)writer.append("entry " + std::to_string(i));
      }
    }
    RecoveredJournal recovered;
    ASSERT_TRUE(support::recover_journal(path, recovered).is_ok())
        << "seed " << seed;
    // In-order subset: indices strictly increase.
    int last = -1;
    for (const std::string& record : recovered.records) {
      ASSERT_EQ(record.rfind("entry ", 0), 0u) << "seed " << seed;
      const int index = std::stoi(record.substr(6));
      EXPECT_GT(index, last) << "seed " << seed;
      last = index;
    }
    // Repair + continue: the journal always comes back writable.
    ASSERT_TRUE(
        support::truncate_journal(path, recovered.valid_bytes).is_ok())
        << "seed " << seed;
    support::JournalWriter writer;
    ASSERT_TRUE(writer.open(path).is_ok()) << "seed " << seed;
    ASSERT_TRUE(writer.append("tail").is_ok()) << "seed " << seed;
    writer.close();
    RecoveredJournal after;
    ASSERT_TRUE(support::recover_journal(path, after).is_ok());
    ASSERT_EQ(after.records.size(), recovered.records.size() + 1)
        << "seed " << seed;
    EXPECT_EQ(after.records.back(), "tail") << "seed " << seed;
    ::unlink(path.c_str());
  }
}

TEST(JournalSnapshot, CrashAtEitherPointLeavesOldJournalIntact) {
  const std::string path = temp_path("snap.jnl");
  const std::vector<std::string> original = {"one", "two", "three"};
  build_journal(path, original);

  for (const bool before_rename : {false, true}) {
    IoFaultPlan plan;
    plan.crash_mid_snapshot = !before_rename;
    plan.crash_before_rename = before_rename;
    support::IoFaultInjector injector(plan);
    const Status status =
        support::write_snapshot_atomic(path, {"replacement"}, &injector);
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    RecoveredJournal recovered;
    ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
    EXPECT_EQ(recovered.records, original)
        << "crash_before_rename=" << before_rename;
    EXPECT_FALSE(recovered.dropped_tail());
  }

  // And the fault-free snapshot replaces the journal atomically.
  ASSERT_TRUE(
      support::write_snapshot_atomic(path, {"compacted"}, nullptr).is_ok());
  RecoveredJournal recovered;
  ASSERT_TRUE(support::recover_journal(path, recovered).is_ok());
  EXPECT_EQ(recovered.records, std::vector<std::string>{"compacted"});
  EXPECT_EQ(::access((path + ".tmp").c_str(), F_OK), -1);
  ::unlink(path.c_str());
}

TEST(JournalEntryFormat, SerializeParseRoundTrip) {
  JournalEntry entry;
  entry.request = "FILE /tmp/a.td,/tmp/b.td top_i vhdl";
  entry.stamps = {SourceStampRecord{"/tmp/a.td", 0xDEADBEEFCAFEull},
                  SourceStampRecord{"/tmp/path with spaces.td", 42}};
  JournalEntry parsed;
  ASSERT_TRUE(JournalEntry::parse(entry.serialize(), parsed));
  EXPECT_EQ(parsed, entry);

  JournalEntry no_stamps;
  no_stamps.request = "TPCH 6 vhdl";
  ASSERT_TRUE(JournalEntry::parse(no_stamps.serialize(), parsed));
  EXPECT_EQ(parsed, no_stamps);

  for (const char* bad : {"", "\n", "req\nnot-a-number path",
                          "req\n123", "req\n123 "}) {
    EXPECT_FALSE(JournalEntry::parse(bad, parsed)) << "payload: " << bad;
  }
}

TEST(CompileJournalTest, DedupCompactReopen) {
  const std::string path = temp_path("compile.jnl");
  ::unlink(path.c_str());

  JournalEntry q6{"TPCH 6 vhdl", {}};
  JournalEntry q3{"TPCH 3 ir", {}};
  const std::uint64_t appends0 = counter("tydi.journal.appends");
  const std::uint64_t compactions0 = counter("tydi.journal.compactions");
  {
    CompileJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    EXPECT_EQ(journal.live_keys(), 0u);
    journal.record(q6);
    journal.record(q3);
    const std::uint64_t bytes_after_two = journal.journal_bytes();
    journal.record(q6);  // duplicate key, identical stamps: no append
    EXPECT_EQ(journal.journal_bytes(), bytes_after_two);
    EXPECT_EQ(journal.live_keys(), 2u);
    EXPECT_EQ(counter("tydi.journal.appends") - appends0, 2u);

    // Re-record with changed stamps: the key is re-journaled.
    JournalEntry q6_edited = q6;
    q6_edited.stamps.push_back(SourceStampRecord{"/tmp/x.td", 99});
    journal.record(q6_edited);
    EXPECT_GT(journal.journal_bytes(), bytes_after_two);
    EXPECT_EQ(journal.live_keys(), 2u);

    ASSERT_TRUE(journal.compact().is_ok());
    EXPECT_GE(journal.last_compaction_ms(), 0.0);
    EXPECT_EQ(counter("tydi.journal.compactions") - compactions0, 1u);
  }
  {
    // Reopen: the compacted live set comes back, later-record-wins.
    CompileJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    EXPECT_FALSE(journal.recovered_corrupt());
    ASSERT_EQ(journal.recovered_records(), 2u);
    const std::vector<JournalEntry> entries = journal.recovered_entries();
    EXPECT_EQ(entries[0].request, "TPCH 6 vhdl");
    EXPECT_EQ(entries[0].stamps.size(), 1u);  // the edited stamps won
    EXPECT_EQ(entries[1].request, "TPCH 3 ir");
  }
  ::unlink(path.c_str());
}

// Compaction on growth: edit traffic re-journals a few live keys over and
// over. The file never outgrows the trigger bound by more than one record,
// and a reopen recovers exactly the live keys with their newest stamps.
TEST(CompileJournalTest, GrowthCompactionBoundsEditTraffic) {
  const std::string path = temp_path("growth.jnl");
  ::unlink(path.c_str());
  constexpr int kKeys = 4;
  constexpr int kEdits = 2000;
  // ~2 KB records of equal size (7-digit stamps), so 2000 edits write
  // ~4 MB and cross the 1 MiB floor several times.
  const std::string source = temp_path(std::string(2000, 'p') + ".td");
  auto edit = [&](int n) {
    return JournalEntry{
        "FILE " + source + " top" + std::to_string(n % kKeys) + "_i vhdl",
        {SourceStampRecord{source, 1000000u + static_cast<unsigned>(n)}}};
  };
  const std::uint64_t record_bytes =
      support::kRecordHeaderBytes + edit(0).serialize().size();
  // The live set compacts to far less than floor / kCompactGrowth, so the
  // floor is the trigger.
  ASSERT_LT(CompileJournal::kCompactGrowth *
                (support::kJournalHeaderBytes + kKeys * record_bytes),
            CompileJournal::kCompactFloorBytes);
  const std::uint64_t bound = CompileJournal::kCompactFloorBytes + record_bytes;

  const std::uint64_t compactions0 = counter("tydi.journal.compactions");
  {
    CompileJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    for (int n = 0; n < kEdits; ++n) {
      journal.record(edit(n));
      ASSERT_LE(journal.journal_bytes(), bound) << "after edit " << n;
    }
    EXPECT_EQ(journal.live_keys(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(journal.last_error(), "");
  }
  // ~4 MB of appends through a 1 MiB floor.
  EXPECT_GE(counter("tydi.journal.compactions") - compactions0, 3u);

  CompileJournal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  EXPECT_FALSE(journal.recovered_corrupt());
  const std::vector<JournalEntry> entries = journal.recovered_entries();
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(entries[k], edit(kEdits - kKeys + k)) << "key " << k;
  }
  ::unlink(path.c_str());
}

// Growth compaction runs on whichever thread's append crossed the bound,
// racing the other workers' record() and HEALTH's reads (run under TSan).
TEST(CompileJournalTest, ConcurrentRecordsCompactUnderTheLock) {
  const std::string path = temp_path("concurrent.jnl");
  ::unlink(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kEdits = 300;
  const std::string source = temp_path(std::string(2000, 'c') + ".td");
  auto edit = [&](int thread, int n) {
    return JournalEntry{
        "FILE " + source + " top" + std::to_string(thread) + "_i vhdl",
        {SourceStampRecord{source, 1000u + static_cast<unsigned>(n)}}};
  };
  const std::uint64_t bound = CompileJournal::kCompactFloorBytes +
                              support::kRecordHeaderBytes +
                              edit(0, 0).serialize().size();
  const std::uint64_t compactions0 = counter("tydi.journal.compactions");
  {
    CompileJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    std::atomic<bool> done{false};
    std::uint64_t max_seen = 0;
    std::thread reader([&] {
      while (!done.load()) {
        max_seen = std::max(max_seen, journal.journal_bytes());
        (void)journal.live_keys();
        (void)journal.last_compaction_ms();
        (void)journal.last_error();
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int n = 0; n < kEdits; ++n) journal.record(edit(t, n));
      });
    }
    for (std::thread& w : writers) w.join();
    done.store(true);
    reader.join();
    EXPECT_LE(max_seen, bound);
    EXPECT_EQ(journal.last_error(), "");
  }
  EXPECT_GE(counter("tydi.journal.compactions") - compactions0, 1u);
  CompileJournal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  const std::vector<JournalEntry> entries = journal.recovered_entries();
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(kThreads));
  for (const JournalEntry& entry : entries) {
    EXPECT_EQ(entry.stamps, edit(0, kEdits - 1).stamps) << entry.request;
  }
  ::unlink(path.c_str());
}

TEST(CompileJournalTest, CorruptTailBootsColdPastThePrefix) {
  const std::string path = temp_path("corrupt.jnl");
  ::unlink(path.c_str());
  {
    CompileJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    journal.record(JournalEntry{"TPCH 6 vhdl", {}});
    journal.record(JournalEntry{"TPCH 3 ir", {}});
  }
  // Torn tail: half a frame of garbage after the valid records.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x55\x55\x55";
  }
  CompileJournal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  EXPECT_TRUE(journal.recovered_corrupt());
  EXPECT_EQ(journal.recovery_dropped_bytes(), 3u);
  EXPECT_EQ(journal.recovered_records(), 2u);
  // The tear was truncated: appends land on a valid journal again.
  journal.record(JournalEntry{"TPCH 1 vhdl", {}});
  EXPECT_EQ(journal.live_keys(), 3u);
  ::unlink(path.c_str());
}

TEST(ReplayEntries, ClassifiesAndSkipsStale) {
  const std::string fresh_path = temp_path("fresh.td");
  write_file(fresh_path, "streamlet s {}");
  const std::uint64_t fresh_hash = elab::source_hash("streamlet s {}");

  std::vector<JournalEntry> entries;
  entries.push_back(JournalEntry{"OK_NO_STAMPS", {}});
  entries.push_back(JournalEntry{
      "OK_FRESH", {SourceStampRecord{fresh_path, fresh_hash}}});
  entries.push_back(JournalEntry{
      "STALE_HASH", {SourceStampRecord{fresh_path, fresh_hash ^ 1}}});
  entries.push_back(JournalEntry{
      "STALE_MISSING",
      {SourceStampRecord{temp_path("never_written.td"), 1}}});
  entries.push_back(JournalEntry{"SHED_ME", {}});
  entries.push_back(JournalEntry{"FAIL_ME", {}});

  const ReplayDeltas stats;
  std::vector<std::string> submitted;
  (void)service::warmup::replay_entries(
      entries, 0.0,
      [&](const std::string& request) {
        submitted.push_back(request);
        if (request == "SHED_ME") {
          return Status::error(StatusCode::kUnavailable, "svc", "shed");
        }
        if (request == "FAIL_ME") {
          return Status::error(StatusCode::kInternal, "svc", "boom");
        }
        return Status::ok();
      });
  EXPECT_EQ(submitted,
            (std::vector<std::string>{"OK_NO_STAMPS", "OK_FRESH", "SHED_ME",
                                      "FAIL_ME"}));
  EXPECT_EQ(stats.replayed(), 2u);
  EXPECT_EQ(stats.skipped_stale(), 2u);
  EXPECT_EQ(stats.shed(), 1u);
  EXPECT_EQ(stats.failed(), 1u);
  EXPECT_EQ(stats.budget_expired(), 0u);
  ::unlink(fresh_path.c_str());
}

TEST(ReplayEntries, BudgetBoundsTheLoop) {
  std::vector<JournalEntry> entries(3, JournalEntry{"SLOW", {}});
  const ReplayDeltas stats;
  const double elapsed = service::warmup::replay_entries(
      entries, 5.0,
      [](const std::string&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Status::ok();
      });
  EXPECT_GE(elapsed, 5.0);
  EXPECT_EQ(stats.replayed(), 1u);  // budget noticed after entry #1
  EXPECT_EQ(stats.budget_expired(), 2u);
}

TEST(ReplayEntries, StopAbortsPromptly) {
  std::vector<JournalEntry> entries(5, JournalEntry{"NEVER", {}});
  const ReplayDeltas stats;
  (void)service::warmup::replay_entries(
      entries, 0.0,
      [](const std::string&) { return Status::ok(); }, [] { return true; });
  EXPECT_EQ(stats.replayed(), 0u);
  EXPECT_EQ(stats.budget_expired(), 5u);
}

// The tentpole end to end, in process: compile through a journaled
// service, drain (compacts), boot a second service on the same journal,
// replay, and require byte-identical outputs plus a warm memo.
TEST(ServiceWarmRestart, ReplayRewarmsByteIdentically) {
  const std::string journal_path = temp_path("svc.jnl");
  ::unlink(journal_path.c_str());

  service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;

  std::string q6_vhdl;
  std::string q3_ir;
  {
    service::CompileService svc(config);
    ASSERT_NE(svc.journal(), nullptr);
    service::Response r6 = svc.handle_line("TPCH 6 vhdl");
    ASSERT_TRUE(r6.ok()) << r6.payload();
    q6_vhdl = r6.payload();
    service::Response r3 = svc.handle_line("TPCH 3 ir");
    ASSERT_TRUE(r3.ok()) << r3.payload();
    q3_ir = r3.payload();

    // Drain compacts: the journal holds the two live keys.
    const std::uint64_t compactions0 = counter("tydi.journal.compactions");
    svc.drain();
    EXPECT_EQ(counter("tydi.journal.compactions") - compactions0, 1u);
    EXPECT_EQ(svc.journal()->live_keys(), 2u);
  }

  {
    service::CompileService svc(config);
    ASSERT_NE(svc.journal(), nullptr);
    EXPECT_EQ(svc.journal()->recovered_records(), 2u);
    EXPECT_FALSE(svc.journal()->recovered_corrupt());

    const ReplayDeltas replay;
    svc.start_replay();
    svc.wait_replay();
    EXPECT_TRUE(svc.replay_done());
    EXPECT_EQ(replay.replayed(), 2u);
    EXPECT_EQ(replay.failed(), 0u);

    // Byte-identical to the first daemon's outputs.
    obs::Counter& result_hits = obs::MetricsRegistry::global().counter(
        "tydi.service.result_cache.hits");
    const std::uint64_t hits0 = result_hits.value();
    service::Response r6 = svc.handle_line("TPCH 6 vhdl");
    ASSERT_TRUE(r6.ok());
    EXPECT_EQ(r6.payload(), q6_vhdl);
    service::Response r3 = svc.handle_line("TPCH 3 ir");
    ASSERT_TRUE(r3.ok());
    EXPECT_EQ(r3.payload(), q3_ir);

    // The post-replay requests were warm: replay admitted both recovered
    // keys, so each was a whole-result hit.
    EXPECT_EQ(result_hits.value() - hits0, 2u);

    // HEALTH reports the journal + replay fields.
    const std::string health = svc.handle_line("HEALTH").payload();
    EXPECT_NE(health.find("\"journal_enabled\":true"), std::string::npos);
    EXPECT_NE(health.find("\"replay_done\":true"), std::string::npos);
    const std::string replayed =
        std::to_string(counter("tydi.service.replay.replayed"));
    EXPECT_NE(health.find("\"replayed\":" + replayed), std::string::npos);
    EXPECT_NE(health.find("\"journal_error\":\"\""), std::string::npos);
    const std::string stats = svc.handle_line("STATS").payload();
    EXPECT_NE(stats.find("journal_enabled 1"), std::string::npos);
    EXPECT_NE(stats.find("replayed " + replayed + "\n"), std::string::npos);
    svc.drain();
  }
  ::unlink(journal_path.c_str());
}

TEST(ServiceWarmRestart, CorruptJournalIsALoggedColdStart) {
  const std::string journal_path = temp_path("svc_corrupt.jnl");
  write_file(journal_path, "TYDJRNL1 then pure garbage follows here");

  service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;
  service::CompileService svc(config);
  // Boot succeeded; the corruption is reported, not fatal.
  ASSERT_NE(svc.journal(), nullptr);
  EXPECT_TRUE(svc.journal()->recovered_corrupt());
  const std::string health = svc.handle_line("HEALTH").payload();
  EXPECT_NE(health.find("corrupt-data"), std::string::npos) << health;
  // And the daemon still serves compiles + journals new keys.
  service::Response r = svc.handle_line("TPCH 6 vhdl");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(svc.journal()->live_keys(), 1u);
  svc.drain();
  ::unlink(journal_path.c_str());
}

TEST(ServiceWarmRestart, StaleFileStampsAreSkippedOnReplay) {
  const std::string journal_path = temp_path("svc_stale.jnl");
  ::unlink(journal_path.c_str());
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const std::string fletcher_path = temp_path("fletcher.td");
  const std::string query_path = temp_path("q6.td");
  write_file(fletcher_path, std::string(tpch::fletcher_source()));
  write_file(query_path, std::string(q->source));
  const std::string file_line = "FILE " + fletcher_path + "," + query_path +
                                " " + q->top_impl + " vhdl";

  service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;
  {
    service::CompileService svc(config);
    service::Response r = svc.handle_line(file_line);
    ASSERT_TRUE(r.ok()) << r.payload();
    svc.drain();
  }
  // Edit one stamped source: the journaled key must not replay.
  write_file(query_path, "// edited\n" + std::string(q->source));
  {
    service::CompileService svc(config);
    ASSERT_NE(svc.journal(), nullptr);
    EXPECT_EQ(svc.journal()->recovered_records(), 1u);
    const ReplayDeltas replay;
    svc.start_replay();
    svc.wait_replay();
    EXPECT_EQ(replay.replayed(), 0u);
    EXPECT_EQ(replay.skipped_stale(), 1u);
    svc.drain();
  }
  ::unlink(journal_path.c_str());
  ::unlink(fletcher_path.c_str());
  ::unlink(query_path.c_str());
}

TEST(ServiceWarmRestart, JournalWithFnvStampsReplaysNothingAndBoots) {
  // A journal written while the content stamp was FNV-1a 64: after the
  // upgrade its stamps mismatch the files, so the first boot is cold once.
  const std::string journal_path = temp_path("svc_fnv.jnl");
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const std::string fletcher_path = temp_path("fnv_fletcher.td");
  const std::string query_path = temp_path("fnv_q6.td");
  write_file(fletcher_path, std::string(tpch::fletcher_source()));
  write_file(query_path, std::string(q->source));
  const std::string paths = fletcher_path + "," + query_path;
  const JournalEntry old_entry{
      "FILE " + paths + " " + q->top_impl + " vhdl",
      {SourceStampRecord{fletcher_path,
                         support::fnv1a64(tpch::fletcher_source())},
       SourceStampRecord{query_path, support::fnv1a64(q->source)}}};
  build_journal(journal_path, {old_entry.serialize()});

  service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;
  service::CompileService svc(config);
  ASSERT_NE(svc.journal(), nullptr);
  EXPECT_FALSE(svc.journal()->recovered_corrupt());
  EXPECT_EQ(svc.journal()->recovered_records(), 1u);
  const ReplayDeltas replay;
  svc.start_replay();
  svc.wait_replay();
  EXPECT_EQ(replay.replayed(), 0u);
  EXPECT_EQ(replay.skipped_stale(), 1u);
  EXPECT_EQ(replay.failed(), 0u);
  // The daemon serves the same key cold.
  service::Response r =
      svc.handle_line("FILE " + paths + " " + q->top_impl + " vhdl");
  EXPECT_TRUE(r.ok()) << r.payload();
  svc.drain();
  ::unlink(journal_path.c_str());
  ::unlink(fletcher_path.c_str());
  ::unlink(query_path.c_str());
}

// Replay runs the live set: a journal holding thousands of versions of one
// FILE key (an edit loop's history) replays that key once, and a key
// journaled before the history keeps its result-cache sighting.
TEST(ServiceWarmRestart, ReplayRunsTheLiveSetNotTheHistory) {
  const std::string journal_path = temp_path("svc_history.jnl");
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const std::string fletcher_path = temp_path("history_fletcher.td");
  const std::string query_path = temp_path("history_q6.td");
  write_file(fletcher_path, std::string(tpch::fletcher_source()));
  write_file(query_path, std::string(q->source));
  const std::string file_line = "FILE " + fletcher_path + "," + query_path +
                                " " + q->top_impl + " vhdl";
  const std::uint64_t fletcher_hash =
      elab::source_hash(tpch::fletcher_source());
  const std::uint64_t query_hash = elab::source_hash(q->source);

  // More superseded versions than the result cache remembers sightings.
  const std::uint64_t versions = service::ResultCache::kMaxSighted + 1000;
  std::vector<std::string> payloads{JournalEntry{"TPCH 3 ir", {}}.serialize()};
  for (std::uint64_t v = 1; v <= versions; ++v) {
    // Every version but the newest has a stamp the file no longer matches.
    const std::uint64_t hash = v == versions ? query_hash : query_hash ^ v;
    payloads.push_back(
        JournalEntry{file_line,
                     {SourceStampRecord{fletcher_path, fletcher_hash},
                      SourceStampRecord{query_path, hash}}}
            .serialize());
  }
  ASSERT_TRUE(support::write_snapshot_atomic(journal_path, payloads).is_ok());

  service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;
  service::CompileService svc(config);
  ASSERT_NE(svc.journal(), nullptr);
  EXPECT_EQ(svc.journal()->recovered_records(), versions + 1);
  EXPECT_EQ(svc.journal()->recovered_entries().size(), 2u);

  const ReplayDeltas replay;
  svc.start_replay();
  svc.wait_replay();
  EXPECT_EQ(replay.replayed(), 2u);
  EXPECT_EQ(replay.skipped_stale(), 0u);
  EXPECT_EQ(replay.failed(), 0u);

  // Both live keys were admitted by replay: their first live requests hit.
  obs::Counter& result_hits = obs::MetricsRegistry::global().counter(
      "tydi.service.result_cache.hits");
  const std::uint64_t hits0 = result_hits.value();
  service::Response r = svc.handle_line(file_line);
  ASSERT_TRUE(r.ok()) << r.payload();
  ASSERT_TRUE(svc.handle_line("TPCH 3 ir").ok());
  EXPECT_EQ(result_hits.value() - hits0, 2u);
  svc.drain();
  ::unlink(journal_path.c_str());
  ::unlink(fletcher_path.c_str());
  ::unlink(query_path.c_str());
}

TEST(ServiceWarmRestart, ServiceLevelFaultInjectionSurvivesCompactionCrash) {
  const std::string journal_path = temp_path("svc_faults.jnl");
  // A journal past the growth floor (a long history of one key's edits), so
  // the first new key the daemon journals triggers a compaction.
  const std::string source = temp_path(std::string(1000, 'h') + ".td");
  std::vector<std::string> history;
  std::uint64_t history_bytes = 0;
  while (history_bytes <= CompileJournal::kCompactFloorBytes) {
    history.push_back(
        JournalEntry{"FILE " + source + " top_i vhdl",
                     {SourceStampRecord{source, history.size()}}}
            .serialize());
    history_bytes += support::kRecordHeaderBytes + history.back().size();
  }
  ASSERT_TRUE(support::write_snapshot_atomic(journal_path, history).is_ok());

  service::ServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_path;
  // Boot with a crash-mid-snapshot plan: the growth compaction fails, the
  // journal file survives, and the daemon keeps serving and journaling.
  config.journal_faults.crash_mid_snapshot = true;
  {
    service::CompileService svc(config);
    ASSERT_NE(svc.journal(), nullptr);
    EXPECT_EQ(svc.journal()->recovered_records(), history.size());
    const std::uint64_t compactions0 = counter("tydi.journal.compactions");
    const std::uint64_t failures0 =
        counter("tydi.journal.compaction_failures");
    EXPECT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
    EXPECT_EQ(counter("tydi.journal.compaction_failures") - failures0, 1u);
    EXPECT_EQ(counter("tydi.journal.compactions") - compactions0, 0u);
    const std::string error = svc.journal()->last_error();
    EXPECT_NE(error.find(support::to_string(StatusCode::kIoError)),
              std::string::npos)
        << error;
    const std::string health = svc.handle_line("HEALTH").payload();
    EXPECT_NE(health.find("io-error"), std::string::npos) << health;
    EXPECT_TRUE(svc.handle_line("TPCH 6 ir").ok());
    EXPECT_EQ(svc.journal()->live_keys(), 3u);
  }
  // The journal on disk still recovers the pre-crash records and both
  // appends made after the failed compaction.
  config.journal_faults = IoFaultPlan{};
  service::CompileService svc(config);
  ASSERT_NE(svc.journal(), nullptr);
  EXPECT_EQ(svc.journal()->recovered_records(), history.size() + 2);
  EXPECT_EQ(svc.journal()->live_keys(), 3u);
  EXPECT_FALSE(svc.journal()->recovered_corrupt());
  svc.drain();
  ::unlink(journal_path.c_str());
}

}  // namespace
}  // namespace tydi
