#include "src/service/warmup.hpp"

#include <charconv>
#include <chrono>
#include <thread>

#include "src/elab/memo.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/source.hpp"

namespace tydi::service::warmup {

using support::Status;
using support::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

struct JournalMetrics {
  obs::Counter& appends;
  obs::Counter& append_failures;
  obs::Counter& compactions;
  obs::Counter& compaction_failures;
  obs::Counter& recovered_records;
  obs::Counter& dropped_bytes;
  obs::Gauge& bytes;
  obs::Gauge& live_keys;

  static JournalMetrics& get() {
    static auto& reg = obs::MetricsRegistry::global();
    static JournalMetrics m{reg.counter("tydi.journal.appends"),
                            reg.counter("tydi.journal.append_failures"),
                            reg.counter("tydi.journal.compactions"),
                            reg.counter("tydi.journal.compaction_failures"),
                            reg.counter("tydi.journal.recovered_records"),
                            reg.counter("tydi.journal.dropped_bytes"),
                            reg.gauge("tydi.journal.bytes"),
                            reg.gauge("tydi.journal.live_keys")};
    return m;
  }
};

}  // namespace

std::string JournalEntry::serialize() const {
  std::string out = request;
  out += '\n';
  for (const SourceStampRecord& stamp : stamps) {
    out += std::to_string(stamp.hash);
    out += ' ';
    out += stamp.path;
    out += '\n';
  }
  return out;
}

bool JournalEntry::parse(std::string_view payload, JournalEntry& out) {
  out = JournalEntry{};
  std::size_t pos = 0;
  bool first = true;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (first) {
      if (line.empty()) return false;
      out.request = std::string(line);
      first = false;
      continue;
    }
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos || space + 1 >= line.size()) {
      return false;
    }
    SourceStampRecord stamp;
    const std::string_view hash_text = line.substr(0, space);
    auto [ptr, ec] = std::from_chars(
        hash_text.data(), hash_text.data() + hash_text.size(), stamp.hash);
    if (ec != std::errc{} || ptr != hash_text.data() + hash_text.size()) {
      return false;
    }
    stamp.path = std::string(line.substr(space + 1));
    out.stamps.push_back(std::move(stamp));
  }
  return !first;
}

bool entry_is_current(const JournalEntry& entry) {
  std::string text;
  for (const SourceStampRecord& stamp : entry.stamps) {
    // Gone, unreadable or not a regular file: stale, not an error.
    if (!support::read_file(stamp.path, text).is_ok()) return false;
    if (elab::source_hash(text) != stamp.hash) return false;
  }
  return true;
}

Status CompileJournal::open(const std::string& path) {
  std::lock_guard lock(mu_);
  path_ = path;

  support::RecoveredJournal recovered;
  Status status = support::recover_journal(path, recovered);
  if (!status.is_ok()) {
    record_error(status);
    return status;
  }
  recovery_dropped_ = recovered.dropped_bytes();
  recovered_corrupt_ = recovered.dropped_tail();
  if (recovered_corrupt_) {
    // Repair on disk what recovery decided: keep the longest valid prefix,
    // drop the torn/corrupt tail, so appends land on a valid journal.
    status = support::truncate_journal(path, recovered.valid_bytes);
    if (!status.is_ok()) {
      record_error(status);
      return status;
    }
  }

  live_.clear();
  index_.clear();
  recovered_records_ = 0;
  for (const std::string& payload : recovered.records) {
    JournalEntry entry;
    if (!JournalEntry::parse(payload, entry)) continue;  // future format?
    ++recovered_records_;
    // Seed the live set: later records for the same key win (they carry
    // the newest stamps).
    auto [it, inserted] = index_.try_emplace(entry.request, live_.size());
    if (inserted) {
      live_.push_back(std::move(entry));
    } else {
      live_[it->second] = std::move(entry);
    }
  }
  // Replay runs the live set, not the history: one entry per key.
  recovered_ = live_;
  compact_base_ = 0;  // a file past the floor compacts on its next append

  status = writer_.open(path);
  if (!status.is_ok()) {
    record_error(status);
    return status;
  }
  writer_.set_fault_plan(fault_plan_);

  auto& metrics = JournalMetrics::get();
  metrics.recovered_records += recovered_records_;
  metrics.dropped_bytes += recovery_dropped_;
  metrics.bytes.set(static_cast<double>(writer_.bytes()));
  metrics.live_keys.set(static_cast<double>(live_.size()));
  return Status::ok();
}

void CompileJournal::record(const JournalEntry& entry) {
  std::lock_guard lock(mu_);
  const auto it = index_.find(entry.request);
  if (it != index_.end() && live_[it->second].stamps == entry.stamps) {
    return;  // already durable with identical stamps
  }
  if (it != index_.end()) {
    live_[it->second] = entry;  // stamps changed (source edited): re-journal
  } else {
    index_.emplace(entry.request, live_.size());
    live_.push_back(entry);
  }
  auto& metrics = JournalMetrics::get();
  if (!writer_.is_open()) return;  // journaling disabled by an earlier error
  const Status status = writer_.append(entry.serialize());
  if (!status.is_ok()) {
    ++metrics.append_failures;
    record_error(status);
    return;
  }
  ++metrics.appends;
  const std::uint64_t bytes = writer_.bytes();
  if (bytes > kCompactFloorBytes && bytes > kCompactGrowth * compact_base_ &&
      !compact_locked().is_ok()) {
    compact_base_ = bytes;  // retry once the file has grown again
  }
  metrics.bytes.set(static_cast<double>(writer_.bytes()));
  metrics.live_keys.set(static_cast<double>(live_.size()));
}

Status CompileJournal::compact() {
  std::lock_guard lock(mu_);
  return compact_locked();
}

Status CompileJournal::compact_locked() {
  support::IoFaultInjector injector(fault_plan_);
  // The writer's fd must not straddle the rename: close, snapshot, reopen
  // (on failure, reopen the untouched previous journal).
  writer_.close();
  Status status = support::write_snapshot_atomic(
      path_, live_payloads_locked(),
      fault_plan_.enabled() ? &injector : nullptr);
  const Status reopen = writer_.open(path_);
  writer_.set_fault_plan(fault_plan_);
  auto& metrics = JournalMetrics::get();
  if (status.is_ok()) status = reopen;
  if (!status.is_ok()) {
    ++metrics.compaction_failures;
    record_error(status);
    return status;
  }
  last_compaction_epoch_ms_ = now_ms();
  compact_base_ = writer_.bytes();
  ++metrics.compactions;
  metrics.bytes.set(static_cast<double>(writer_.bytes()));
  metrics.live_keys.set(static_cast<double>(live_.size()));
  return Status::ok();
}

std::vector<std::string> CompileJournal::live_payloads_locked() const {
  std::vector<std::string> payloads;
  payloads.reserve(live_.size());
  for (const JournalEntry& entry : live_) {
    payloads.push_back(entry.serialize());
  }
  return payloads;
}

std::vector<JournalEntry> CompileJournal::recovered_entries() const {
  std::lock_guard lock(mu_);
  return recovered_;
}

std::uint64_t CompileJournal::journal_bytes() const {
  std::lock_guard lock(mu_);
  return writer_.bytes();
}

std::size_t CompileJournal::live_keys() const {
  std::lock_guard lock(mu_);
  return live_.size();
}

double CompileJournal::last_compaction_ms() const {
  std::lock_guard lock(mu_);
  if (last_compaction_epoch_ms_ < 0.0) return -1.0;
  return now_ms() - last_compaction_epoch_ms_;
}

std::uint64_t CompileJournal::recovered_records() const {
  std::lock_guard lock(mu_);
  return recovered_records_;
}

std::uint64_t CompileJournal::recovery_dropped_bytes() const {
  std::lock_guard lock(mu_);
  return recovery_dropped_;
}

bool CompileJournal::recovered_corrupt() const {
  std::lock_guard lock(mu_);
  return recovered_corrupt_;
}

std::string CompileJournal::last_error() const {
  std::lock_guard lock(mu_);
  return last_error_;
}

void CompileJournal::set_fault_plan(const support::IoFaultPlan& plan) {
  std::lock_guard lock(mu_);
  fault_plan_ = plan;
  writer_.set_fault_plan(plan);
}

void CompileJournal::record_error(const Status& status) {
  last_error_ = status.render();
}

double replay_entries(
    const std::vector<JournalEntry>& entries, double budget_ms,
    const std::function<Status(const std::string& line)>& submit,
    const std::function<bool()>& stop) {
  static auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& replayed = reg.counter("tydi.service.replay.replayed");
  static obs::Counter& skipped_stale =
      reg.counter("tydi.service.replay.skipped_stale");
  static obs::Counter& shed = reg.counter("tydi.service.replay.shed");
  static obs::Counter& failed = reg.counter("tydi.service.replay.failed");
  static obs::Counter& budget_expired =
      reg.counter("tydi.service.replay.budget_expired");
  const Clock::time_point start = Clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  std::size_t attempted = 0;
  for (const JournalEntry& entry : entries) {
    if ((stop && stop()) ||
        (budget_ms > 0.0 && elapsed_ms() >= budget_ms)) {
      budget_expired += entries.size() - attempted;
      break;
    }
    ++attempted;
    if (!entry_is_current(entry)) {
      ++skipped_stale;
      continue;
    }
    const Status status = submit(entry.request);
    if (status.is_ok()) {
      ++replayed;
    } else if (status.code() == StatusCode::kUnavailable) {
      ++shed;  // live traffic won; rewarming yields
    } else {
      ++failed;
    }
  }
  return elapsed_ms();
}

}  // namespace tydi::service::warmup
