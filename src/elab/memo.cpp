#include "src/elab/memo.hpp"

#include <mutex>

#include "src/obs/metrics.hpp"

namespace tydi::elab {

namespace {

/// The tydi.memo.* lookup counters: every memo in the process counts into
/// them, so METRICS and HEALTH report cross-compile cache behaviour without
/// walking sessions.
struct MemoCounters {
  obs::Counter& streamlet_hits;
  obs::Counter& impl_hits;
  obs::Counter& misses;
  obs::Counter& stale;

  static MemoCounters& get() {
    static MemoCounters* c = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new MemoCounters{reg.counter("tydi.memo.streamlet_hits"),
                              reg.counter("tydi.memo.impl_hits"),
                              reg.counter("tydi.memo.misses"),
                              reg.counter("tydi.memo.stale")};
    }();
    return *c;
  }
};

}  // namespace

std::uint64_t source_hash(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// True when the entry has the requested shape and its own stamp and every
/// dependency stamp match the current compile's sources.
template <typename Entry>
bool entry_current(const Entry& entry, std::uint64_t shape,
                   const SourceHashes& hashes) {
  if (entry.payload->arg_shape != shape) return false;
  if (!entry.stamp.current(hashes)) return false;
  for (const SourceStamp& dep : entry.dep_sources) {
    if (!dep.current(hashes)) return false;
  }
  return true;
}

/// The version of `shape` whose stamps all match the current source hashes,
/// or nullptr. At most one such version's *own* stamp can match (a file id
/// has one current hash), so the scan is deterministic.
const TemplateMemo::ImplEntry* current_impl_version(
    const std::vector<std::shared_ptr<const TemplateMemo::ImplEntry>>& versions,
    std::uint64_t shape, const SourceHashes& hashes) {
  for (const auto& entry : versions) {
    if (entry_current(*entry, shape, hashes)) return entry.get();
  }
  return nullptr;
}

/// Same version identity as the lookup: stamp and payload shape.
template <typename Entry>
bool same_version(const Entry& a, const Entry& b) {
  return a.stamp.file == b.stamp.file && a.stamp.hash == b.stamp.hash &&
         a.payload->arg_shape == b.payload->arg_shape;
}

}  // namespace

std::shared_ptr<const Streamlet> TemplateMemo::find_streamlet(
    MemoRef ref, const SourceHashes& hashes) {
  std::shared_lock lock(mu_);
  auto it = streamlets_.find(ref.sym);
  if (it == streamlets_.end()) {
    ++MemoCounters::get().misses;
    return nullptr;
  }
  for (const StreamletEntry& entry : it->second) {
    if (entry_current(entry, ref.shape, hashes)) {
      ++MemoCounters::get().streamlet_hits;
      return entry.payload;
    }
  }
  ++MemoCounters::get().stale;
  return nullptr;
}

std::shared_ptr<const TemplateMemo::ImplEntry> TemplateMemo::find_impl(
    MemoRef ref, const SourceHashes& hashes) {
  std::shared_lock lock(mu_);
  auto it = impls_.find(ref.sym);
  if (it == impls_.end()) {
    ++MemoCounters::get().misses;
    return nullptr;
  }
  for (const auto& entry : it->second) {
    if (entry_current(*entry, ref.shape, hashes)) {
      ++MemoCounters::get().impl_hits;
      return entry;
    }
  }
  ++MemoCounters::get().stale;
  return nullptr;
}

std::shared_ptr<const Streamlet> TemplateMemo::valid_streamlet(
    MemoRef ref, const SourceHashes& hashes) const {
  std::shared_lock lock(mu_);
  auto it = streamlets_.find(ref.sym);
  if (it == streamlets_.end()) return nullptr;
  for (const StreamletEntry& entry : it->second) {
    if (entry_current(entry, ref.shape, hashes)) return entry.payload;
  }
  return nullptr;
}

std::shared_ptr<const Impl> TemplateMemo::valid_impl(
    MemoRef ref, const SourceHashes& hashes) const {
  std::shared_lock lock(mu_);
  auto it = impls_.find(ref.sym);
  if (it == impls_.end()) return nullptr;
  const ImplEntry* entry = current_impl_version(it->second, ref.shape, hashes);
  return entry != nullptr ? entry->payload : nullptr;
}

void TemplateMemo::put_streamlet(Symbol sym,
                                 std::shared_ptr<const Streamlet> payload,
                                 SourceStamp stamp,
                                 std::vector<SourceStamp> dep_sources) {
  StreamletEntry entry{std::move(payload), stamp, std::move(dep_sources)};
  std::unique_lock lock(mu_);
  std::vector<StreamletEntry>& versions = streamlets_[sym];
  for (StreamletEntry& existing : versions) {
    if (same_version(existing, entry)) {
      existing = std::move(entry);
      return;
    }
  }
  versions.push_back(std::move(entry));
}

void TemplateMemo::put_impl(Symbol sym, ImplEntry entry, ProgramRef pin) {
  auto shared = std::make_shared<const ImplEntry>(std::move(entry));
  std::unique_lock lock(mu_);
  std::vector<std::shared_ptr<const ImplEntry>>& versions = impls_[sym];
  bool placed = false;
  for (auto& existing : versions) {
    if (same_version(*existing, *shared)) {
      // Replace the version in place; concurrent readers holding the old
      // snapshot keep it alive until they are done with it.
      existing = shared;
      placed = true;
      break;
    }
  }
  if (!placed) versions.push_back(std::move(shared));
  if (pin != nullptr && (pinned_.empty() || pinned_.back() != pin)) {
    pinned_.push_back(std::move(pin));
  }
}

void TemplateMemo::invalidate() {
  std::unique_lock lock(mu_);
  streamlets_.clear();
  impls_.clear();
  pinned_.clear();
}

}  // namespace tydi::elab
