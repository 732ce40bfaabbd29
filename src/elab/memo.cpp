#include "src/elab/memo.hpp"

#include <algorithm>
#include <bit>
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

// XXH64 with seed 0, so any XXH64 implementation reproduces a stamp. Four
// independent lanes take 32 bytes per step: the multiplies of one step do
// not wait on each other, where FNV-1a waits on one multiply per byte.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// Little-endian loads whatever the host byte order; compilers merge the
/// shifts into one plain load on little-endian hosts.
std::uint64_t load_le64(const unsigned char* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
         std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

std::uint64_t load_le32(const unsigned char* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t source_hash(std::string_view text) {
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const unsigned char* const end = p + text.size();
  std::uint64_t h = 0;
  if (text.size() >= 32) {
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load_le64(p));
      v2 = lane_round(v2, load_le64(p + 8));
      v3 = lane_round(v3, load_le64(p + 16));
      v4 = lane_round(v4, load_le64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_lane(h, v1);
    h = merge_lane(h, v2);
    h = merge_lane(h, v3);
    h = merge_lane(h, v4);
  } else {
    h = kPrime5;
  }
  h += text.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ lane_round(0, load_le64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  // Final avalanche: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

namespace {

/// Below this many slots a whole-map sweep is not worth running.
constexpr std::size_t kMinSweepSlots = 64;

template <typename Entry>
using VersionTable =
    std::unordered_map<Symbol, std::vector<std::weak_ptr<const Entry>>>;

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

/// The live version of `shape` whose stamps all match the current source
/// hashes, or nullptr. At most one such version's *own* stamp can match (a
/// file id has one current hash), so the scan is deterministic.
template <typename Entry>
std::shared_ptr<const Entry> current_version(
    const std::vector<std::weak_ptr<const Entry>>& versions,
    std::uint64_t shape, const SourceHashes& hashes) {
  for (const auto& slot : versions) {
    std::shared_ptr<const Entry> entry = slot.lock();
    if (entry != nullptr && entry_current(*entry, shape, hashes)) {
      return entry;
    }
  }
  return nullptr;
}

/// Counted lookup shared by find_streamlet and find_impl.
template <typename Entry>
std::shared_ptr<const Entry> counted_find(const VersionTable<Entry>& table,
                                          MemoRef ref,
                                          const SourceHashes& hashes,
                                          obs::Counter& hits) {
  auto it = table.find(ref.sym);
  if (it == table.end()) {
    ++MemoCounters::get().misses;
    return nullptr;
  }
  std::shared_ptr<const Entry> entry =
      current_version(it->second, ref.shape, hashes);
  ++(entry != nullptr ? hits : MemoCounters::get().stale);
  return entry;
}

template <typename Entry>
std::shared_ptr<const Entry> valid_version(const VersionTable<Entry>& table,
                                           MemoRef ref,
                                           const SourceHashes& hashes) {
  auto it = table.find(ref.sym);
  return it == table.end() ? nullptr
                           : current_version(it->second, ref.shape, hashes);
}

/// Same version identity as the lookup: stamp and payload shape.
template <typename Entry>
bool same_version(const Entry& a, const Entry& b) {
  return a.stamp.file == b.stamp.file && a.stamp.hash == b.stamp.hash &&
         a.payload->arg_shape == b.payload->arg_shape;
}

template <typename Table>
std::size_t live_names(const Table& table) {
  std::size_t n = 0;
  for (const auto& [sym, versions] : table) {
    n += std::any_of(versions.begin(), versions.end(),
                     [](const auto& slot) { return !slot.expired(); })
             ? 1
             : 0;
  }
  return n;
}

template <typename Table>
std::size_t live_versions(const Table& table) {
  std::size_t n = 0;
  for (const auto& [sym, versions] : table) {
    n += static_cast<std::size_t>(
        std::count_if(versions.begin(), versions.end(),
                      [](const auto& slot) { return !slot.expired(); }));
  }
  return n;
}

/// Erases expired slots and emptied names; returns the slots left.
template <typename Table>
std::size_t prune(Table& table) {
  std::size_t left = 0;
  for (auto it = table.begin(); it != table.end();) {
    std::erase_if(it->second, [](const auto& slot) { return slot.expired(); });
    left += it->second.size();
    it = it->second.empty() ? table.erase(it) : std::next(it);
  }
  return left;
}

}  // namespace

std::shared_ptr<const TemplateMemo::StreamletEntry>
TemplateMemo::find_streamlet(MemoRef ref, const SourceHashes& hashes) {
  std::shared_lock lock(mu_);
  return counted_find(streamlets_, ref, hashes,
                      MemoCounters::get().streamlet_hits);
}

std::shared_ptr<const TemplateMemo::ImplEntry> TemplateMemo::find_impl(
    MemoRef ref, const SourceHashes& hashes) {
  std::shared_lock lock(mu_);
  return counted_find(impls_, ref, hashes, MemoCounters::get().impl_hits);
}

std::shared_ptr<const TemplateMemo::StreamletEntry>
TemplateMemo::valid_streamlet(MemoRef ref, const SourceHashes& hashes) const {
  std::shared_lock lock(mu_);
  return valid_version(streamlets_, ref, hashes);
}

std::shared_ptr<const TemplateMemo::ImplEntry> TemplateMemo::valid_impl(
    MemoRef ref, const SourceHashes& hashes) const {
  std::shared_lock lock(mu_);
  return valid_version(impls_, ref, hashes);
}

template <typename Entry>
std::shared_ptr<const Entry> TemplateMemo::publish(
    std::unordered_map<Symbol, Versions<Entry>>& table, Symbol sym,
    std::shared_ptr<const Entry> entry) {
  std::unique_lock lock(mu_);
  Versions<Entry>& versions = table[sym];
  slots_ -= versions.size();
  std::erase_if(versions, [](const auto& slot) { return slot.expired(); });
  bool placed = false;
  for (auto& slot : versions) {
    std::shared_ptr<const Entry> existing = slot.lock();
    if (existing != nullptr && same_version(*existing, *entry)) {
      // Replace the version in place; readers and footprints holding the
      // old snapshot keep it alive until they are done with it.
      slot = entry;
      placed = true;
      break;
    }
  }
  if (!placed) versions.push_back(entry);
  slots_ += versions.size();
  if (slots_ >= sweep_at_) sweep_locked();
  return entry;
}

std::shared_ptr<const TemplateMemo::StreamletEntry>
TemplateMemo::put_streamlet(Symbol sym, StreamletEntry entry) {
  return publish(streamlets_, sym,
                 std::make_shared<const StreamletEntry>(std::move(entry)));
}

std::shared_ptr<const TemplateMemo::ImplEntry> TemplateMemo::put_impl(
    Symbol sym, ImplEntry entry) {
  return publish(impls_, sym,
                 std::make_shared<const ImplEntry>(std::move(entry)));
}

void TemplateMemo::sweep_locked() {
  slots_ = prune(streamlets_) + prune(impls_);
  sweep_at_ = std::max(kMinSweepSlots, 2 * slots_);
}

void TemplateMemo::sweep() {
  std::unique_lock lock(mu_);
  sweep_locked();
}

void TemplateMemo::invalidate() {
  std::unique_lock lock(mu_);
  streamlets_.clear();
  impls_.clear();
  slots_ = 0;
  sweep_at_ = 0;
}

std::size_t TemplateMemo::impl_count() const {
  std::shared_lock lock(mu_);
  return live_names(impls_);
}

std::size_t TemplateMemo::version_count() const {
  std::shared_lock lock(mu_);
  return live_versions(streamlets_) + live_versions(impls_);
}

std::shared_ptr<const Streamlet> MemoHook::find_streamlet(MemoRef ref) const {
  auto entry = memo->find_streamlet(ref, *hashes);
  if (entry == nullptr) return nullptr;
  footprint->streamlets.push_back(entry);
  return entry->payload;
}

std::shared_ptr<const TemplateMemo::ImplEntry> MemoHook::find_impl(
    MemoRef ref) const {
  auto entry = memo->find_impl(ref, *hashes);
  if (entry != nullptr) footprint->impls.push_back(entry);
  return entry;
}

std::shared_ptr<const Streamlet> MemoHook::valid_streamlet(MemoRef ref) const {
  auto entry = memo->valid_streamlet(ref, *hashes);
  if (entry == nullptr) return nullptr;
  footprint->streamlets.push_back(entry);
  return entry->payload;
}

std::shared_ptr<const TemplateMemo::ImplEntry> MemoHook::valid_impl(
    MemoRef ref) const {
  auto entry = memo->valid_impl(ref, *hashes);
  if (entry != nullptr) footprint->impls.push_back(entry);
  return entry;
}

void MemoHook::put_streamlet(Symbol sym,
                             TemplateMemo::StreamletEntry entry) const {
  footprint->streamlets.push_back(memo->put_streamlet(sym, std::move(entry)));
}

void MemoHook::put_impl(Symbol sym, TemplateMemo::ImplEntry entry) const {
  footprint->impls.push_back(memo->put_impl(sym, std::move(entry)));
}

}  // namespace tydi::elab
