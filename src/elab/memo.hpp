// Process-wide template-instantiation memo (the "cross-compile template
// cache" of the compile hot-path overhaul).
//
// The elaborator's per-compile cache is the Design itself: a repeated
// instantiation inside one compile is an integer-keyed lookup, but every new
// `driver::compile` starts from an empty Design and re-monomorphises the
// whole standard library. The paper's workload — many structurally similar
// TPC-H query designs against one shared stdlib — makes that the dominant
// frontend cost, so a `driver::CompileSession` owns one TemplateMemo and
// threads it through every compile of the session.
//
// Keying and validity:
//  - Entries are keyed by the mangled name's interned Symbol. The mangled
//    name encodes the declaration name plus the *evaluated* template
//    arguments, i.e. the `(decl Symbol, arg Symbols)` identity of an
//    instantiation. A named type argument is spelled by its name only
//    (`t_q6_mul`), so the name alone cannot tell `Bit(100)` from `Bit(64)`
//    after an edit: every entry also carries its payload's `arg_shape`, a
//    fingerprint of the full structure behind such names (and behind impl
//    arguments), and a lookup only matches the version of the same shape.
//    An edit that leaves every type unchanged keeps the shape and the hit.
//  - Each entry carries a SourceStamp: the FileId and content hash of the
//    file that declared it. A lookup only hits when the same file id still
//    holds byte-identical text in the current compile, so editing a source
//    invalidates naturally. Entries are *versioned* per (stamp, shape): two
//    batch jobs declaring the same name from different sources (the Q1 /
//    Q1-without-sugaring pair shares decl names across different query
//    files) each keep their own version instead of evicting each other —
//    alternating jobs stay warm.
//  - An impl entry also records, in insertion order, every streamlet/impl
//    the original elaboration added transitively (its "window"). A hit
//    replays that window into the current Design, reproducing the cold
//    compile's insertion order byte for byte; if any window member is stale
//    the hit is rejected and the impl re-elaborates normally (re-hitting
//    per-child entries that are still valid).
//
//  - Cross-file resolution is covered by *dependency stamps*: while an
//    entry elaborates, the elaborator records the defining file of every
//    global named type it resolves and every global constant it reads
//    (including through the per-compile type cache and the scope-lookup
//    observer), transitively merged into enclosing entries. A lookup only
//    hits when the entry's own stamp *and* every dependency stamp match the
//    current compile — editing a type/const in file B invalidates entries
//    declared in untouched file A that resolved through it.
//
// Retention — what stays cached. The memo does not own its versions: the
// version vectors hold weak_ptrs, and every compile collects strong
// references to the versions it hits, replays or inserts (a MemoFootprint,
// filled through MemoHook). A driver::CompileSession keeps the footprints of
// the latest compiles of each compile identity (top + ordered source names;
// the latest successful compile of each of its last K = 2 source versions,
// see src/driver/compiler.hpp), so a version stays alive exactly while one
// of those compiles used it. An edit followed by an undo, or two variants
// that alternate, therefore stay warm, while the versions only an older
// edit needed die with its footprint. A lookup upgrades a slot with
// `lock()`; an expired slot is pruned when its symbol is next published,
// and a whole-map sweep runs only once the slot count has doubled since the
// last sweep (amortised O(1) per publish). Eviction only costs hits, never
// output: a replay window whose member has expired is rejected by
// valid_impl/valid_streamlet and the impl re-elaborates.
//
// An impl payload with a sim block points into the AST it was elaborated
// from; its ImplEntry pins that AST, and a Design that replays the entry
// pins it too (Design::pin), so a design simulated after its compile keeps
// the AST alive after the footprint that held the entry is gone.
//
// `invalidate()` remains the wholesale escape hatch.
//
// Concurrency: the memo is shared by every concurrent compile of a session
// (parallel `compile_batch` workers, `tydid` request handlers). A
// shared_mutex guards the tables — lookups take the shared side, publishes
// and invalidation the exclusive side — and lookups count into the
// process-wide registry (tydi.memo.*). Versions are handed out as
// `shared_ptr<const ...>` snapshots, so a reader replaying a window is
// never invalidated by a concurrent upsert or `invalidate()`: the payloads
// it captured stay alive until it drops them. Two compiles racing to publish
// the same entry both upsert; last writer wins and both payloads are
// equivalent (same source bytes), so warm outputs are byte-identical either
// way.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/elab/design.hpp"

namespace tydi::elab {

/// 64-bit content hash of a source text (XXH64, seed 0; 8 bytes per load) —
/// the per-file validity stamp of the memo, the parse cache, result-cache
/// keys and journal records: it stamps the exact bytes that compiled.
/// Journals persist it, so changing it turns every journaled key stale.
[[nodiscard]] std::uint64_t source_hash(std::string_view text);

/// Current content hashes of a compile's sources, indexed by FileId value
/// (slot 0 — the "unknown file" id — is unused).
using SourceHashes = std::vector<std::uint64_t>;

/// Where a memoized entity was declared, pinned to the file content that was
/// current when it was elaborated.
struct SourceStamp {
  support::FileId file;
  std::uint64_t hash = 0;

  [[nodiscard]] bool current(const SourceHashes& hashes) const {
    return file.valid() && file.value < hashes.size() &&
           hashes[file.value] == hash;
  }
};

/// One memoized entity as a window member: its mangled symbol plus the
/// arg_shape of the payload the window was recorded with.
struct MemoRef {
  Symbol sym = support::kNoSymbol;
  std::uint64_t shape = 0;
};

class TemplateMemo {
 public:
  struct StreamletEntry {
    std::shared_ptr<const Streamlet> payload;  ///< shared, never copied
    SourceStamp stamp;
    std::vector<SourceStamp> dep_sources;  ///< see ImplEntry::dep_sources
  };

  struct ImplEntry {
    /// Shared with every Design that elaborated or replayed this impl —
    /// never value-copied. The sugaring pass installs rewritten impls as
    /// new payloads (Design::replace_impl), so the memo's view stays the
    /// pristine pre-sugar elaboration.
    std::shared_ptr<const Impl> payload;
    SourceStamp stamp;
    /// Defining files of every global type/const this elaboration resolved
    /// (transitively); all must be current for the entry to hit.
    std::vector<SourceStamp> dep_sources;
    /// Streamlets / impls (mangled symbols) the original elaboration
    /// inserted transitively, in Design insertion order; `payload` itself
    /// is not listed (it is always replayed last).
    std::vector<MemoRef> dep_streamlets;
    std::vector<MemoRef> dep_impls;
    /// Entities the elaboration *referenced* that were already in the
    /// design before its window opened (e.g. a shared child elaborated by
    /// an earlier sibling). They are not replayed — a hit requires them to
    /// be present in the current design already, otherwise the impl
    /// re-elaborates so insertion order matches a cold compile.
    std::vector<Symbol> required_streamlets;
    std::vector<Symbol> required_impls;
    /// The AST `payload->sim` points into; null without a sim block.
    std::shared_ptr<const void> sim_ast;
  };

  /// Valid version lookups: nullptr on miss *or* stale stamp / other shape
  /// *or* an expired version. Each lookup counts into
  /// `tydi.memo.{streamlet_hits,impl_hits,misses,stale}` (stale: the entry
  /// exists but no live version matches the current sources and shape).
  /// Versions are returned as shared snapshots that outlive any concurrent
  /// upsert/invalidate; payloads insert into the current Design without
  /// copying.
  [[nodiscard]] std::shared_ptr<const StreamletEntry> find_streamlet(
      MemoRef ref, const SourceHashes& hashes);
  [[nodiscard]] std::shared_ptr<const ImplEntry> find_impl(
      MemoRef ref, const SourceHashes& hashes);

  /// Stamp- and shape-checked reads for window replay (not counted).
  [[nodiscard]] std::shared_ptr<const StreamletEntry> valid_streamlet(
      MemoRef ref, const SourceHashes& hashes) const;
  [[nodiscard]] std::shared_ptr<const ImplEntry> valid_impl(
      MemoRef ref, const SourceHashes& hashes) const;

  /// Inserts or replaces the version of the same stamp and payload shape (a
  /// re-elaboration after a stale lookup replaces) and returns it. The memo
  /// keeps only a weak reference: the caller's footprint must hold the
  /// returned version for it to stay cached.
  [[nodiscard]] std::shared_ptr<const StreamletEntry> put_streamlet(
      Symbol sym, StreamletEntry entry);
  [[nodiscard]] std::shared_ptr<const ImplEntry> put_impl(Symbol sym,
                                                          ImplEntry entry);

  /// Explicit invalidation: drops every version slot.
  void invalidate();
  /// Prunes every expired version slot and every name left without one.
  void sweep();

  /// Distinct impl names with at least one live version.
  [[nodiscard]] std::size_t impl_count() const;
  /// Live versions across streamlets and impls.
  [[nodiscard]] std::size_t version_count() const;

 private:
  template <typename Entry>
  using Versions = std::vector<std::weak_ptr<const Entry>>;

  template <typename Entry>
  std::shared_ptr<const Entry> publish(
      std::unordered_map<Symbol, Versions<Entry>>& table, Symbol sym,
      std::shared_ptr<const Entry> entry);
  void sweep_locked();

  // One version per distinct (source stamp, shape) (at most one can be
  // current for a lookup: a file id has exactly one current hash).
  std::unordered_map<Symbol, Versions<StreamletEntry>> streamlets_;
  std::unordered_map<Symbol, Versions<ImplEntry>> impls_;
  /// Version slots across both tables, expired ones included, and the
  /// count at which the next whole-map sweep runs (twice the live count
  /// the last sweep left).
  std::size_t slots_ = 0;
  std::size_t sweep_at_ = 0;
  /// Guards the members above. Lookups shared, publishes, sweeps and
  /// invalidation exclusive; never held while elaborating.
  mutable std::shared_mutex mu_;
};

/// Strong references to every memo version one compile hit, replayed or
/// inserted: what keeps those versions cached (see TemplateMemo).
struct MemoFootprint {
  std::vector<std::shared_ptr<const TemplateMemo::StreamletEntry>> streamlets;
  std::vector<std::shared_ptr<const TemplateMemo::ImplEntry>> impls;
};

/// The elaborator's optional view of a session memo: all three pointers
/// must be set for memoization to engage (the plain `driver::compile`
/// passes none). Every version the memo hands out or accepts through the
/// hook is recorded in `footprint`.
struct MemoHook {
  TemplateMemo* memo = nullptr;
  const SourceHashes* hashes = nullptr;
  MemoFootprint* footprint = nullptr;

  [[nodiscard]] bool enabled() const {
    return memo != nullptr && hashes != nullptr && footprint != nullptr;
  }

  [[nodiscard]] std::shared_ptr<const Streamlet> find_streamlet(
      MemoRef ref) const;
  [[nodiscard]] std::shared_ptr<const TemplateMemo::ImplEntry> find_impl(
      MemoRef ref) const;
  [[nodiscard]] std::shared_ptr<const Streamlet> valid_streamlet(
      MemoRef ref) const;
  [[nodiscard]] std::shared_ptr<const TemplateMemo::ImplEntry> valid_impl(
      MemoRef ref) const;
  void put_streamlet(Symbol sym, TemplateMemo::StreamletEntry entry) const;
  void put_impl(Symbol sym, TemplateMemo::ImplEntry entry) const;
};

}  // namespace tydi::elab
