// Compiler driver — the full Fig. 3 pipeline behind one call:
//
//   sources -> parse -> elaborate (evaluation + code expansion) ->
//   sugaring -> lower (Tydi-IR) -> DRC -> IR text -> VHDL
//
// This facade is the primary public API: examples, tests and benches all
// compile through it. The design is lowered to ir::Module exactly once;
// DRC, the IR text emitter and the VHDL backend all consume that module.
// Phase timings are recorded in pipeline order for the compile-performance
// bench.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/drc/drc.hpp"
#include "src/elab/design.hpp"
#include "src/elab/elaborator.hpp"
#include "src/ir/ir.hpp"
#include "src/sugar/sugar.hpp"
#include "src/support/diagnostic.hpp"
#include "src/support/phase_timings.hpp"
#include "src/support/source.hpp"
#include "src/support/status.hpp"
#include "src/vhdl/vhdl.hpp"

namespace tydi::driver {

/// Canonical pipeline phase names in execution order. Aggregators (batch
/// reports, the compile bench) seed their PhaseTimings from this single
/// list so skipped phases cannot reorder reports.
inline constexpr const char* kPipelinePhases[] = {
    "parse", "elaborate", "sugar", "lower", "drc", "ir", "vhdl"};

struct NamedSource {
  std::string name;
  std::string text;
};

struct CompileOptions {
  /// Name of the top-level (non-template) impl to elaborate.
  std::string top;
  /// Prepend the Tydi-lang standard library.
  bool include_stdlib = true;
  /// Auto duplicator/voider insertion (Fig. 4). Disable to reproduce the
  /// "without sugaring" Table IV row.
  bool sugaring = true;
  sugar::SugarOptions sugar;
  bool run_drc = true;
  drc::DrcOptions drc;
  /// Emit Tydi-IR / VHDL text (can be disabled for pure-frontend timing).
  bool emit_ir = true;
  bool emit_vhdl = true;
  vhdl::VhdlOptions vhdl;
  /// Wall-clock budget for this compile in ms (0 = unlimited). Polled at
  /// phase boundaries — an exceeded budget stops the pipeline between
  /// phases and classifies the result as kAborted (phase "watchdog"). This
  /// is the `tydid` per-request timeout hook; it cannot interrupt a phase
  /// mid-flight (phases are short and bounded in practice).
  double budget_ms = 0.0;
  /// Optional external cancellation poll (e.g. `tydid`'s per-request
  /// cancel flag), checked at the same phase boundaries as `budget_ms`.
  /// Must be callable from the compiling thread; empty = never cancelled.
  std::function<bool()> cancelled;
};

class CompileResult {
 public:
  CompileResult();
  CompileResult(CompileResult&&) = default;
  CompileResult& operator=(CompileResult&&) = default;

  std::unique_ptr<support::SourceManager> sources;
  std::unique_ptr<support::DiagnosticEngine> diags;
  elab::ProgramRef program;
  elab::Design design;
  sugar::SugarStats sugar_stats;
  /// The lowered Tydi-IR — the backend contract. Populated once per compile
  /// whenever elaboration (and sugaring) succeeded; DRC, the IR text
  /// emitter, the VHDL backend and caller-side consumers (fletchgen
  /// manifest) all read this module.
  ir::Module ir;
  drc::DrcReport drc_report;
  std::string ir_text;
  std::string vhdl_text;
  /// Wall-clock per phase in pipeline order: parse, elaborate, sugar,
  /// lower, drc, ir, vhdl (phases that did not run are absent).
  support::PhaseTimings phase_ms;
  /// Template-instantiation cache counters of the elaborator.
  elab::InstantiationStats template_cache;

  [[nodiscard]] bool success() const { return !diags->has_errors(); }
  /// Rendered diagnostics (errors, warnings, notes).
  [[nodiscard]] std::string report() const { return diags->render(); }
  /// Machine-readable classification of the first error: which pipeline
  /// phase failed (parse/elaborate/drc/emit) mapped onto the shared
  /// StatusCode taxonomy. kOk when the compile succeeded.
  [[nodiscard]] support::Status status() const;
};

/// Runs the whole pipeline. Never throws; check `result.success()`.
[[nodiscard]] CompileResult compile(const std::vector<NamedSource>& sources,
                                    const CompileOptions& options);

/// Convenience for single-source programs.
[[nodiscard]] CompileResult compile_source(std::string text,
                                           const CompileOptions& options);

class CompileSession;

/// Internal pipeline entry point shared by `compile` (no session) and
/// `CompileSession::compile`; declared here only to be befriendable.
/// `source_hashes` (optional) are the sources' precomputed content hashes.
[[nodiscard]] CompileResult compile_with_session(
    const std::vector<NamedSource>& sources, const CompileOptions& options,
    CompileSession* session, const std::vector<std::uint64_t>* source_hashes);

/// How many compiles of one compile identity a session keeps the cache
/// entries of (see CompileSession).
inline constexpr std::size_t kRetainedCompiles = 2;

/// The session's back-end memo: sugaring, lowering and VHDL emission of a
/// compile reuse what an earlier compile derived from the same elaborated
/// payloads (the template memo hands warm compiles the same objects), so an
/// edit pays only for the impls it changed. Every entry is keyed on payload
/// identities (src/support/identity_cache.hpp).
struct BackEndMemo {
  sugar::SugarMemo sugar;
  ir::LowerMemo lower;
  vhdl::EmitMemo emit;

  void clear();
  void sweep();
  [[nodiscard]] std::size_t live_entries() const;
  /// Calls `fn` with every live entry's key and value address.
  void for_each_live(
      const std::function<void(const support::IdentityKey&, const void*)>&
          fn) const;
};

/// A sequence of compiles sharing the process-wide caches of the compile
/// hot path:
///
///  - the template-instantiation memo (elab::TemplateMemo): stdlib and
///    user monomorphisations elaborated by one compile are replayed —
///    value-copied in original insertion order — by later compiles whose
///    defining sources are byte-identical;
///  - the parse cache: a source file whose (file id, name, content hash)
///    triple matches a previous compile reuses that compile's AST, so the
///    standard library parses once per session, not once per compile;
///  - the back-end memo (BackEndMemo): per-impl sugaring, lowered
///    streamlets/impls and rendered VHDL blocks, keyed on the identity of
///    the payloads they derive from.
///
/// Compiles through a session produce byte-identical IR/VHDL to standalone
/// `driver::compile` calls (covered by the golden tests). Memo entries are
/// invalidated by content hash of their defining file *and* of every file
/// whose global types/constants their elaboration resolved (dependency
/// stamps, see src/elab/memo.hpp), so editing any involved source between
/// compiles re-elaborates instead of serving stale results. `invalidate()`
/// drops every cache wholesale.
///
/// Retention: a cached parse, memo version or back-end entry stays alive
/// while a retained compile used it; the session retains at most
/// kRetainedCompiles compiles per compile identity — `top` plus the
/// ordered source-name list. Each compile collects a footprint (its
/// Program, i.e. the ASTs it parsed or reused, every memo version it hit,
/// replayed or inserted, and every back-end entry it hit or inserted); when a
/// compile succeeds, its footprint enters its identity's ring, replacing
/// the footprint of an earlier compile of the same source bytes, else the
/// oldest one. So a ring holds the latest compile of each of the last K
/// source versions, whatever order concurrent compiles finish in. The
/// caches themselves hold weak references, so what no retained footprint
/// holds expires. K = 2 keeps an edit followed by an undo, or two
/// alternating variants, warm.
///
/// Concurrency: any number of threads may call `compile` on one session
/// simultaneously (parallel `compile_batch` workers, `tydid` request
/// handlers). Each cache synchronizes itself — the template memo and the
/// back-end caches via shared_mutex with shared-lock lookups, the
/// parse cache via the session's own lock — and every cache serves
/// immutable shared payloads, so compiles never block each other outside
/// the brief publish sections. Outputs are byte-identical whatever the
/// interleaving: a cache hit and a fresh elaboration of the same sources
/// produce the same bytes (golden-tested), so races only affect *which*
/// thread fills a cache slot, never what a compile emits. `invalidate()`
/// may race in-flight compiles safely: they keep the shared payloads they
/// already captured and simply re-elaborate on their next lookup.
class CompileSession {
 public:
  CompileSession() = default;
  CompileSession(const CompileSession&) = delete;
  CompileSession& operator=(const CompileSession&) = delete;

  /// Same contract as driver::compile, plus session cache reuse.
  [[nodiscard]] CompileResult compile(const std::vector<NamedSource>& sources,
                                      const CompileOptions& options) {
    return compile_with_session(sources, options, this, nullptr);
  }
  /// Same, with `source_hashes[i]` the elab::source_hash of `sources[i]`
  /// (e.g. from the durable key tydid already stamped), so no source is
  /// hashed twice.
  [[nodiscard]] CompileResult compile(
      const std::vector<NamedSource>& sources, const CompileOptions& options,
      const std::vector<std::uint64_t>& source_hashes) {
    return compile_with_session(sources, options, this, &source_hashes);
  }

  /// Drops every cached parse, memo entry, back-end entry and retained
  /// footprint. Safe to call while compiles are in flight: they
  /// keep the shared payloads they already hold and re-elaborate on their
  /// next lookup.
  void invalidate();

  /// Prunes the expired slots of every cache now (publishes otherwise
  /// prune as they go).
  void sweep();

  [[nodiscard]] const elab::TemplateMemo& memo() const { return memo_; }
  /// Live cached parses.
  [[nodiscard]] std::size_t parse_cache_size() const;
  [[nodiscard]] const BackEndMemo& backend() const { return backend_; }
  /// Footprints held across all compile identities (<= kRetainedCompiles
  /// per identity).
  [[nodiscard]] std::size_t retained_compiles() const;
  /// Calls `fn` with the memo versions and back-end entries of every
  /// retained compile.
  void for_each_retained(
      const std::function<void(const elab::MemoFootprint&,
                               const support::CacheHold&)>& fn) const;

 private:
  friend CompileResult compile_with_session(
      const std::vector<NamedSource>& sources, const CompileOptions& options,
      CompileSession* session,
      const std::vector<std::uint64_t>* source_hashes);

  struct CachedParse {
    std::string name;
    std::uint64_t hash = 0;
    std::uint32_t file_value = 0;  ///< FileId the AST's Locs refer to
    std::weak_ptr<const lang::SourceFile> ast;
  };
  /// What one compile used: the footprint a ring slot holds.
  struct Footprint {
    elab::ProgramRef program;  ///< the ASTs it parsed or reused
    elab::MemoFootprint memo;
    support::CacheHold backend;  ///< back-end entries it hit or inserted
    std::uint64_t sources = 0;  ///< combined content hash of its sources
  };
  /// At most kRetainedCompiles footprints, oldest first.
  using Ring = std::vector<std::shared_ptr<const Footprint>>;

  /// Installs `footprint` in `identity`'s ring. It replaces the footprint
  /// of an earlier compile of the same source bytes, else the oldest one
  /// once the ring is full.
  void retain(const std::string& identity,
              std::shared_ptr<const Footprint> footprint);

  elab::TemplateMemo memo_;
  /// Guards `parses_` (the other caches synchronize themselves).
  mutable std::shared_mutex parse_mu_;
  std::vector<CachedParse> parses_;
  BackEndMemo backend_;
  /// Guards `rings_`.
  mutable std::mutex retain_mu_;
  std::unordered_map<std::string, Ring> rings_;
};

/// One unit of a batch compile: a named source set with its own options.
struct BatchJob {
  std::string name;  ///< e.g. "TPC-H 6"
  std::vector<NamedSource> sources;
  CompileOptions options;
  /// Pre-compile failure recorded by the manifest loader (malformed line,
  /// unreadable source). compile_batch records such jobs as failed entries
  /// without attempting to compile them, so one bad manifest line cannot
  /// take down the whole batch.
  support::Status preflight = support::Status::ok();
};

/// Per-job outcome kept by compile_batch (texts are dropped unless
/// BatchOptions::keep_texts asks for them; sizes and timings remain so
/// batch reports stay cheap for large workloads).
struct BatchEntry {
  std::string name;
  bool success = false;
  support::PhaseTimings phase_ms;
  elab::InstantiationStats template_cache;
  std::size_t vhdl_bytes = 0;
  std::size_t ir_bytes = 0;
  std::string diagnostics;  ///< rendered only for failed jobs
  /// Emitted texts; populated only with BatchOptions::keep_texts (the
  /// determinism harnesses diff them across worker counts).
  std::string vhdl_text;
  std::string ir_text;
  /// Failure class of this job (kOk on success): the manifest loader's
  /// preflight status for skipped jobs, the compile classification
  /// otherwise.
  support::Status status;
};

/// Knobs of a batch run.
struct BatchOptions {
  /// Worker threads compiling jobs concurrently through the shared session.
  /// 1 = compile inline on the calling thread (exact legacy behaviour).
  /// Workers pull jobs from a shared atomic cursor (work stealing in the
  /// simplest form: an idle worker immediately takes the next undone job),
  /// and results land in per-job slots, so BatchResult::entries is always
  /// in job order and byte-identical for any worker count.
  int jobs = 1;
  /// Keep each entry's emitted IR/VHDL texts (memory-heavy; meant for the
  /// determinism tests and bench gates).
  bool keep_texts = false;
};

struct BatchResult {
  std::vector<BatchEntry> entries;
  /// Aggregate wall-clock per phase, pipeline order (seeded canonically so
  /// jobs that skip phases cannot reorder the report).
  support::PhaseTimings phase_ms;
  elab::InstantiationStats template_cache;
  std::size_t failures = 0;
  std::size_t bytes_emitted = 0;  ///< IR + VHDL bytes across all jobs

  [[nodiscard]] bool success() const { return failures == 0; }
  /// kOk when every job succeeded; otherwise the first failing entry's
  /// status (the CLI exit code for batch runs).
  [[nodiscard]] support::Status status() const;
  /// Per-query + aggregate table (phase ms, cache hit rates, bytes).
  [[nodiscard]] std::string render() const;
};

/// Compiles every job through one shared session (memo + parse cache warm
/// across jobs) and aggregates timings — the `tydic --batch` entry point.
/// With `options.jobs > 1` the jobs fan out across that many worker
/// threads, all compiling through the same session; entries, aggregates
/// and emitted bytes are identical to a serial run for any worker count.
[[nodiscard]] BatchResult compile_batch(CompileSession& session,
                                        const std::vector<BatchJob>& jobs,
                                        const BatchOptions& options);
[[nodiscard]] inline BatchResult compile_batch(
    CompileSession& session, const std::vector<BatchJob>& jobs) {
  return compile_batch(session, jobs, BatchOptions{});
}

/// One job line of a batch manifest: `source_files top_name`, where
/// `source_files` is a comma-separated file list.
struct ManifestLine {
  std::size_t line_no = 0;  ///< 1-based
  std::string sources;
  std::string top;
  /// kCorruptData (`path:line: ...`) for a line without a top name or
  /// source file, or with a trailing field.
  support::Status status;
};

/// Reads the batch manifest at `path` and splits it into its job lines
/// (appended to `lines`), skipping blank lines and `#` comments. An
/// unreadable manifest is kIoError, one without a job line
/// kInvalidArgument ("manifest <path> lists no jobs", exit 2).
/// `load_batch_manifest` and `tydid --batch-manifest` both read manifests
/// through it, so they refuse the same manifests and fail the same lines
/// the same way.
[[nodiscard]] support::Status parse_batch_manifest(
    const std::string& path, std::vector<ManifestLine>& lines);

/// Parses a batch job manifest — one `source_files top_name` pair per line
/// (blank lines and `#` comments skipped; `source_files` is a
/// comma-separated file list compiled in list order, so multi-file
/// programs with per-file `package` headers batch as one job) — and
/// appends one BatchJob per line with the referenced sources loaded and
/// default options (stdlib + sugaring on). This is how arbitrary query sets, not just the built-in
/// Table IV cases, batch through one CompileSession (`tydic
/// --batch-manifest`).
///
/// A malformed line or an unreadable source is NOT fatal: the loader
/// appends a job whose `preflight` status records the problem, and
/// compile_batch reports it as a failed entry while every well-formed job
/// still compiles. Only an unreadable manifest (kIoError) or one without a
/// job line (kInvalidArgument) returns a non-ok Status, with `jobs`
/// untouched.
[[nodiscard]] support::Status load_batch_manifest(const std::string& path,
                                                  std::vector<BatchJob>& jobs);

}  // namespace tydi::driver
