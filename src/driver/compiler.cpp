#include "src/driver/compiler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/parser/parser.hpp"
#include "src/stdlib/stdlib.hpp"
#include "src/support/source.hpp"
#include "src/support/text.hpp"

namespace tydi::driver {

CompileResult::CompileResult()
    : sources(std::make_unique<support::SourceManager>()),
      diags(std::make_unique<support::DiagnosticEngine>(sources.get())) {}

support::Status CompileResult::status() const {
  using support::Status;
  using support::StatusCode;
  if (!diags->has_errors()) return Status::ok();
  // Classify by the first error's reporting phase: the pipeline stops at
  // the first failing stage, so that phase names the failure class.
  for (const support::Diagnostic& d : diags->diagnostics()) {
    if (d.severity != support::Severity::kError) continue;
    StatusCode code = StatusCode::kInternal;
    if (d.phase == "lexer" || d.phase == "parser") {
      code = StatusCode::kParseError;
    } else if (d.phase == "elab" || d.phase == "sugar") {
      code = StatusCode::kElabError;
    } else if (d.phase == "drc") {
      code = StatusCode::kDrcError;
    } else if (d.phase == "ir" || d.phase == "vhdl") {
      code = StatusCode::kEmitError;
    } else if (d.phase == "watchdog") {
      // Budget exceeded / externally cancelled between phases — the same
      // class as a watchdog-aborted simulation run.
      code = StatusCode::kAborted;
    }
    return Status::error(code, d.phase, d.message);
  }
  return Status::error(StatusCode::kInternal, "driver",
                       "error count nonzero but no error diagnostic stored");
}

namespace {

/// Publishes one finished compile's telemetry to the process registry on
/// every exit path (early error returns included): outcome counters,
/// instantiation-cache deltas, and bytes emitted.
struct CompilePublisher {
  const CompileResult& result;
  ~CompilePublisher() {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& total = reg.counter("tydi.compile.total");
    static obs::Counter& errors = reg.counter("tydi.compile.errors");
    static obs::Counter& aborted = reg.counter("tydi.compile.aborted");
    static obs::Counter& inst_hits =
        reg.counter("tydi.elab.instantiation_hits");
    static obs::Counter& inst_misses =
        reg.counter("tydi.elab.instantiation_misses");
    static obs::Counter& inst_session_hits =
        reg.counter("tydi.elab.session_hits");
    static obs::Counter& ir_bytes = reg.counter("tydi.ir.bytes_emitted");
    static obs::Counter& vhdl_bytes = reg.counter("tydi.vhdl.bytes_emitted");
    ++total;
    if (result.diags->has_errors()) {
      if (result.status().code() == support::StatusCode::kAborted) {
        ++aborted;
      } else {
        ++errors;
      }
    }
    inst_hits += result.template_cache.hits();
    inst_misses += result.template_cache.misses();
    inst_session_hits += result.template_cache.session_hits();
    ir_bytes += result.ir_text.size();
    vhdl_bytes += result.vhdl_text.size();
  }
};

/// The built-in standard library's content hash, taken once per process.
std::uint64_t stdlib_hash() {
  static const std::uint64_t hash = elab::source_hash(stdlib::stdlib_source());
  return hash;
}

/// `top` plus the ordered source names: the key of a footprint ring.
std::string compile_identity(const std::vector<NamedSource>& sources,
                             const CompileOptions& options) {
  std::string identity = options.top;
  for (const NamedSource& source : sources) {
    identity += '\0';
    identity += source.name;
  }
  return identity;
}

/// Calls `fn` on every cache of `memo`, in pipeline order.
template <typename Memo, typename Fn>
void for_each_cache(Memo& memo, const Fn& fn) {
  fn(memo.sugar.impls);
  fn(memo.sugar.stdlib);
  fn(memo.lower.streamlets);
  fn(memo.lower.impls);
  fn(memo.emit.streamlets);
  fn(memo.emit.instances);
  fn(memo.emit.impls);
}

}  // namespace

void BackEndMemo::clear() {
  for_each_cache(*this, [](support::IdentityCacheBase& c) { c.clear(); });
}

void BackEndMemo::sweep() {
  for_each_cache(*this, [](support::IdentityCacheBase& c) { c.sweep(); });
}

std::size_t BackEndMemo::live_entries() const {
  std::size_t n = 0;
  for_each_cache(*this, [&n](const support::IdentityCacheBase& c) {
    n += c.live_entries();
  });
  return n;
}

void BackEndMemo::for_each_live(
    const std::function<void(const support::IdentityKey&, const void*)>& fn)
    const {
  for_each_cache(*this, [&fn](const support::IdentityCacheBase& c) {
    c.for_each_live(fn);
  });
}

void CompileSession::invalidate() {
  memo_.invalidate();
  {
    std::unique_lock lock(parse_mu_);
    parses_.clear();
  }
  backend_.clear();
  std::unordered_map<std::string, Ring> dropped;
  {
    std::lock_guard lock(retain_mu_);
    dropped.swap(rings_);
  }
}

void CompileSession::sweep() {
  memo_.sweep();
  {
    std::unique_lock lock(parse_mu_);
    std::erase_if(parses_,
                  [](const CachedParse& c) { return c.ast.expired(); });
  }
  backend_.sweep();
}

std::size_t CompileSession::parse_cache_size() const {
  std::shared_lock lock(parse_mu_);
  return static_cast<std::size_t>(
      std::count_if(parses_.begin(), parses_.end(),
                    [](const CachedParse& c) { return !c.ast.expired(); }));
}

std::size_t CompileSession::retained_compiles() const {
  std::lock_guard lock(retain_mu_);
  std::size_t n = 0;
  for (const auto& [identity, ring] : rings_) n += ring.size();
  return n;
}

void CompileSession::for_each_retained(
    const std::function<void(const elab::MemoFootprint&,
                             const support::CacheHold&)>& fn) const {
  std::lock_guard lock(retain_mu_);
  for (const auto& [identity, ring] : rings_) {
    for (const auto& footprint : ring) fn(footprint->memo, footprint->backend);
  }
}

void CompileSession::retain(const std::string& identity,
                            std::shared_ptr<const Footprint> footprint) {
  std::shared_ptr<const Footprint> dropped;
  {
    std::lock_guard lock(retain_mu_);
    Ring& ring = rings_[identity];
    auto slot = std::find_if(ring.begin(), ring.end(), [&](const auto& f) {
      return f->sources == footprint->sources;
    });
    if (slot == ring.end() && ring.size() == kRetainedCompiles) {
      slot = ring.begin();
    }
    if (slot != ring.end()) {
      dropped = std::move(*slot);
      ring.erase(slot);
    }
    ring.push_back(std::move(footprint));
  }
  // `dropped` releases its references here, outside the lock.
}

CompileResult compile_with_session(const std::vector<NamedSource>& sources,
                                   const CompileOptions& options,
                                   CompileSession* session,
                                   const std::vector<std::uint64_t>* source_hashes) {
  CompileResult result;
  elab::SourceHashes hashes;
  CompilePublisher publisher{result};
  // With a session, the footprint of a successful compile enters its
  // identity's ring when the compile returns. A failed or aborted compile
  // touched only part of what its sources need, so it evicts nothing.
  struct Retainer {
    CompileSession* session;
    const CompileResult& result;
    const std::vector<NamedSource>& sources;
    const CompileOptions& options;
    std::shared_ptr<CompileSession::Footprint> footprint;
    ~Retainer() {
      if (session != nullptr && result.success()) {
        session->retain(compile_identity(sources, options),
                        std::move(footprint));
      }
    }
  } retainer{session, result, sources, options,
             session != nullptr
                 ? std::make_shared<CompileSession::Footprint>()
                 : nullptr};
  obs::Span compile_span("compile");
  compile_span.arg("top", options.top);

  // Per-request guard rails: the wall-clock budget and the external cancel
  // poll are checked between phases (a phase is never interrupted
  // mid-flight). An exceeded budget classifies as kAborted via the
  // "watchdog" phase tag — the same taxonomy the sim watchdog uses.
  const auto start = std::chrono::steady_clock::now();
  auto aborted = [&]() -> bool {
    if (options.cancelled && options.cancelled()) {
      result.diags->error("watchdog", "compile cancelled");
      return true;
    }
    if (options.budget_ms > 0.0) {
      const double elapsed =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed > options.budget_ms) {
        result.diags->error(
            "watchdog", "compile budget of " +
                            std::to_string(options.budget_ms) +
                            " ms exceeded");
        return true;
      }
    }
    return false;
  };

  auto program = std::make_shared<elab::Program>();
  {
    obs::PhaseTimer t(result.phase_ms, "compile", "parse");
    // Registers a source, then parses it — or, with a session, reuses a
    // live previously parsed AST when (file id, name, content hash) match,
    // so the AST's Locs resolve identically in this compile. Only session
    // compiles need the content hash (memo stamps and the parse-cache key).
    auto add_and_parse = [&](const std::string& name, std::string text,
                             std::uint64_t hash) {
      support::FileId id = result.sources->add(name, std::move(text));
      std::string_view stored = result.sources->text(id);
      if (session == nullptr) {
        program->files.push_back(std::make_shared<const lang::SourceFile>(
            lang::parse(stored, id, *result.diags)));
        return;
      }
      if (hashes.size() <= id.value) hashes.resize(id.value + 1, 0);
      hashes[id.value] = hash;
      static obs::Counter& parse_hits =
          obs::MetricsRegistry::global().counter("tydi.parse.cache_hits");
      static obs::Counter& parse_misses =
          obs::MetricsRegistry::global().counter("tydi.parse.cache_misses");
      auto matches = [&](const CompileSession::CachedParse& c) {
        return c.file_value == id.value && c.hash == hash && c.name == name;
      };
      {
        std::shared_lock lock(session->parse_mu_);
        for (const CompileSession::CachedParse& c : session->parses_) {
          if (!matches(c)) continue;
          if (auto ast = c.ast.lock()) {
            program->files.push_back(std::move(ast));
            ++parse_hits;
            return;
          }
        }
      }
      ++parse_misses;
      const std::size_t diags_before = result.diags->diagnostics().size();
      auto ast = std::make_shared<const lang::SourceFile>(
          lang::parse(stored, id, *result.diags));
      program->files.push_back(ast);
      // Cache only diagnostic-free parses (cached reuse replays no diags).
      if (result.diags->diagnostics().size() == diags_before) {
        std::unique_lock lock(session->parse_mu_);
        // Publishing prunes the slots whose ASTs no retained compile holds
        // any more, and re-checks for a live match: a concurrent compile of
        // the same sources may have published this parse while we parsed.
        std::erase_if(session->parses_,
                      [](const CompileSession::CachedParse& c) {
                        return c.ast.expired();
                      });
        if (std::none_of(session->parses_.begin(), session->parses_.end(),
                         matches)) {
          session->parses_.push_back(
              CompileSession::CachedParse{name, hash, id.value, ast});
        }
      }
    };
    if (options.include_stdlib) {
      add_and_parse(std::string(stdlib::stdlib_file_name()),
                    std::string(stdlib::stdlib_source()),
                    session != nullptr ? stdlib_hash() : 0);
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const NamedSource& src = sources[i];
      std::uint64_t hash = 0;
      if (session != nullptr) {
        hash = source_hashes != nullptr && i < source_hashes->size()
                   ? (*source_hashes)[i]
                   : elab::source_hash(src.text);
      }
      add_and_parse(src.name, src.text, hash);
    }
  }
  if (retainer.footprint != nullptr) {
    retainer.footprint->program = program;
    for (const std::uint64_t hash : hashes) {
      retainer.footprint->sources =
          (retainer.footprint->sources ^ hash) * 1099511628211ULL;
    }
  }
  result.program = program;
  if (result.diags->has_errors()) return result;
  if (aborted()) return result;

  {
    obs::PhaseTimer t(result.phase_ms, "compile", "elaborate");
    elab::MemoHook hook;
    if (session != nullptr) {
      hook.memo = &session->memo_;
      hook.hashes = &hashes;
      hook.footprint = &retainer.footprint->memo;
    }
    elab::Elaborator elaborator(program, *result.diags, hook);
    result.design = options.top.empty() ? elaborator.run_all()
                                        : elaborator.run(options.top);
    result.template_cache = elaborator.stats();
  }
  if (result.diags->has_errors()) return result;
  if (aborted()) return result;

  // With a session, the back-end phases reuse what earlier compiles derived
  // from the same payloads; what this compile uses joins its footprint.
  support::CacheHold* hold =
      session != nullptr ? &retainer.footprint->backend : nullptr;
  BackEndMemo* backend = session != nullptr ? &session->backend_ : nullptr;
  if (options.sugaring) {
    obs::PhaseTimer t(result.phase_ms, "compile", "sugar");
    result.sugar_stats = sugar::apply_sugaring(
        result.design, options.sugar, *result.diags,
        backend != nullptr ? &backend->sugar : nullptr, hold);
  }
  if (aborted()) return result;

  // Lower once, unconditionally: every backend (DRC, IR text, VHDL) and any
  // caller-side consumer (e.g. the fletchgen manifest) reads result.ir.
  {
    obs::PhaseTimer t(result.phase_ms, "compile", "lower");
    result.ir = ir::lower(result.design,
                          backend != nullptr ? &backend->lower : nullptr, hold);
  }
  if (aborted()) return result;

  if (options.run_drc) {
    obs::PhaseTimer t(result.phase_ms, "compile", "drc");
    result.drc_report = drc::check(result.ir, options.drc, *result.diags);
    if (aborted()) return result;
  }

  if (options.emit_ir) {
    obs::PhaseTimer t(result.phase_ms, "compile", "ir");
    result.ir_text = ir::emit(result.ir);
  }
  if (options.emit_vhdl) {
    obs::PhaseTimer t(result.phase_ms, "compile", "vhdl");
    result.vhdl_text =
        vhdl::emit(result.ir, options.vhdl, *result.diags,
                   backend != nullptr ? &backend->emit : nullptr, hold);
  }
  return result;
}

CompileResult compile(const std::vector<NamedSource>& sources,
                      const CompileOptions& options) {
  return compile_with_session(sources, options, nullptr, nullptr);
}

CompileResult compile_source(std::string text, const CompileOptions& options) {
  return compile({NamedSource{"input.td", std::move(text)}}, options);
}

support::Status parse_batch_manifest(const std::string& path,
                                     std::vector<ManifestLine>& lines) {
  std::string text;
  if (!support::read_file(path, text).is_ok()) {
    return support::Status::error(support::StatusCode::kIoError, "manifest",
                                  "cannot read manifest " + path);
  }
  const std::size_t first = lines.size();
  std::size_t line_no = 0;
  for (std::string_view text_line : support::split_lines(text)) {
    ++line_no;
    std::istringstream fields{std::string(text_line)};
    ManifestLine line;
    line.line_no = line_no;
    if (!(fields >> line.sources) || line.sources.front() == '#') continue;
    std::string extra;
    std::string what;
    if (!(fields >> line.top)) {
      what = "expected \"source_file top_name\"";
    } else if (fields >> extra) {
      what = "trailing field '" + extra + "'";
    } else if (support::split_nonempty(line.sources, ',').empty()) {
      what = "no source files in '" + line.sources + "'";
    }
    if (!what.empty()) {
      line.status = support::Status::error(
          support::StatusCode::kCorruptData, "manifest",
          path + ":" + std::to_string(line_no) + ": " + what);
    }
    lines.push_back(std::move(line));
  }
  if (lines.size() == first) {
    return support::Status::error(support::StatusCode::kInvalidArgument,
                                  "manifest",
                                  "manifest " + path + " lists no jobs");
  }
  return support::Status::ok();
}

support::Status load_batch_manifest(const std::string& path,
                                    std::vector<BatchJob>& jobs) {
  using support::Status;
  std::vector<ManifestLine> lines;
  if (Status parsed = parse_batch_manifest(path, lines); !parsed.is_ok()) {
    return parsed;
  }
  for (const ManifestLine& line : lines) {
    const std::string where = path + ":" + std::to_string(line.line_no);
    // The source field is a comma-separated file list (compile order is
    // list order) so multi-file programs — each file keeping its own
    // `package` header — batch as one job.
    BatchJob job;
    job.name = line.sources + ":" + line.top;
    job.options.top = line.top;
    Status status = line.status;
    for (std::string_view name : support::split_nonempty(line.sources, ',')) {
      if (!status.is_ok()) break;
      NamedSource& source = job.sources.emplace_back();
      source.name = name;
      const Status read = support::read_file(source.name, source.text);
      if (!read.is_ok()) {
        status = Status::error(read.code(), "manifest",
                               where + ": " + read.message());
      }
    }
    if (!status.is_ok()) {
      // One bad line poisons its own job, not the batch: the job carries a
      // preflight failure and compile_batch skips it while the rest of the
      // manifest loads normally.
      job = BatchJob{};
      job.name = where;
      job.preflight = std::move(status);
    }
    jobs.push_back(std::move(job));
  }
  return Status::ok();
}

BatchResult compile_batch(CompileSession& session,
                          const std::vector<BatchJob>& jobs,
                          const BatchOptions& options) {
  BatchResult out;
  // Canonical pipeline order for the aggregate, whatever phases jobs skip.
  for (const char* phase : kPipelinePhases) {
    out.phase_ms.add(phase, 0.0);
  }
  out.entries.resize(jobs.size());

  // Per-job slots are filled by whichever worker claims the job off the
  // shared cursor; aggregation runs single-threaded afterwards, in job
  // order, so the result is independent of the schedule. Outputs are too:
  // session compiles are byte-identical hit or miss, so interleaving only
  // changes who pays for which cache fill.
  auto run_job = [&](std::size_t index, std::size_t worker) {
    const BatchJob& job = jobs[index];
    BatchEntry& entry = out.entries[index];
    entry.name = job.name;
    static obs::Counter& batch_jobs =
        obs::MetricsRegistry::global().counter("tydi.batch.jobs");
    static obs::Counter& batch_failures =
        obs::MetricsRegistry::global().counter("tydi.batch.failures");
    ++batch_jobs;
    obs::Span span("batch.job");
    span.arg("job", job.name)
        .arg("worker", static_cast<std::int64_t>(worker));
    struct FailureCount {
      const BatchEntry& entry;
      obs::Counter& failures;
      ~FailureCount() {
        if (!entry.success) ++failures;
      }
    } count_failure{entry, batch_failures};
    if (!job.preflight.is_ok()) {
      // The manifest loader already condemned this job; record it and move
      // on without compiling.
      entry.success = false;
      entry.status = job.preflight;
      entry.diagnostics = job.preflight.render() + "\n";
      return;
    }
    CompileResult r = session.compile(job.sources, job.options);
    entry.success = r.success();
    entry.phase_ms = r.phase_ms;
    entry.template_cache = r.template_cache;
    entry.vhdl_bytes = r.vhdl_text.size();
    entry.ir_bytes = r.ir_text.size();
    if (options.keep_texts) {
      entry.vhdl_text = std::move(r.vhdl_text);
      entry.ir_text = std::move(r.ir_text);
    }
    if (!entry.success) {
      entry.status = r.status();
      entry.diagnostics = r.report();
    }
  };

  const std::size_t workers =
      std::min<std::size_t>(jobs.size(),
                            options.jobs > 1
                                ? static_cast<std::size_t>(options.jobs)
                                : 1);
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_job(i, 0);
  } else {
    // Work stealing in its simplest form: an atomic cursor over the job
    // list. Jobs are coarse (whole compiles), so contention on the cursor
    // is negligible and idle workers always find the next unclaimed job.
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w]() {
        for (;;) {
          const std::size_t index =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (index >= jobs.size()) return;
          run_job(index, w);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Deterministic aggregation in job order, whatever the schedule was.
  for (const BatchEntry& entry : out.entries) {
    if (!entry.success) ++out.failures;
    for (const support::PhaseTimings::Entry& p : entry.phase_ms.entries()) {
      out.phase_ms.add(p.phase, p.ms);
    }
    out.template_cache += entry.template_cache;
    out.bytes_emitted += entry.vhdl_bytes + entry.ir_bytes;
  }
  return out;
}

support::Status BatchResult::status() const {
  for (const BatchEntry& e : entries) {
    if (!e.success) return e.status;
  }
  return support::Status::ok();
}

std::string BatchResult::render() const {
  support::TextTable table;
  table.header({"query", "ok", "total ms", "elab ms", "vhdl ms", "hit rate",
                "memo hits", "vhdl bytes"});
  for (const BatchEntry& e : entries) {
    table.row({e.name, e.success ? "yes" : "NO",
               support::format_fixed(e.phase_ms.total_ms(), 3),
               support::format_fixed(e.phase_ms.at("elaborate"), 3),
               support::format_fixed(e.phase_ms.at("vhdl"), 3),
               support::format_fixed(e.template_cache.hit_rate(), 3),
               std::to_string(e.template_cache.session_hits()),
               std::to_string(e.vhdl_bytes)});
  }
  table.row({"(aggregate)", failures == 0 ? "yes" : "NO",
             support::format_fixed(phase_ms.total_ms(), 3),
             support::format_fixed(phase_ms.at("elaborate"), 3),
             support::format_fixed(phase_ms.at("vhdl"), 3),
             support::format_fixed(template_cache.hit_rate(), 3),
             std::to_string(template_cache.session_hits()),
             std::to_string(bytes_emitted)});
  std::string out = table.render();
  out += "phases: " + phase_ms.render() + "\n";
  for (const BatchEntry& e : entries) {
    if (!e.success) {
      out += "-- " + e.name + " failed:\n" + e.diagnostics;
    }
  }
  return out;
}

}  // namespace tydi::driver
