// Support-layer tests: source management, diagnostics, the LoC counter
// that Table IV depends on, the rope-backed code writer (including an
// allocation-count regression check), tables, and identifier sanitization.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/support/diagnostic.hpp"
#include "src/support/intern.hpp"
#include "src/support/retry.hpp"
#include "src/support/source.hpp"
#include "src/support/status.hpp"
#include "src/support/text.hpp"

// Process-wide allocation counter for the CodeWriter regression test: every
// operator new in this test binary bumps the counter, so a test can assert
// an upper bound on the allocations a code path performs.
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tydi::support {
namespace {

TEST(Interner, RoundTripAndDedup) {
  Interner interner;
  Symbol a = interner.intern("alpha");
  Symbol b = interner.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.str(a), "alpha");
  EXPECT_EQ(interner.str(b), "beta");
  // Dedup: same string, same symbol — no new entry.
  std::size_t size = interner.size();
  EXPECT_EQ(interner.intern("alpha"), a);
  EXPECT_EQ(interner.intern(std::string("alpha")), a);
  EXPECT_EQ(interner.size(), size);
}

TEST(Interner, StableSymbolsAcrossGrowth) {
  Interner interner;
  Symbol first = interner.intern("first");
  const std::string& before = interner.str(first);
  // Force the storage through several growth steps.
  std::vector<Symbol> symbols;
  for (int i = 0; i < 1000; ++i) {
    symbols.push_back(interner.intern("sym_" + std::to_string(i)));
  }
  // Old symbol still resolves and its string address did not move.
  EXPECT_EQ(interner.str(first), "first");
  EXPECT_EQ(&interner.str(first), &before);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.intern("sym_" + std::to_string(i)), symbols[i]);
    EXPECT_EQ(interner.str(symbols[i]), "sym_" + std::to_string(i));
  }
}

TEST(Interner, FindDoesNotInsert) {
  Interner interner;
  EXPECT_EQ(interner.find("ghost"), kNoSymbol);
  EXPECT_EQ(interner.size(), 0u);
  Symbol s = interner.intern("ghost");
  EXPECT_EQ(interner.find("ghost"), s);
}

TEST(Interner, StringsStayPutAcrossChunks) {
  // The first chunk holds 1024 strings; 5000 span three more.
  Interner interner;
  std::vector<const std::string*> addresses;
  for (int i = 0; i < 5000; ++i) {
    const Symbol sym = interner.intern("n" + std::to_string(i));
    addresses.push_back(&interner.str(sym));
  }
  for (int i = 0; i < 5000; ++i) {
    const Symbol sym = interner.find("n" + std::to_string(i));
    ASSERT_EQ(sym, static_cast<Symbol>(i));
    EXPECT_EQ(&interner.str(sym), addresses[i]);
    EXPECT_EQ(*addresses[i], "n" + std::to_string(i));
  }
}

TEST(Interner, ReadersNeedNoLockWhileTheTableGrows) {
  // str() reads while another thread inserts across chunk boundaries.
  Interner interner;
  std::atomic<Symbol> published{0};
  std::thread writer([&] {
    for (int i = 0; i < 4000; ++i) {
      published.store(interner.intern("w" + std::to_string(i)) + 1,
                      std::memory_order_release);
    }
  });
  std::size_t checked = 0;
  while (checked < 4000) {
    const Symbol end = published.load(std::memory_order_acquire);
    for (; checked < end; ++checked) {
      ASSERT_EQ(interner.str(static_cast<Symbol>(checked)),
                "w" + std::to_string(checked));
    }
  }
  writer.join();
}

TEST(Interner, GlobalSingletonIsStable) {
  Symbol a = intern("global_interner_test_symbol");
  Symbol b = intern("global_interner_test_symbol");
  EXPECT_EQ(a, b);
  EXPECT_EQ(symbol_name(a), "global_interner_test_symbol");
}

TEST(SourceManager, LineColumnMapping) {
  SourceManager sm;
  FileId id = sm.add("test.td", "line one\nline two\nthird");
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(sm.name(id), "test.td");

  LineCol lc = sm.line_col(Loc{id, 0});
  EXPECT_EQ(lc.line, 1u);
  EXPECT_EQ(lc.column, 1u);

  lc = sm.line_col(Loc{id, 9});  // 'l' of "line two"
  EXPECT_EQ(lc.line, 2u);
  EXPECT_EQ(lc.column, 1u);

  lc = sm.line_col(Loc{id, 23});  // last char of "third"
  EXPECT_EQ(lc.line, 3u);
  EXPECT_EQ(lc.column, 6u);

  EXPECT_EQ(sm.describe(Loc{id, 9}), "test.td:2:1");
}

TEST(SourceManager, SynthesizedLocations) {
  SourceManager sm;
  EXPECT_EQ(sm.describe(Loc::synthesized()), "<synthesized>");
  LineCol lc = sm.line_col(Loc::synthesized());
  EXPECT_EQ(lc.line, 0u);
}

TEST(SourceManager, MissingFileReturnsInvalidId) {
  SourceManager sm;
  EXPECT_FALSE(sm.add_file("/no/such/file.td").valid());
}

/// A scratch path unique to this test process.
std::string scratch_path(const std::string& tag) {
  return "/tmp/tydi_support_" + std::to_string(::getpid()) + "_" + tag;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ReadFile, MissingFileIsIoError) {
  std::string text = "stale";
  const Status s = read_file("/no/such/file.td", text);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(errno, ENOENT);
  EXPECT_EQ(s.message(), "cannot read /no/such/file.td");
  EXPECT_TRUE(text.empty());
}

TEST(ReadFile, EmptyFileReadsEmpty) {
  const std::string path = scratch_path("empty.td");
  write_bytes(path, "");
  std::string text = "stale";
  EXPECT_TRUE(read_file(path, text).is_ok());
  EXPECT_TRUE(text.empty());
  std::remove(path.c_str());
}

TEST(ReadFile, FileOver64KiBIsReadWholeAndExactlySized) {
  const std::string path = scratch_path("big.td");
  std::string bytes(200 * 1024 + 17, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131) ^ (i >> 9));  // NULs included
  }
  write_bytes(path, bytes);
  std::string text;
  ASSERT_TRUE(read_file(path, text).is_ok());
  EXPECT_EQ(text, bytes);
  // Sized by the fstat: no speculative page of growth room.
  EXPECT_LT(text.capacity(), bytes.size() + 4096);
  std::remove(path.c_str());
}

TEST(ReadFile, DirectoryIsIoErrorNotAnException) {
  std::string text = "stale";
  const Status s = read_file("/tmp", text);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(errno, EISDIR);
  EXPECT_EQ(s.message(), "cannot read /tmp");
  EXPECT_TRUE(text.empty());
  SourceManager sm;
  EXPECT_FALSE(sm.add_file("/tmp").valid());
}

TEST(ReadFile, SizeUnknownToFstatIsReadThroughTheTail) {
  // /proc files report size 0; the bytes arrive past the sized read.
  std::string text;
  ASSERT_TRUE(read_file("/proc/self/status", text).is_ok());
  EXPECT_NE(text.find("Name:"), std::string::npos);
}

TEST(Diagnostics, CountsAndRendering) {
  SourceManager sm;
  FileId id = sm.add("x.td", "abc\ndef\n");
  DiagnosticEngine diags(&sm);
  diags.error("parser", "bad token", Loc{id, 4});
  diags.warning("drc", "suspicious", Loc{id, 0});
  diags.note("sugar", "inserted voider", {});

  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.warning_count(), 1u);
  EXPECT_EQ(diags.diagnostics().size(), 3u);

  std::string rendered = diags.render();
  EXPECT_NE(rendered.find("error: x.td:2:1: [parser] bad token"),
            std::string::npos);
  EXPECT_NE(rendered.find("warning:"), std::string::npos);
  EXPECT_NE(rendered.find("note:"), std::string::npos);

  EXPECT_EQ(diags.by_phase("drc").size(), 1u);
  EXPECT_EQ(diags.by_phase("nothing").size(), 0u);

  diags.clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.diagnostics().empty());
}

TEST(LocCounter, TydiRules) {
  // Blank lines and comment-only lines do not count.
  EXPECT_EQ(count_tydi_loc(""), 0u);
  EXPECT_EQ(count_tydi_loc("\n\n\n"), 0u);
  EXPECT_EQ(count_tydi_loc("// only a comment\n"), 0u);
  EXPECT_EQ(count_tydi_loc("const x = 1;\n"), 1u);
  EXPECT_EQ(count_tydi_loc("const x = 1; // trailing comment\n"), 1u);
  EXPECT_EQ(count_tydi_loc("  // indented comment\nconst x = 1;\n"), 1u);
  EXPECT_EQ(count_tydi_loc("/* block\nspanning\nlines */\nconst x = 1;\n"),
            1u);
  // Code sharing a line with the end of a block comment still counts.
  EXPECT_EQ(count_tydi_loc("a\n/* c */ b\n"), 2u);
}

TEST(LocCounter, VhdlRules) {
  EXPECT_EQ(count_vhdl_loc("-- comment only\n"), 0u);
  EXPECT_EQ(count_vhdl_loc("signal x : std_logic;\n-- note\n\n"), 1u);
}

TEST(CodeWriter, IndentationManagement) {
  CodeWriter w;
  w.open("begin");
  w.line("middle");
  w.open("nested {");
  w.line("deep");
  w.close("}");
  w.close("end");
  w.line();
  EXPECT_EQ(w.take(), "begin\n  middle\n  nested {\n    deep\n  }\nend\n\n");
  // dedent below zero is clamped.
  CodeWriter w2;
  w2.dedent();
  w2.line("x");
  EXPECT_EQ(w2.take(), "x\n");
}

TEST(CodeWriter, MultiPieceLinesAndRawWrites) {
  CodeWriter w;
  // Pieces concatenate with a single indent prefix and newline.
  w.open("entity e is");
  w.line("signal ", std::string("sig_a"), std::string_view("_data"), " : ",
         "std_logic", ";");
  w.close("end;");
  // All-empty pieces behave like a blank line: no trailing spaces.
  w.indent();
  w.line("", "", "");
  w.dedent();
  w.write("raw");
  w.write(" tail\n");
  const std::size_t bytes = w.bytes();
  const std::string text = w.take();
  EXPECT_EQ(text,
            "entity e is\n  signal sig_a_data : std_logic;\nend;\n\nraw "
            "tail\n");
  EXPECT_EQ(bytes, text.size());
}

TEST(CodeWriter, ConstructorDepthAndTake) {
  CodeWriter w("  ", 1);
  EXPECT_EQ(w.depth(), 1);
  w.line("indented");
  EXPECT_EQ(w.take(), "  indented\n");
  // take() clears the buffer.
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.take(), "");
}

TEST(CodeWriter, AppendSplicesWithoutReindenting) {
  CodeWriter body("  ", 2);
  body.line("inner");
  CodeWriter w;
  w.open("outer {");
  w.append(std::move(body));
  w.close("}");
  EXPECT_EQ(w.take(), "outer {\n    inner\n}\n");
  EXPECT_TRUE(body.empty());  // NOLINT(bugprone-use-after-move): documented
}

TEST(CodeWriter, ChunkBoundaryCorrectnessOnMultiMegabyteOutput) {
  // Varied line lengths force pieces to straddle chunk boundaries at many
  // different offsets; the rope must agree byte for byte with a flat string.
  const std::string pad(97, 'x');
  CodeWriter w;
  std::string expected;
  w.indent();
  for (int i = 0; i < 40000; ++i) {
    std::string number = std::to_string(i);
    std::string_view tail = std::string_view(pad).substr(
        0, static_cast<std::size_t>(i) % pad.size());
    w.line("line ", number, " ", tail, ";");
    expected += "  line ";
    expected += number;
    expected += ' ';
    expected += tail;
    expected += ";\n";
  }
  ASSERT_GT(expected.size(), 3u * CodeWriter::kChunkBytes);
  EXPECT_EQ(w.bytes(), expected.size());
  EXPECT_EQ(w.take(), expected);
}

TEST(CodeWriter, AllocationCountRegression) {
  // ~1 MiB of output written as view pieces must allocate on the order of
  // one chunk per 64 KiB — not one (or more) string per line. The bound is
  // loose (chunk vector growth, indent cache, gtest bookkeeping) but two
  // orders of magnitude below a per-line-temporary regression.
  const std::string pad(64, 'y');
  const std::string_view pad_view(pad);
  CodeWriter w;
  w.indent();
  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 20000; ++i) {
    w.line("entry ", pad_view.substr(0, static_cast<std::size_t>(i) % 60),
           ";");
  }
  const std::uint64_t during =
      g_allocation_count.load(std::memory_order_relaxed) - before;
  EXPECT_GT(w.bytes(), 2u * CodeWriter::kChunkBytes);
  EXPECT_LE(during, 200u) << "CodeWriter should allocate per chunk, not per "
                             "line (20000 lines written)";
}

TEST(TextTable, AlignedRendering) {
  TextTable t;
  t.header({"a", "long header"});
  t.row({"wide cell", "x"});
  std::string out = t.render();
  // Header, rule, one row.
  auto lines = split_lines(out);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find("---"), std::string::npos);
  // Columns align: 'long header' starts at same offset as 'x'.
  EXPECT_EQ(lines[0].find("long header"), lines[2].find("x"));
}

TEST(TextHelpers, FormatAndSplit) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  auto lines = split_lines("a\n\nb");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  using Views = std::vector<std::string_view>;
  EXPECT_EQ(split_nonempty("a,,b,", ','), (Views{"a", "b"}));
  EXPECT_EQ(split_nonempty(",x", ','), (Views{"x"}));
  EXPECT_TRUE(split_nonempty(",,", ',').empty());
  EXPECT_TRUE(split_nonempty("", ',').empty());
}

TEST(TextHelpers, SanitizeIdentifier) {
  EXPECT_EQ(sanitize_identifier("Hello World"), "hello_world");
  EXPECT_EQ(sanitize_identifier("a__b___c"), "a_b_c");
  EXPECT_EQ(sanitize_identifier("\"MED BAG\""), "med_bag");
  EXPECT_EQ(sanitize_identifier("123"), "x123");
  EXPECT_EQ(sanitize_identifier("___"), "x");
  EXPECT_EQ(sanitize_identifier("trailing_"), "trailing");
}

TEST(Status, UnavailableHasStableExitCode) {
  EXPECT_EQ(exit_code(StatusCode::kUnavailable), 12);
  EXPECT_EQ(to_string(StatusCode::kUnavailable), "unavailable");
  // Every exit code round-trips through the inverse mapping — the wire
  // protocol reconstructs remote classifications from exit codes alone.
  for (int c = 0; c < kNumStatusCodes; ++c) {
    const auto code = static_cast<StatusCode>(c);
    EXPECT_EQ(status_code_for_exit(exit_code(code)), code)
        << to_string(code);
  }
  // Unknown exit codes classify as internal rather than crashing.
  EXPECT_EQ(status_code_for_exit(250), StatusCode::kInternal);
}

TEST(Retry, JitterIsDeterministicAndBounded) {
  for (std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    for (int attempt = 1; attempt <= 16; ++attempt) {
      const double j = retry_jitter(seed, attempt);
      EXPECT_GE(j, 0.5);
      EXPECT_LT(j, 1.0);
      EXPECT_EQ(j, retry_jitter(seed, attempt));  // replayable
    }
  }
  // Different seeds desynchronize (thundering-herd protection).
  EXPECT_NE(retry_jitter(1, 1), retry_jitter(2, 1));
}

TEST(Retry, BackoffGrowsCapsAndHonorsServerHint) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_ms = 100.0;
  policy.max_backoff_ms = 250.0;
  policy.multiplier = 2.0;
  policy.seed = 7;
  Retry retry(policy);
  EXPECT_EQ(retry.next_attempt(), 1);

  double d1 = 0.0;
  ASSERT_TRUE(retry.next_delay_ms(0.0, d1));
  EXPECT_EQ(retry.attempts(), 1);
  EXPECT_EQ(retry.next_attempt(), 2);
  EXPECT_GE(d1, 100.0 * 0.5);
  EXPECT_LT(d1, 100.0);

  double d2 = 0.0;
  ASSERT_TRUE(retry.next_delay_ms(0.0, d2));
  EXPECT_GE(d2, 200.0 * 0.5);
  EXPECT_LT(d2, 200.0);

  // Third backoff would be 400ms nominal but caps at 250; a server hint
  // above the computed backoff becomes the floor.
  double d3 = 0.0;
  ASSERT_TRUE(retry.next_delay_ms(600.0, d3));
  EXPECT_EQ(d3, 600.0);

  // Attempt budget exhausted (4 attempts = 3 sleeps).
  double d4 = 0.0;
  EXPECT_FALSE(retry.next_delay_ms(0.0, d4));
}

TEST(Retry, SingleAttemptPolicyNeverSleeps) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  Retry retry(policy);
  double delay = 0.0;
  EXPECT_FALSE(retry.next_delay_ms(1000.0, delay));
}

}  // namespace
}  // namespace tydi::support
