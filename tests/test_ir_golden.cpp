// Golden-file determinism for the IR-centred backend pipeline: compiling
// the same program twice must produce byte-identical Tydi-IR text and VHDL
// (the IR is the backend contract — any nondeterminism in lowering, symbol
// indexing or emission order shows up here). Plus DRC rule coverage driven
// through the new IR path (drc::check consumes ir::Module directly) and the
// fletchgen reader manifest recovered from the IR.
#include <gtest/gtest.h>

#include "src/drc/drc.hpp"
#include "src/driver/compiler.hpp"
#include "src/fletcher/fletchgen.hpp"
#include "src/ir/ir.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/intern.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {
namespace {

// The quickstart example's design (paper Sec. IV-B adder interface).
constexpr std::string_view kQuickstart = R"tydi(
Group AdderInput {
  data0: Bit(32),
  data1: Bit(32),
}
type Input = Stream(AdderInput, d=1, c=2);

Group Bit32Result {
  data: Bit(32),
  overflow: Bit(1),
}
type Result = Stream(Bit32Result, d=1, c=2);

streamlet adder_top_s {
  operands: Input in,
  sum: Result out,
}

impl adder_top of adder_top_s {
  instance add(adder_i<type Input, type Result>),
  operands => add.in_,
  add.out => sum,
}
)tydi";

// The pipeline_chain example shape: a chain of identical template stages.
constexpr std::string_view kPipelineChain = R"tydi(
type t_word = Stream(Bit(16), d=1, c=2);

streamlet stage_s { in_: t_word in, out: t_word out, }
impl stage of stage_s @ external { }

streamlet chain_s { feed: t_word in, result: t_word out, }
impl chain_top of chain_s {
  instance st(stage) [3],
  feed => st[0].in_,
  for i in 0->2 {
    st[i].out => st[i + 1].in_,
  }
  st[2].out => result,
}
)tydi";

driver::CompileResult compile_text(std::string_view source,
                                   const std::string& top) {
  driver::CompileOptions options;
  options.top = top;
  return driver::compile_source(std::string(source), options);
}

TEST(IrGolden, QuickstartDeterministic) {
  auto a = compile_text(kQuickstart, "adder_top");
  auto b = compile_text(kQuickstart, "adder_top");
  ASSERT_TRUE(a.success()) << a.report();
  EXPECT_FALSE(a.ir_text.empty());
  EXPECT_FALSE(a.vhdl_text.empty());
  EXPECT_EQ(a.ir_text, b.ir_text);
  EXPECT_EQ(a.vhdl_text, b.vhdl_text);
}

TEST(IrGolden, PipelineChainDeterministic) {
  auto a = compile_text(kPipelineChain, "chain_top");
  auto b = compile_text(kPipelineChain, "chain_top");
  ASSERT_TRUE(a.success()) << a.report();
  EXPECT_EQ(a.ir_text, b.ir_text);
  EXPECT_EQ(a.vhdl_text, b.vhdl_text);
}

TEST(IrGolden, AllTpchQueriesDeterministic) {
  for (const tpch::QueryCase& q : tpch::queries()) {
    auto a = tpch::compile_query(q);
    auto b = tpch::compile_query(q);
    ASSERT_TRUE(a.success()) << q.id << q.note << "\n" << a.report();
    EXPECT_EQ(a.ir_text, b.ir_text) << q.id << q.note;
    EXPECT_EQ(a.vhdl_text, b.vhdl_text) << q.id << q.note;
  }
}

// ---------------------------------------------------------------------------
// Cross-compile template memo (driver::CompileSession): a warm compile —
// served by the process-wide memo and the parse cache — must be
// byte-identical to the cold compile and to a standalone driver::compile.
// ---------------------------------------------------------------------------

TEST(IrGolden, SessionColdVsWarmByteIdentical) {
  const tpch::QueryCase* q6 = tpch::find_query("TPC-H 6");
  ASSERT_NE(q6, nullptr);
  driver::CompileSession session;
  auto cold = tpch::compile_query(*q6, session);
  ASSERT_TRUE(cold.success()) << cold.report();
  EXPECT_EQ(cold.template_cache.session_hits(), 0u);

  auto warm = tpch::compile_query(*q6, session);
  ASSERT_TRUE(warm.success()) << warm.report();
  // The second compile is served by the memo (top impl replays its whole
  // insertion window) and must reproduce the IR and VHDL byte for byte.
  EXPECT_GT(warm.template_cache.session_hits(), 0u);
  EXPECT_EQ(warm.template_cache.misses(), 0u);
  EXPECT_EQ(cold.ir_text, warm.ir_text);
  EXPECT_EQ(cold.vhdl_text, warm.vhdl_text);

  // And both match a session-less compile exactly.
  auto plain = tpch::compile_query(*q6);
  EXPECT_EQ(plain.ir_text, cold.ir_text);
  EXPECT_EQ(plain.vhdl_text, cold.vhdl_text);
}

TEST(IrGolden, SessionWarmBatchMatchesColdForAllTpchQueries) {
  driver::CompileSession session;
  std::vector<std::pair<std::string, std::string>> cold_texts;
  for (const tpch::QueryCase& q : tpch::queries()) {
    auto r = tpch::compile_query(q, session);
    ASSERT_TRUE(r.success()) << q.id << q.note << "\n" << r.report();
    cold_texts.emplace_back(r.ir_text, r.vhdl_text);
  }
  const obs::Counter& impl_hits =
      obs::MetricsRegistry::global().counter("tydi.memo.impl_hits");
  const std::uint64_t impl_hits0 = impl_hits.value();
  std::size_t i = 0;
  for (const tpch::QueryCase& q : tpch::queries()) {
    auto r = tpch::compile_query(q, session);
    ASSERT_TRUE(r.success()) << q.id << q.note << "\n" << r.report();
    EXPECT_EQ(r.ir_text, cold_texts[i].first) << q.id << q.note;
    EXPECT_EQ(r.vhdl_text, cold_texts[i].second) << q.id << q.note;
    ++i;
  }
  EXPECT_GT(impl_hits.value(), impl_hits0);
}

TEST(IrGolden, SessionMemoInvalidatesOnSourceChange) {
  // Same session, same file name and id, different content: the stamped
  // memo entries must not serve the stale elaboration.
  const std::string a = R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t out, }
impl top of s { a => b, }
)";
  std::string b = a;
  const std::string needle = "Bit(8)";
  b.replace(b.find(needle), needle.size(), "Bit(16)");

  driver::CompileOptions options;
  options.top = "top";
  driver::CompileSession session;
  auto ra = session.compile({{"input.td", a}}, options);
  ASSERT_TRUE(ra.success()) << ra.report();
  auto rb = session.compile({{"input.td", b}}, options);
  ASSERT_TRUE(rb.success()) << rb.report();
  EXPECT_NE(ra.vhdl_text, rb.vhdl_text);
  EXPECT_NE(rb.vhdl_text.find("std_logic_vector(15 downto 0)"),
            std::string::npos);
  // Flip back: the replaced entry must not leak the Bit(16) elaboration.
  auto ra2 = session.compile({{"input.td", a}}, options);
  ASSERT_TRUE(ra2.success()) << ra2.report();
  EXPECT_EQ(ra.vhdl_text, ra2.vhdl_text);
  EXPECT_EQ(ra.ir_text, ra2.ir_text);
  // Explicit invalidation drops every cache.
  session.invalidate();
  EXPECT_EQ(session.memo().impl_count(), 0u);
  EXPECT_EQ(session.parse_cache_size(), 0u);
  auto ra3 = session.compile({{"input.td", a}}, options);
  EXPECT_EQ(ra3.template_cache.session_hits(), 0u);
  EXPECT_EQ(ra.vhdl_text, ra3.vhdl_text);
}

TEST(IrGolden, SessionMemoInvalidatesOnCrossFileDependencyChange) {
  // The decl's own file is unchanged; the file defining the type it
  // resolves changes. Dependency stamps must reject the memo entry — a
  // session compile stays byte-identical to a sessionless compile.
  const std::string types_v1 = "type t = Stream(Bit(8), d=1, c=2);\n";
  const std::string types_v2 = "type t = Stream(Bit(16), d=1, c=2);\n";
  const std::string design = R"(
streamlet s { a: t in, b: t out, }
impl top of s { a => b, }
)";
  driver::CompileOptions options;
  options.top = "top";
  driver::CompileSession session;
  auto v1 = session.compile(
      {{"types.td", types_v1}, {"design.td", design}}, options);
  ASSERT_TRUE(v1.success()) << v1.report();
  auto v2 = session.compile(
      {{"types.td", types_v2}, {"design.td", design}}, options);
  ASSERT_TRUE(v2.success()) << v2.report();
  EXPECT_NE(v2.vhdl_text.find("std_logic_vector(15 downto 0)"),
            std::string::npos)
      << "stale memo entry served after a cross-file type edit";
  auto plain = driver::compile(
      {{"types.td", types_v2}, {"design.td", design}}, options);
  EXPECT_EQ(plain.vhdl_text, v2.vhdl_text);
  EXPECT_EQ(plain.ir_text, v2.ir_text);

  // Same shape for a cross-file *constant* edit.
  const std::string consts_v1 = "const w = 8;\n";
  const std::string consts_v2 = "const w = 24;\n";
  const std::string const_design = R"(
streamlet cs { a: Stream(Bit(w), d=1, c=2) in, b: Stream(Bit(w), d=1, c=2) out, }
impl ctop of cs { a => b, }
)";
  options.top = "ctop";
  auto c1 = session.compile(
      {{"consts.td", consts_v1}, {"design.td", const_design}}, options);
  ASSERT_TRUE(c1.success()) << c1.report();
  auto c2 = session.compile(
      {{"consts.td", consts_v2}, {"design.td", const_design}}, options);
  ASSERT_TRUE(c2.success()) << c2.report();
  EXPECT_NE(c2.vhdl_text.find("std_logic_vector(23 downto 0)"),
            std::string::npos)
      << "stale memo entry served after a cross-file constant edit";
}

TEST(IrGolden, SessionMemoHandlesSharedChildrenAcrossDifferentTops) {
  // Compile 1 (top1) elaborates wz before wy; the shared child `leaf`
  // enters the design through wz, so wy's memoized insertion window lacks
  // it. Compile 2 (top2) reaches wy first: the memo must refuse the hit
  // (missing precondition) and re-elaborate, matching a cold compile.
  const std::string source = R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet leaf_s { a: t in, b: t out, }
impl leaf of leaf_s @ external { }
streamlet wrap_s { a: t in, b: t out, }
impl wz of wrap_s { instance c(leaf), a => c.a, c.b => b, }
impl wy of wrap_s { instance c(leaf), a => c.a, c.b => b, }
streamlet top_s { a: t in, a2: t in, b: t out, b2: t out, }
impl top1 of top_s {
  instance z(wz),
  instance y(wy),
  a => z.a, a2 => y.a, z.b => b, y.b => b2,
}
streamlet top2_s { a: t in, b: t out, }
impl top2 of top2_s { instance y(wy), a => y.a, y.b => b, }
)";
  driver::CompileSession session;
  driver::CompileOptions o1;
  o1.top = "top1";
  auto r1 = session.compile({{"input.td", source}}, o1);
  ASSERT_TRUE(r1.success()) << r1.report();
  driver::CompileOptions o2;
  o2.top = "top2";
  auto r2 = session.compile({{"input.td", source}}, o2);
  ASSERT_TRUE(r2.success()) << r2.report();
  auto plain = driver::compile({{"input.td", source}}, o2);
  EXPECT_EQ(plain.ir_text, r2.ir_text);
  EXPECT_EQ(plain.vhdl_text, r2.vhdl_text);
}

TEST(IrGolden, SessionMemoTracksTransitiveConstChains) {
  // w2 in consts_b.td is baked from base in consts_a.td; editing only
  // consts_a.td must still invalidate entries that read w2.
  const std::string a_v1 = "const base = 8;\n";
  const std::string a_v2 = "const base = 16;\n";
  const std::string b = "const w2 = base * 2;\n";
  const std::string design = R"(
streamlet s { a: Stream(Bit(w2), d=1, c=2) in, b: Stream(Bit(w2), d=1, c=2) out, }
impl top of s { a => b, }
)";
  driver::CompileOptions options;
  options.top = "top";
  driver::CompileSession session;
  auto r1 = session.compile(
      {{"consts_a.td", a_v1}, {"consts_b.td", b}, {"design.td", design}},
      options);
  ASSERT_TRUE(r1.success()) << r1.report();
  auto r2 = session.compile(
      {{"consts_a.td", a_v2}, {"consts_b.td", b}, {"design.td", design}},
      options);
  ASSERT_TRUE(r2.success()) << r2.report();
  EXPECT_NE(r2.vhdl_text.find("std_logic_vector(31 downto 0)"),
            std::string::npos)
      << "stale memo entry: transitive const chain not invalidated";
}

TEST(IrGolden, SessionMemoTracksNestedTypeAliasChains) {
  // `t` in types_b.td aliases `ft` in types_a.td. The second streamlet
  // resolves `t` through the per-compile type cache — its entry must still
  // depend on types_a.td.
  const std::string a_v1 = "type ft = Stream(Bit(8), d=1, c=2);\n";
  const std::string a_v2 = "type ft = Stream(Bit(16), d=1, c=2);\n";
  const std::string b = "type t = ft;\n";
  const std::string design = R"(
streamlet s1 { a: t in, b: t out, }
impl i1 of s1 { a => b, }
streamlet s2 { a: t in, b: t out, }
impl i2 of s2 { a => b, }
streamlet top_s { a: t in, a2: t in, b: t out, b2: t out, }
impl top1 of top_s {
  instance x(i1),
  instance y(i2),
  a => x.a, a2 => y.a, x.b => b, y.b => b2,
}
streamlet top2_s { a: t in, b: t out, }
impl top2 of top2_s { instance y(i2), a => y.a, y.b => b, }
)";
  driver::CompileSession session;
  driver::CompileOptions o1;
  o1.top = "top1";
  auto r1 = session.compile(
      {{"types_a.td", a_v1}, {"types_b.td", b}, {"design.td", design}}, o1);
  ASSERT_TRUE(r1.success()) << r1.report();
  driver::CompileOptions o2;
  o2.top = "top2";
  auto r2 = session.compile(
      {{"types_a.td", a_v2}, {"types_b.td", b}, {"design.td", design}}, o2);
  ASSERT_TRUE(r2.success()) << r2.report();
  EXPECT_NE(r2.vhdl_text.find("std_logic_vector(15 downto 0)"),
            std::string::npos)
      << "stale memo entry: nested type alias chain not invalidated";
  auto plain = driver::compile(
      {{"types_a.td", a_v2}, {"types_b.td", b}, {"design.td", design}}, o2);
  EXPECT_EQ(plain.vhdl_text, r2.vhdl_text);
}

TEST(IrGolden, CompileBatchRunsTheWholeWorkload) {
  driver::CompileSession session;
  const std::vector<driver::BatchJob> jobs = tpch::batch_jobs();
  driver::BatchResult cold = driver::compile_batch(session, jobs);
  EXPECT_TRUE(cold.success()) << cold.render();
  EXPECT_EQ(cold.entries.size(), tpch::queries().size());
  EXPECT_GT(cold.bytes_emitted, 0u);

  driver::BatchResult warm = driver::compile_batch(session, jobs);
  EXPECT_TRUE(warm.success()) << warm.render();
  EXPECT_EQ(warm.bytes_emitted, cold.bytes_emitted);
  // Warm batch is memo-served: strictly better cache behaviour.
  EXPECT_GT(warm.template_cache.session_hits(), 0u);
  EXPECT_GT(warm.template_cache.hit_rate(), cold.template_cache.hit_rate());
  EXPECT_GE(warm.template_cache.hit_rate(), 0.9);
  // Rendered report carries per-query rows plus the aggregate.
  const std::string report = warm.render();
  EXPECT_NE(report.find("TPC-H 6"), std::string::npos);
  EXPECT_NE(report.find("(aggregate)"), std::string::npos);
}

TEST(IrGolden, ReEmittingTheStoredModuleIsStable) {
  auto result = compile_text(kQuickstart, "adder_top");
  ASSERT_TRUE(result.success()) << result.report();
  // Emitting the module again (and re-lowering the design) reproduces the
  // text byte for byte.
  EXPECT_EQ(ir::emit(result.ir), result.ir_text);
  EXPECT_EQ(ir::emit(ir::lower(result.design)), result.ir_text);
}

// ---------------------------------------------------------------------------
// DRC rules driven directly through the IR path: lower the design, run
// drc::check on the module, and read the per-rule counts.
// ---------------------------------------------------------------------------

drc::DrcReport check_ir(std::string_view source, const std::string& top,
                        bool sugaring = false) {
  driver::CompileOptions options;
  options.top = top;
  options.sugaring = sugaring;
  options.run_drc = false;  // run the check ourselves on the module
  options.emit_vhdl = false;
  auto result = driver::compile_source(std::string(source), options);
  support::DiagnosticEngine diags;
  return drc::check(result.ir, drc::DrcOptions{}, diags);
}

TEST(DrcViaIr, CleanDesignHasNoViolations) {
  auto report = check_ir(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t out, }
impl top of s {
  a => b,
}
)",
                         "top");
  EXPECT_TRUE(report.clean()) << report.render();
}

TEST(DrcViaIr, TypeMismatchReported) {
  auto report = check_ir(R"(
type t1 = Stream(Bit(8), d=1, c=2);
type t2 = Stream(Bit(16), d=1, c=2);
streamlet s { a: t1 in, b: t2 out, }
impl top of s {
  a => b,
}
)",
                         "top");
  EXPECT_GT(report.count(drc::Rule::kTypeEquality), 0u);
}

TEST(DrcViaIr, ClockDomainCrossingReported) {
  auto report = check_ir(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in @ clk_a, b: t out @ clk_b, }
impl top of s {
  a => b,
}
)",
                         "top");
  EXPECT_GT(report.count(drc::Rule::kClockDomain), 0u);
}

TEST(DrcViaIr, DirectionViolationReported) {
  auto report = check_ir(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t out, }
impl top of s {
  b => a,
}
)",
                         "top");
  EXPECT_GT(report.count(drc::Rule::kDirection), 0u);
}

TEST(DrcViaIr, PortUseCountViolationsReported) {
  // b driven twice, c never driven.
  auto report = check_ir(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, a2: t in, b: t out, c: t out, }
impl top of s {
  a => b,
  a2 => b,
}
)",
                         "top");
  EXPECT_GE(report.count(drc::Rule::kPortUseCount), 2u);
}

TEST(DrcViaIr, ResolutionViolationsComeFromEndpointStatus) {
  auto report = check_ir(R"(
type t = Stream(Bit(8), d=1, c=2);
streamlet s { a: t in, b: t out, }
impl top of s {
  a => nosuch.in_,
  a => missing_port,
}
)",
                         "top");
  EXPECT_GE(report.count(drc::Rule::kResolution), 2u);
}

TEST(DrcViaIr, HandBuiltModuleChecksWithoutElaboration) {
  // The DRC consumes ir::Module directly — a module assembled by hand (no
  // elab::Design anywhere) is checkable too.
  ir::Module m;
  ir::IrStreamlet s;
  s.sym = support::intern("hand_s");
  s.name = "hand_s";
  s.display_name = "hand_s";
  ir::IrPort p;
  p.sym = support::intern("a");
  p.name = "a";
  p.vhdl = "a";
  p.dir = lang::PortDir::kIn;
  p.clock_domain = "default";
  p.clock_sym = support::intern("default");
  s.ports.push_back(std::move(p));
  m.streamlets.push_back(
      std::make_shared<const ir::IrStreamlet>(std::move(s)));

  ir::IrImpl impl;
  impl.sym = support::intern("hand_i");
  impl.name = "hand_i";
  impl.display_name = "hand_i";
  impl.streamlet_sym = support::intern("hand_s");
  impl.streamlet = 0;
  m.impls.push_back(std::move(impl));
  m.rebuild_index();

  support::DiagnosticEngine diags;
  auto report = drc::check(m, drc::DrcOptions{}, diags);
  // Source port `a` is never used -> exactly one R2 violation.
  EXPECT_EQ(report.count(drc::Rule::kPortUseCount), 1u);
}

// ---------------------------------------------------------------------------
// Fletchgen as an IR consumer: reader interfaces are recovered from the
// lowered module, not from a re-traversal of the elaborated design.
// ---------------------------------------------------------------------------

TEST(FletchgenViaIr, RecoversReadersFromLoweredTpchQuery) {
  const tpch::QueryCase* q6 = tpch::find_query("TPC-H 6");
  ASSERT_NE(q6, nullptr);
  auto result = tpch::compile_query(*q6);
  ASSERT_TRUE(result.success()) << result.report();

  auto readers = fletcher::readers_of(result.ir);
  ASSERT_FALSE(readers.empty());
  bool found_lineitem = false;
  for (const fletcher::ReaderInfo& r : readers) {
    if (r.table == "lineitem") {
      found_lineitem = true;
      EXPECT_FALSE(r.ports.empty());
      for (const fletcher::ReaderPort& p : r.ports) {
        EXPECT_GT(p.data_bits, 0) << p.column;
      }
    }
  }
  EXPECT_TRUE(found_lineitem);

  std::string manifest = fletcher::generate_reader_manifest(result.ir);
  EXPECT_NE(manifest.find("reader lineitem"), std::string::npos);
  EXPECT_NE(manifest.find("bits="), std::string::npos);
  // Deterministic.
  EXPECT_EQ(manifest, fletcher::generate_reader_manifest(result.ir));
}

}  // namespace
}  // namespace tydi
