// Parser unit tests: declarations, expressions, generative statements,
// templates, simulation blocks, error recovery, and the pretty-printer
// round-trip property.
#include <gtest/gtest.h>

#include "src/parser/parser.hpp"
#include "src/support/diagnostic.hpp"

namespace tydi::lang {
namespace {

struct ParseOutcome {
  SourceFile file;
  std::size_t errors;
};

ParseOutcome parse_text(std::string_view text) {
  support::DiagnosticEngine diags;
  SourceFile file = parse(text, support::FileId{1}, diags);
  return ParseOutcome{std::move(file), diags.error_count()};
}

const ImplDecl& only_impl(const SourceFile& file) {
  for (const Decl& d : file.decls) {
    if (const auto* impl = std::get_if<ImplDecl>(&d.node)) return *impl;
  }
  ADD_FAILURE() << "no impl in file";
  static ImplDecl empty;
  return empty;
}

TEST(Parser, PackageDeclaration) {
  auto [file, errors] = parse_text("package mylib;");
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(file.package.str(), "mylib");
}

TEST(Parser, ConstDeclarations) {
  auto [file, errors] =
      parse_text("const a = 1; const b: float = 2.5; const c: string = \"x\";");
  EXPECT_EQ(errors, 0u);
  ASSERT_EQ(file.decls.size(), 3u);
  const auto& b = std::get<ConstDecl>(file.decls[1].node);
  EXPECT_EQ(b.name.str(), "b");
  ASSERT_TRUE(b.declared_kind.has_value());
  EXPECT_EQ(*b.declared_kind, ParamKind::kFloat);
}

TEST(Parser, GroupAndUnion) {
  auto [file, errors] = parse_text(R"(
Group AdderInput {
  data0: Bit(32),
  data1: Bit(32),
}
Union Either {
  small: Bit(8),
  big: Bit(64),
}
)");
  EXPECT_EQ(errors, 0u);
  ASSERT_EQ(file.decls.size(), 2u);
  const auto& g = std::get<GroupDecl>(file.decls[0].node);
  EXPECT_FALSE(g.is_union);
  ASSERT_EQ(g.fields.size(), 2u);
  EXPECT_EQ(g.fields[0].name.str(), "data0");
  const auto& u = std::get<GroupDecl>(file.decls[1].node);
  EXPECT_TRUE(u.is_union);
}

TEST(Parser, StreamTypeWithAllOptions) {
  auto [file, errors] = parse_text(
      "type T = Stream(Bit(8), t=2.5, d=2, c=7, s=FlatDesync, r=Reverse, "
      "u=Bit(3));");
  EXPECT_EQ(errors, 0u);
  const auto& alias = std::get<TypeAliasDecl>(file.decls[0].node);
  const auto& s = std::get<StreamTypeExpr>(alias.type->node);
  EXPECT_NE(s.throughput, nullptr);
  EXPECT_NE(s.dimension, nullptr);
  EXPECT_NE(s.complexity, nullptr);
  EXPECT_EQ(*s.synchronicity, Synchronicity::kFlatDesync);
  EXPECT_EQ(*s.direction, StreamDir::kReverse);
  EXPECT_NE(s.user, nullptr);
}

TEST(Parser, StreamLongFormOptionKeys) {
  auto [file, errors] = parse_text(
      "type T = Stream(Bit(8), throughput=2.0, dimension=1, complexity=4);");
  EXPECT_EQ(errors, 0u);
}

TEST(Parser, UnknownStreamOptionIsError) {
  auto [file, errors] = parse_text("type T = Stream(Bit(8), z=3);");
  EXPECT_GT(errors, 0u);
}

TEST(Parser, StreamletWithPortArrayAndClock) {
  auto [file, errors] = parse_text(R"(
streamlet s {
  a: Stream(Bit(8), d=1) in,
  b: Stream(Bit(8), d=1) out [4],
  c: Stream(Bit(8), d=1) in @ fast_clk,
}
)");
  EXPECT_EQ(errors, 0u);
  const auto& s = std::get<StreamletDecl>(file.decls[0].node);
  ASSERT_EQ(s.ports.size(), 3u);
  EXPECT_EQ(s.ports[0].dir, PortDir::kIn);
  EXPECT_EQ(s.ports[1].dir, PortDir::kOut);
  EXPECT_NE(s.ports[1].array_size, nullptr);
  ASSERT_FALSE(s.ports[2].clock_domain.empty());
  EXPECT_EQ(s.ports[2].clock_domain.str(), "fast_clk");
}

TEST(Parser, TemplateParameters) {
  auto [file, errors] = parse_text(R"(
streamlet s<T: type, n: int, name: string, ok: bool, f: float, clk: clockdomain> {
  a: T in,
}
)");
  EXPECT_EQ(errors, 0u);
  const auto& s = std::get<StreamletDecl>(file.decls[0].node);
  ASSERT_EQ(s.params.size(), 6u);
  EXPECT_EQ(s.params[0].kind, ParamKind::kType);
  EXPECT_EQ(s.params[1].kind, ParamKind::kInt);
  EXPECT_EQ(s.params[2].kind, ParamKind::kString);
  EXPECT_EQ(s.params[3].kind, ParamKind::kBool);
  EXPECT_EQ(s.params[4].kind, ParamKind::kFloat);
  EXPECT_EQ(s.params[5].kind, ParamKind::kClockdomain);
}

TEST(Parser, ImplOfStreamletParameter) {
  auto [file, errors] = parse_text(R"(
streamlet pu_s<T: type> { a: T in, }
impl wrap<p: impl of pu_s, T: type> of pu_s<type T> {
  instance u(p),
}
)");
  EXPECT_EQ(errors, 0u);
  const auto& impl = only_impl(file);
  ASSERT_EQ(impl.params.size(), 2u);
  EXPECT_EQ(impl.params[0].kind, ParamKind::kImpl);
  EXPECT_EQ(impl.params[0].impl_of_streamlet.str(), "pu_s");
}

TEST(Parser, ExternalImplWithAtSyntax) {
  auto [file, errors] = parse_text(R"(
streamlet s { a: Stream(Bit(1)) in, }
impl e of s @ external { }
)");
  EXPECT_EQ(errors, 0u);
  EXPECT_TRUE(only_impl(file).external);
}

TEST(Parser, TemplateArgumentsMixedKinds) {
  auto [file, errors] = parse_text(R"(
streamlet pu_s { a: Stream(Bit(1)) in, }
streamlet s { a: Stream(Bit(1)) in, }
impl target of pu_s @ external { }
impl user of s {
  instance x(tmpl<type Bit(8), impl target, 3 + 4, "hello", true>),
}
)");
  EXPECT_EQ(errors, 0u);
  const ImplDecl* user = nullptr;
  for (const Decl& d : file.decls) {
    if (const auto* i = std::get_if<ImplDecl>(&d.node)) {
      if (i->name.str() == "user") user = i;
    }
  }
  ASSERT_NE(user, nullptr);
  const auto& inst = std::get<InstanceStmt>(user->body[0].node);
  ASSERT_EQ(inst.args.size(), 5u);
  EXPECT_EQ(inst.args[0].kind, TemplateArg::Kind::kType);
  EXPECT_EQ(inst.args[1].kind, TemplateArg::Kind::kImpl);
  EXPECT_EQ(inst.args[2].kind, TemplateArg::Kind::kExpr);
}

TEST(Parser, ConnectionsWithIndicesAndStructural) {
  auto [file, errors] = parse_text(R"(
streamlet s { a: Stream(Bit(1)) in [2], b: Stream(Bit(1)) out, }
impl i of s {
  x[0].p => y.q[1],
  a[1] => b @structural,
}
)");
  EXPECT_EQ(errors, 0u);
  const auto& impl = only_impl(file);
  const auto& c0 = std::get<ConnectStmt>(impl.body[0].node);
  ASSERT_FALSE(c0.src.instance.empty());
  EXPECT_NE(c0.src.instance_index, nullptr);
  EXPECT_NE(c0.dst.port_index, nullptr);
  const auto& c1 = std::get<ConnectStmt>(impl.body[1].node);
  EXPECT_TRUE(c1.structural);
}

TEST(Parser, GenerativeForIfAssert) {
  auto [file, errors] = parse_text(R"(
streamlet s { a: Stream(Bit(1)) in, }
impl i of s {
  for k in 0->4 {
    if (k % 2 == 0) {
      x[k].p => y.q[k],
    } else {
      assert(k > 0, "odd");
    }
  }
}
)");
  EXPECT_EQ(errors, 0u);
  const auto& impl = only_impl(file);
  const auto& f = std::get<ForStmt>(impl.body[0].node);
  EXPECT_EQ(f.var.str(), "k");
  const auto& cond = std::get<IfStmt>(f.body[0].node);
  EXPECT_EQ(cond.then_body.size(), 1u);
  EXPECT_EQ(cond.else_body.size(), 1u);
}

TEST(Parser, InstanceWithExplicitIndexAndArray) {
  auto [file, errors] = parse_text(R"(
streamlet s { a: Stream(Bit(1)) in, }
impl i of s {
  instance named[3](foo),
  instance arr(bar) [8],
}
)");
  EXPECT_EQ(errors, 0u);
  const auto& impl = only_impl(file);
  const auto& a = std::get<InstanceStmt>(impl.body[0].node);
  EXPECT_NE(a.name_index, nullptr);
  const auto& b = std::get<InstanceStmt>(impl.body[1].node);
  EXPECT_NE(b.array_size, nullptr);
}

TEST(Parser, SimBlockFullSyntax) {
  auto [file, errors] = parse_text(R"(
streamlet s { a: Stream(Bit(1)) in, b: Stream(Bit(1)) out, }
impl i of s @ external {
  sim {
    state mode = "idle";
    on start {
      send(b, 1);
    }
    on a.receive && b.receive {
      if (mode == "idle") {
        delay(8);
        send(b, payload * 2);
        set mode = "busy";
      } else {
        set mode = "idle";
      }
      ack(a);
    }
  }
}
)");
  EXPECT_EQ(errors, 0u);
  const auto& impl = only_impl(file);
  ASSERT_TRUE(impl.sim.has_value());
  EXPECT_EQ(impl.sim->states.size(), 1u);
  ASSERT_EQ(impl.sim->handlers.size(), 2u);
  EXPECT_TRUE(impl.sim->handlers[0].wait_ports.empty());  // on start
  EXPECT_EQ(impl.sim->handlers[1].wait_ports.size(), 2u);
}

TEST(Parser, ImportIsAcceptedAndIgnored) {
  auto [file, errors] = parse_text("import std; const x = 1;");
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(file.decls.size(), 1u);
}

TEST(Parser, ErrorRecoveryReportsMultipleErrors) {
  auto [file, errors] = parse_text(R"(
const = 5;
type T = Stream(Bit(8), d=1);
const ok = 2;
streamlet { }
const also_ok = 3;
)");
  EXPECT_GE(errors, 2u);
  // Recovery must still capture the valid declarations.
  std::size_t const_count = 0;
  for (const Decl& d : file.decls) {
    if (std::holds_alternative<ConstDecl>(d.node)) ++const_count;
  }
  EXPECT_GE(const_count, 2u);
}

TEST(Parser, MissingSemicolonReported) {
  auto outcome = parse_text("const a = 5 const b = 6;");
  EXPECT_GT(outcome.errors, 0u);
}

TEST(Parser, PanicModeRecoversAtLeastThreeErrorsFromOneSource) {
  // Panic-mode recovery: each broken construct reports exactly one primary
  // error, the parser re-syncs on `;` / `}`, and the next broken construct
  // reports again — so one pass over a thrice-broken file yields >= 3
  // diagnostics instead of stopping at the first or cascading dozens.
  auto [file, errors] = parse_text(R"(
const = 1;
const good_one = 2;
type = Stream(Bit(8), d=1);
const good_two = 3;
streamlet { }
const good_three = 4;
)");
  EXPECT_GE(errors, 3u);
  // Panic mode suppresses cascades: nowhere near one error per token.
  EXPECT_LE(errors, 8u);
  // Every well-formed declaration between the broken ones was recovered.
  std::size_t const_count = 0;
  for (const Decl& d : file.decls) {
    if (std::holds_alternative<ConstDecl>(d.node)) ++const_count;
  }
  EXPECT_GE(const_count, 3u);
}

TEST(Parser, TemplateAngleVsComparisonInArgs) {
  // Comparisons inside template args must be parenthesized; plain
  // arithmetic must work unparenthesized.
  auto ok = parse_text(R"(
streamlet s { a: Stream(Bit(1)) in, }
impl i of s {
  instance x(foo<3 + 4 * 2, (1 < 2)>),
}
)");
  EXPECT_EQ(ok.errors, 0u);
}

// --- Round-trip property: parse(print(parse(text))) == parse once --------

class ParserRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRoundTrip, PrettyPrintedSourceReparsesIdentically) {
  support::DiagnosticEngine diags1;
  SourceFile first = parse(GetParam(), support::FileId{1}, diags1);
  ASSERT_EQ(diags1.error_count(), 0u) << diags1.render();

  std::string printed = to_source(first);
  support::DiagnosticEngine diags2;
  SourceFile second = parse(printed, support::FileId{1}, diags2);
  ASSERT_EQ(diags2.error_count(), 0u)
      << "printed source failed to reparse:\n" << printed << diags2.render();

  // Printing the reparsed tree must be a fixed point.
  EXPECT_EQ(printed, to_source(second));
}

INSTANTIATE_TEST_SUITE_P(
    Sources, ParserRoundTrip,
    ::testing::Values(
        "const x = 1 + 2 * 3;",
        "const arr = [1, 2, 3]; const y = arr[1] + len(arr);",
        "const w = ceil(log2(10 ** 15 - 1));",
        "type T = Stream(Bit(8), t=2.000000, d=2, c=7);",
        "Group G { a: Bit(1), b: Bit(2), }",
        "Union U { a: Bit(1), b: Bit(2), }",
        R"(streamlet s<T: type, n: int> {
  p: T in [4],
  q: T out,
})",
        R"(streamlet s { a: Stream(Bit(1), d=1) in, }
impl i of s @ external {
})",
        R"(streamlet s { a: Stream(Bit(1), d=1) in [2], b: Stream(Bit(1), d=1) out [2], }
impl i of s {
  for k in (0 -> 2) {
    a[k] => b[k],
  }
})"));

}  // namespace
}  // namespace tydi::lang
