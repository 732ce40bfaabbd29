// Pins the front end's observable behaviour, so a rewrite of the lexer or
// the parser has to reproduce it exactly:
//  - the token stream of every shipped source (stdlib, the Fletcher
//    interfaces, every TPC-H query): kind, spelling, int/float value and
//    location of each token, as a count and a digest per source;
//  - identifiers around the small-string boundary (15, 16 and 64 bytes);
//  - the text and location of every lexer error;
//  - the parser's diagnostics over a corpus of malformed declarations,
//    including panic-mode suppression and re-synchronisation;
//  - a seeded mutation sweep over the TPC-H sources (byte flips,
//    truncation at every token boundary, inserted `"`, `/*` and `0x`):
//    the parser never crashes and a repeat parse reports the same
//    diagnostics and builds the same tree. Each mutant lives in an
//    exactly-sized heap buffer, so a sanitizer build catches any read past
//    the end of the text.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/lexer/lexer.hpp"
#include "src/parser/parser.hpp"
#include "src/stdlib/stdlib.hpp"
#include "src/support/diagnostic.hpp"
#include "src/support/hash.hpp"
#include "src/support/source.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi::lang {
namespace {

struct Source {
  std::string name;
  std::string_view text;
};

std::vector<Source> shipped_sources() {
  std::vector<Source> out;
  out.push_back({"stdlib", stdlib::stdlib_source()});
  out.push_back({"fletcher", tpch::fletcher_source()});
  for (const tpch::QueryCase& q : tpch::queries()) {
    out.push_back({q.top_impl + (q.sugaring ? "" : "_manual"), q.source});
  }
  return out;
}

// One line per token: kind, spelling, integer value, float bits, location.
std::string render_tokens(std::string_view text, std::size_t* count) {
  Lexer lexer(text, support::FileId{7});
  std::string out;
  *count = 0;
  for (;;) {
    Token t = lexer.next();
    ++*count;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t.float_value, sizeof bits);
    out += std::to_string(static_cast<int>(t.kind));
    out += ' ';
    out.append(t.text.data(), t.text.size());
    out += ' ' + std::to_string(t.int_value) + ' ' + std::to_string(bits) +
           ' ' + std::to_string(t.loc.file.value) + ':' +
           std::to_string(t.loc.offset) + '\n';
    if (t.is(TokenKind::kEnd)) break;
  }
  return out;
}

// Parses `text` as file "t.td" and renders every diagnostic.
std::string diagnose(std::string_view text) {
  support::SourceManager sm;
  support::FileId id = sm.add("t.td", std::string(text));
  support::DiagnosticEngine diags(&sm);
  (void)parse(sm.text(id), id, diags);
  return diags.render();
}

std::string escaped(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
      static constexpr char kHex[] = "0123456789abcdef";
      const auto u = static_cast<unsigned char>(c);
      out += std::string("\\x") + kHex[u >> 4] + kHex[u & 15] + "\"\"";
    } else {
      out += c;
    }
  }
  return out;
}

struct TokenPin {
  const char* source;
  std::size_t tokens;
  std::uint64_t digest;
};

// Token count and FNV-1a digest of render_tokens() per shipped source.
constexpr TokenPin kTokenPins[] = {
    {"stdlib", 1101, 2397387939657652152ULL},
    {"fletcher", 1432, 11835754767402969610ULL},
    {"q1_i_manual", 1024, 10137263929432514265ULL},
    {"q1_i", 761, 6920651919418068586ULL},
    {"q3_i", 475, 39227616103741144ULL},
    {"q5_i", 533, 10324601572160280385ULL},
    {"q6_i", 408, 16924261815574442827ULL},
    {"q19_i", 1342, 10984639120633410263ULL},
};

TEST(FrontendPin, TokenStreamOfEveryShippedSource) {
  for (const Source& src : shipped_sources()) {
    std::size_t count = 0;
    const std::string rendered = render_tokens(src.text, &count);
    const std::uint64_t digest = support::fnv1a64(rendered);
    const TokenPin* pin = nullptr;
    for (const TokenPin& p : kTokenPins) {
      if (src.name == p.source) pin = &p;
    }
    if (pin == nullptr) {
      ADD_FAILURE() << "no pin for " << src.name << ": {\"" << src.name
                    << "\", " << count << ", " << digest << "ULL},";
      continue;
    }
    EXPECT_EQ(count, pin->tokens) << src.name;
    EXPECT_EQ(digest, pin->digest) << src.name;
  }
}

TEST(FrontendPin, TokenSpellingsAreTheSourceBytes) {
  for (const Source& src : shipped_sources()) {
    Lexer lexer(src.text, support::FileId{1});
    for (Token t = lexer.next(); !t.is(TokenKind::kEnd); t = lexer.next()) {
      ASSERT_NE(t.kind, TokenKind::kError) << src.name << "@" << t.loc.offset;
      const std::uint32_t at =
          t.loc.offset + (t.is(TokenKind::kStringLiteral) ? 1 : 0);
      EXPECT_EQ(src.text.substr(at, t.text.size()), t.text)
          << src.name << "@" << t.loc.offset;
    }
  }
}

TEST(FrontendPin, IdentifiersAroundTheSmallStringBoundary) {
  const std::string id15(15, 'a');
  const std::string id16 = "b" + std::string(15, '_');
  const std::string id64 = "c" + std::string(62, '9') + "d";
  const std::string text = id15 + " " + id16 + "\n" + id64 + " 0x" +
                           std::string(15, 'f') + " " + id16;
  Lexer lexer(text, support::FileId{3});
  const std::string expected[] = {id15, id16, id64};
  std::uint32_t offsets[] = {0, 16, 33};
  for (int i = 0; i < 3; ++i) {
    Token t = lexer.next();
    EXPECT_EQ(t.kind, TokenKind::kIdentifier);
    EXPECT_EQ(t.text, expected[i]);
    EXPECT_EQ(t.loc.offset, offsets[i]);
    EXPECT_EQ(t.loc.file.value, 3u);
  }
  Token hex = lexer.next();
  EXPECT_EQ(hex.kind, TokenKind::kIntLiteral);
  EXPECT_EQ(hex.text, std::string(15, 'f'));
  EXPECT_EQ(hex.int_value, 0xfffffffffffffffLL);
  Token again = lexer.next();
  EXPECT_EQ(again.text, id16);
  EXPECT_EQ(lexer.next().kind, TokenKind::kEnd);

  // The names survive into the tree and back out of the printer.
  const std::string decl = "const " + id15 + " = 1;\nconst " + id64 +
                           " = " + id15 + " + " + id16 + ";\n";
  support::DiagnosticEngine diags;
  SourceFile file = parse(decl, support::FileId{1}, diags);
  EXPECT_EQ(diags.error_count(), 0u);
  const std::string printed = to_source(file);
  EXPECT_NE(printed.find("const " + id64 + " = "), std::string::npos)
      << printed;
  EXPECT_NE(printed.find(id15 + " + " + id16), std::string::npos) << printed;
}

struct DiagCase {
  const char* source;
  const char* expected;  // DiagnosticEngine::render() of the parse
};

void check_cases(const DiagCase* cases, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::string actual = diagnose(cases[i].source);
    EXPECT_EQ(actual, cases[i].expected)
        << "CASE " << i << " ACTUAL \"" << escaped(actual) << "\"";
  }
}

// Every lexer error, with the text and location it is reported at. The
// lexer's error tokens are reported where the parser reads an expression;
// elsewhere the parser names the invalid token it found.
constexpr DiagCase kLexerErrors[] = {
    {"const s = \"abc",
     "error: t.td:1:11: [lexer] unterminated string literal\n"
     "error: t.td:1:15: [parser] expected ';' after const declaration, found end of input\n"},
    {"const s = \"ab\ncd\";",
     "error: t.td:1:11: [lexer] unterminated string literal\n"
     "error: t.td:2:1: [parser] expected ';' after const declaration, found identifier\n"},
    {"const x = 0x;",
     "error: t.td:1:11: [lexer] missing digits after base prefix\n"},
    {"const x = 0xg1;",
     "error: t.td:1:11: [lexer] missing digits after base prefix\n"
     "error: t.td:1:13: [parser] expected ';' after const declaration, found identifier\n"},
    {"const x = 0b2;",
     "error: t.td:1:11: [lexer] missing digits after base prefix\n"
     "error: t.td:1:13: [parser] expected ';' after const declaration, found integer literal\n"},
    {"const x = a & b;",
     "error: t.td:1:13: [parser] expected ';' after const declaration, found invalid token\n"},
    {"const x = a | b;",
     "error: t.td:1:13: [parser] expected ';' after const declaration, found invalid token\n"},
    {"const x = & b;",
     "error: t.td:1:11: [lexer] stray '&' (did you mean '&&'?)\n"
     "error: t.td:1:13: [parser] expected ';' after const declaration, found identifier\n"},
    {"const x = (|);",
     "error: t.td:1:12: [lexer] stray '|' (did you mean '||'?)\n"},
    {"const x = #;",
     "error: t.td:1:11: [lexer] unexpected character '#'\n"},
    {"const x = 1 $ 2;",
     "error: t.td:1:13: [parser] expected ';' after const declaration, found invalid token\n"},
    {"const x = \xc3\xa9;",
     "error: t.td:1:11: [lexer] unexpected character '\xc3'\n"
     "error: t.td:1:12: [parser] expected ';' after const declaration, found invalid token\n"},
    {"const x = `;",
     "error: t.td:1:11: [lexer] unexpected character '`'\n"},
    {"/* never closed",
     ""},
    {"const a = 1; /* open",
     ""},
    {"const a = /* open",
     "error: t.td:1:18: [parser] expected an expression, found end of input\n"},
    {"const a = 1 /* x */ ; const b = 2; // trailing",
     ""},
    {"streamlet & { }",
     "error: t.td:1:11: [parser] expected streamlet name\n"},
    {"impl i of s { a | b => c, }",
     "error: t.td:1:17: [parser] expected '=>' in connection, found invalid token\n"},
    {"const x = \"unterminated\nconst y = 1;",
     "error: t.td:1:11: [lexer] unterminated string literal\n"
     "error: t.td:2:1: [parser] expected ';' after const declaration, found 'const'\n"},
    {"const x = 1 & 2 | 3 # 4;",
     "error: t.td:1:13: [parser] expected ';' after const declaration, found invalid token\n"},
};

TEST(FrontendPin, LexerErrorTextAndLocation) {
  check_cases(kLexerErrors, std::size(kLexerErrors));
}

// Malformed declarations: every message, its location, and how many the
// panic mode lets through.
constexpr DiagCase kMalformed[] = {
    {"const = 1;",
     "error: t.td:1:7: [parser] expected constant name\n"},
    {"const a = 5 const b = 6;",
     "error: t.td:1:13: [parser] expected ';' after const declaration, found 'const'\n"},
    {"const a: foo = 1;",
     "error: t.td:1:10: [parser] expected a basic type after ':'\n"},
    {"const a: int 1;",
     "error: t.td:1:14: [parser] expected '=' in const declaration, found integer literal\n"},
    {"type = Stream(Bit(8));",
     "error: t.td:1:6: [parser] expected type alias name\n"},
    {"type T = Stream(Bit(8), z=3);",
     "error: t.td:1:27: [parser] unknown stream option 'z'\n"},
    {"type T = Stream(Bit(8), s=Wobbly);",
     "error: t.td:1:33: [parser] unknown synchronicity 'Wobbly'\n"},
    {"type T = Stream(Bit(8), r=Sideways);",
     "error: t.td:1:35: [parser] unknown stream direction 'Sideways'\n"},
    {"type T = Stream(Bit(8), 3=1);",
     "error: t.td:1:25: [parser] expected stream option key (t/d/c/s/r/u)\n"},
    {"type T = Stream(Bit(8), s=3, d=1);",
     "error: t.td:1:27: [parser] expected synchronicity name\n"},
    {"type T = Bit 8;",
     "error: t.td:1:14: [parser] expected '(' after 'Bit', found integer literal\n"},
    {"type T = 42;",
     "error: t.td:1:10: [parser] expected a type, found integer literal\n"},
    {"Group { a: Bit(1) }",
     "error: t.td:1:7: [parser] expected Group name\n"},
    {"Group G { 1: Bit(1), b: Bit(2) }",
     "error: t.td:1:11: [parser] expected field name\n"},
    {"Union U { a: Bit(1) b: Bit(2) }",
     "error: t.td:1:21: [parser] expected '}' to close field list, found identifier\n"},
    {"Group G { a Bit(1), }",
     "error: t.td:1:13: [parser] expected ':' after field name, found 'Bit'\n"},
    {"streamlet s<n> { }",
     "error: t.td:1:14: [parser] expected ':' after template parameter name, found '>'\n"},
    {"streamlet s<n: wobble> { }",
     "error: t.td:1:16: [parser] expected parameter kind (int/float/string/bool/clockdomain/type/impl of)\n"},
    {"streamlet s<n: int { }",
     "error: t.td:1:20: [parser] expected '>' to close template parameter list, found '{'\n"},
    {"streamlet s<p: impl of> { }",
     "error: t.td:1:23: [parser] expected streamlet name after 'impl of'\n"},
    {"streamlet s { a: Bit(1) sideways, }",
     "error: t.td:1:25: [parser] expected port direction 'in' or 'out'\n"},
    {"streamlet s { a: Bit(1) in @ 3, }",
     "error: t.td:1:30: [parser] expected clock domain name after '@'\n"},
    {"streamlet s { a: Bit(1) in [2, }",
     "error: t.td:1:30: [parser] expected ']' to close port array size, found ','\n"},
    {"streamlet { }",
     "error: t.td:1:11: [parser] expected streamlet name\n"},
    {"impl i s { }",
     "error: t.td:1:8: [parser] expected 'of' after impl name, found identifier\n"},
    {"impl i of s @ wobble { }",
     "error: t.td:1:15: [parser] expected 'external' after '@'\n"
     "error: t.td:1:25: [parser] expected '}' to close impl body, found end of input\n"},
    {"impl of s { }",
     "error: t.td:1:6: [parser] expected impl name\n"},
    {"impl i of { }",
     "error: t.td:1:11: [parser] expected streamlet name after 'of'\n"},
    {"impl i of s<impl> { }",
     "error: t.td:1:17: [parser] expected impl name after 'impl'\n"},
    {"impl i of s { instance (x), }",
     "error: t.td:1:24: [parser] expected instance name\n"},
    {"impl i of s { instance a(), }",
     "error: t.td:1:26: [parser] expected impl name in instance declaration\n"},
    {"impl i of s { instance a(x<1, 2), instance b(y) }",
     "error: t.td:1:32: [parser] expected '>' to close template argument list, found ')'\n"},
    {"impl i of s { a => , }",
     "error: t.td:1:20: [parser] expected port reference\n"},
    {"impl i of s { a.3 => b, }",
     "error: t.td:1:17: [parser] expected port name after '.'\n"},
    {"impl i of s { a => b @ loose, }",
     "error: t.td:1:24: [parser] expected 'structural' after '@' on a connection\n"},
    {"impl i of s { a b, c => d, }",
     "error: t.td:1:17: [parser] expected '=>' in connection, found identifier\n"},
    {"impl i of s { for in 0..3 { } }",
     "error: t.td:1:19: [parser] expected loop variable name\n"},
    {"impl i of s { for k 0..3 { } }",
     "error: t.td:1:21: [parser] expected 'in' in for statement, found integer literal\n"},
    {"impl i of s { if 1 { } }",
     "error: t.td:1:18: [parser] expected '(' after 'if', found integer literal\n"},
    {"impl i of s { if (1) { } else x }",
     "error: t.td:1:31: [parser] expected '{' to open else body, found identifier\n"
     "error: t.td:1:34: [parser] expected '}' to close impl body, found end of input\n"},
    {"impl i of s { assert(1, 2); }",
     "error: t.td:1:25: [parser] expected string message in assert\n"},
    {"impl i of s { assert(1) }",
     "error: t.td:1:25: [parser] expected ';' after assert, found '}'\n"},
    {"impl i of s { 42; a => b, }",
     "error: t.td:1:15: [parser] expected an impl statement, found integer literal\n"},
    {"impl i of s { for k in 0..2 { sim { } } }",
     "error: t.td:1:31: [parser] sim blocks are only allowed directly in an impl body\n"},
    {"impl i of s @ external { sim { state = \"a\"; } }",
     "error: t.td:1:38: [parser] expected state variable name\n"},
    {"impl i of s @ external { sim { state st = 3; } }",
     "error: t.td:1:43: [parser] expected initial state string\n"},
    {"impl i of s @ external { sim { on start { wobble(x); } } }",
     "error: t.td:1:43: [parser] expected a sim action (ack/send/delay/set/if)\n"},
    {"impl i of s @ external { sim { on a.recv { } } }",
     "error: t.td:1:37: [parser] expected 'receive' after '.' in event\n"
     "error: t.td:1:49: [parser] expected '}' to close impl body, found end of input\n"},
    {"impl i of s @ external { sim { on a { } } }",
     "error: t.td:1:37: [parser] expected '.' after port name in event, found '{'\n"},
    {"impl i of s @ external { sim { on 3 { } } }",
     "error: t.td:1:35: [parser] expected port name in event expression\n"
     "error: t.td:1:44: [parser] expected '}' to close impl body, found end of input\n"},
    {"impl i of s @ external { sim { junk; state t = \"x\"; } }",
     "error: t.td:1:32: [parser] expected 'state' or 'on' in sim block\n"},
    {"impl i of s @ external { sim { on start { set = 1; } } }",
     "error: t.td:1:47: [parser] expected state variable after 'set'\n"},
    {"impl i of s @ external { sim { on start { ack(); send(3); } } }",
     "error: t.td:1:47: [parser] expected port name in action\n"
     "error: t.td:1:55: [parser] expected port name in action\n"},
    {"impl i of s @ external { sim { on start { delay 3; } } }",
     "error: t.td:1:49: [parser] expected '(' after action verb, found integer literal\n"},
    {"impl i of s @ external { sim { on start { for in 1 { } } } }",
     "error: t.td:1:47: [parser] expected loop variable in sim for\n"},
    {"impl i of s @ external { sim { on start { if 1 { } } } }",
     "error: t.td:1:46: [parser] expected '(' after 'if', found integer literal\n"},
    {"const x = ;",
     "error: t.td:1:11: [parser] expected an expression, found ';'\n"
     "error: t.td:1:12: [parser] expected ';' after const declaration, found end of input\n"},
    {"const x = (1 + ;",
     "error: t.td:1:16: [parser] expected an expression, found ';'\n"
     "error: t.td:1:17: [parser] expected ')' to close parenthesized expression, found end of input\n"},
    {"const x = [1, 2;",
     "error: t.td:1:16: [parser] expected ']' to close array literal, found ';'\n"},
    {"const x = clockdomain;",
     "error: t.td:1:11: [parser] expected an expression, found 'clockdomain'\n"},
    {"const x = f(1, 2;",
     "error: t.td:1:17: [parser] expected ')' to close call, found ';'\n"},
    {"const x = a[1;",
     "error: t.td:1:14: [parser] expected ']' to close index, found ';'\n"},
    {"const x = 1 +",
     "error: t.td:1:14: [parser] expected an expression, found end of input\n"},
    {"package ; const a = 1;",
     "error: t.td:1:9: [parser] expected package name\n"},
    {"package p const a = 1;",
     "error: t.td:1:11: [parser] expected ';' after package name, found 'const'\n"},
    {"import ;",
     ""},
    {"42 const a = 1; } const b = 2;",
     "error: t.td:1:1: [parser] expected a declaration, found integer literal\n"
     "error: t.td:1:17: [parser] expected a declaration, found '}'\n"},
    {"const = 1;\nconst good_one = 2;\ntype = Stream(Bit(8), d=1);\n"
     "const good_two = 3;\nstreamlet { }\nconst good_three = 4;\n",
     "error: t.td:1:7: [parser] expected constant name\n"
     "error: t.td:3:6: [parser] expected type alias name\n"
     "error: t.td:5:11: [parser] expected streamlet name\n"},
    {"streamlet s { a: Stream(Bit(8), d=) in, }",
     "error: t.td:1:35: [parser] expected an expression, found ')'\n"},
    {"impl i of s { instance a(x<type>), }",
     "error: t.td:1:32: [parser] expected a type, found '>'\n"},
    {"impl i of s { instance a(x<1 < 2>), }",
     "error: t.td:1:30: [parser] expected '>' to close template argument list, found '<'\n"},
    {"}}} const a = 1; {{{",
     "error: t.td:1:1: [parser] expected a declaration, found '}'\n"
     "error: t.td:1:18: [parser] expected a declaration, found '{'\n"},
};

TEST(FrontendPin, MalformedDeclarationDiagnostics) {
  check_cases(kMalformed, std::size(kMalformed));
}

// ---------------------------------------------------------------------------
// Seeded mutation sweep
// ---------------------------------------------------------------------------

// Parses `text` from an exactly-sized heap copy; returns the diagnostics
// and the printed tree.
std::string parse_exact(std::string_view text) {
  std::unique_ptr<char[]> buf(new char[text.size()]);
  std::memcpy(buf.get(), text.data(), text.size());
  support::DiagnosticEngine diags;
  SourceFile file =
      parse(std::string_view(buf.get(), text.size()), support::FileId{1}, diags);
  std::string out = to_source(file);
  for (const support::Diagnostic& d : diags.diagnostics()) {
    out += "\n" + d.phase + "@" + std::to_string(d.loc.offset) + ": " +
           d.message;
  }
  return out;
}

void expect_stable(const std::string& mutant, const std::string& what) {
  const std::string first = parse_exact(mutant);
  const std::string second = parse_exact(mutant);
  EXPECT_EQ(first, second) << what;
}

TEST(FrontendMutation, TruncationAtEveryTokenBoundary) {
  for (const tpch::QueryCase& q : tpch::queries()) {
    Lexer lexer(q.source, support::FileId{1});
    for (Token t = lexer.next();; t = lexer.next()) {
      const std::uint32_t at = t.loc.offset;
      expect_stable(std::string(q.source.substr(0, at)),
                    q.top_impl + " cut@" + std::to_string(at));
      if (t.is(TokenKind::kEnd)) break;
    }
  }
}

TEST(FrontendMutation, SeededFlipsAndInsertions) {
  std::vector<std::pair<std::string, std::string_view>> sources;
  sources.emplace_back("fletcher", tpch::fletcher_source());
  for (const tpch::QueryCase& q : tpch::queries()) {
    sources.emplace_back(q.top_impl, q.source);
  }
  static constexpr std::string_view kInserts[] = {"\"", "/*", "0x"};
  std::uint64_t draw = 0;
  for (const auto& [name, text] : sources) {
    for (int i = 0; i < 300; ++i) {
      std::string mutant(text);
      const std::uint64_t h = support::splitmix64(++draw);
      const std::size_t at = h % mutant.size();
      if (i % 2 == 0) {
        mutant[at] = static_cast<char>(h >> 32);  // any byte, NUL included
      } else {
        mutant.insert(at, kInserts[(h >> 32) % std::size(kInserts)]);
      }
      expect_stable(mutant, name + " mutant " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace tydi::lang
