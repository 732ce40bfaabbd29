// Lexer unit tests: token classification, literals, operators, comments,
// and error handling.
#include <gtest/gtest.h>

#include "src/lexer/lexer.hpp"

namespace tydi::lang {
namespace {

// Every token up to and including kEnd (views into `text`).
std::vector<Token> lex(std::string_view text) {
  Lexer lexer(text, support::FileId{1});
  std::vector<Token> out;
  do {
    out.push_back(lexer.next());
  } while (!out.back().is(TokenKind::kEnd));
  return out;
}

std::vector<TokenKind> kinds(std::string_view text) {
  std::vector<TokenKind> out;
  for (const Token& t : lex(text)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputYieldsEnd) {
  auto tokens = lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(Lexer, WhitespaceOnlyYieldsEnd) {
  auto tokens = lex("  \t\r\n  \n");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(Lexer, Identifiers) {
  auto tokens = lex("foo _bar baz_9");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "foo");
  EXPECT_EQ(tokens[1].text, "_bar");
  EXPECT_EQ(tokens[2].text, "baz_9");
}

TEST(Lexer, KeywordsAreNotIdentifiers) {
  auto tokens = lex("streamlet impl const type for if assert sim");
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwStreamlet);
  EXPECT_EQ(tokens[1].kind, TokenKind::kKwImpl);
  EXPECT_EQ(tokens[2].kind, TokenKind::kKwConst);
  EXPECT_EQ(tokens[3].kind, TokenKind::kKwType);
  EXPECT_EQ(tokens[4].kind, TokenKind::kKwFor);
  EXPECT_EQ(tokens[5].kind, TokenKind::kKwIf);
  EXPECT_EQ(tokens[6].kind, TokenKind::kKwAssert);
  EXPECT_EQ(tokens[7].kind, TokenKind::kKwSim);
}

TEST(Lexer, LogicalTypeKeywords) {
  auto tokens = lex("Null Bit Group Union Stream");
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwNull);
  EXPECT_EQ(tokens[1].kind, TokenKind::kKwBit);
  EXPECT_EQ(tokens[2].kind, TokenKind::kKwGroup);
  EXPECT_EQ(tokens[3].kind, TokenKind::kKwUnion);
  EXPECT_EQ(tokens[4].kind, TokenKind::kKwStream);
}

TEST(Lexer, CaseSensitivity) {
  // `group` (lowercase) is an identifier, `Group` is the keyword.
  auto tokens = lex("group Group");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].kind, TokenKind::kKwGroup);
}

TEST(Lexer, DecimalIntegers) {
  auto tokens = lex("0 42 1234567890");
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, 1234567890);
}

TEST(Lexer, HexAndBinaryIntegers) {
  auto tokens = lex("0xff 0b1010 0XAB");
  EXPECT_EQ(tokens[0].int_value, 255);
  EXPECT_EQ(tokens[1].int_value, 10);
  EXPECT_EQ(tokens[2].int_value, 0xAB);
}

TEST(Lexer, FloatLiterals) {
  auto tokens = lex("3.14 0.5 2e3 1.5e-2");
  EXPECT_EQ(tokens[0].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 3.14);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 0.5);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 2000.0);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, 0.015);
}

TEST(Lexer, IntegerFollowedByRangeIsNotFloat) {
  // `0..4` must lex as INT DOTDOT INT, not a malformed float.
  auto k = kinds("0..4");
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k[0], TokenKind::kIntLiteral);
  EXPECT_EQ(k[1], TokenKind::kDotDot);
  EXPECT_EQ(k[2], TokenKind::kIntLiteral);
}

TEST(Lexer, StringLiteralsWithEscapes) {
  auto tokens = lex(R"("hello" "a\"b" "tab\there")");
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, R"(a\"b)");  // the raw spelling
  EXPECT_EQ(unescape(tokens[1].text), "a\"b");
  EXPECT_EQ(unescape(tokens[2].text), "tab\there");
}

TEST(Lexer, StringWithSpacesMatchesSqlLiterals) {
  auto tokens = lex("\"MED BAG\"");
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "MED BAG");
}

TEST(Lexer, UnterminatedStringIsError) {
  auto tokens = lex("\"oops");
  EXPECT_EQ(tokens[0].kind, TokenKind::kError);
}

TEST(Lexer, NewlineInStringIsError) {
  auto tokens = lex("\"a\nb\"");
  EXPECT_EQ(tokens[0].kind, TokenKind::kError);
}

TEST(Lexer, MultiCharOperators) {
  auto k = kinds("=> -> .. ** == != <= >= && ||");
  std::vector<TokenKind> expected = {
      TokenKind::kFatArrow, TokenKind::kThinArrow, TokenKind::kDotDot,
      TokenKind::kStarStar, TokenKind::kEqEq,      TokenKind::kNotEq,
      TokenKind::kLessEq,   TokenKind::kGreaterEq, TokenKind::kAmpAmp,
      TokenKind::kPipePipe, TokenKind::kEnd};
  EXPECT_EQ(k, expected);
}

TEST(Lexer, SingleCharOperators) {
  auto k = kinds("{ } ( ) [ ] < > = + - * / % , ; : . @ !");
  EXPECT_EQ(k.size(), 21u);
  EXPECT_EQ(k[0], TokenKind::kLBrace);
  EXPECT_EQ(k[6], TokenKind::kLess);
  EXPECT_EQ(k[7], TokenKind::kGreater);
  EXPECT_EQ(k[19], TokenKind::kBang);
}

TEST(Lexer, LineCommentsSkipped) {
  auto k = kinds("a // comment with => tokens\nb");
  ASSERT_EQ(k.size(), 3u);
  EXPECT_EQ(k[0], TokenKind::kIdentifier);
  EXPECT_EQ(k[1], TokenKind::kIdentifier);
}

TEST(Lexer, BlockCommentsSkipped) {
  auto k = kinds("a /* multi\nline\ncomment */ b");
  ASSERT_EQ(k.size(), 3u);
}

TEST(Lexer, UnterminatedBlockCommentReachesEof) {
  auto k = kinds("a /* never closed");
  ASSERT_EQ(k.size(), 2u);
  EXPECT_EQ(k[0], TokenKind::kIdentifier);
  EXPECT_EQ(k[1], TokenKind::kEnd);
}

TEST(Lexer, StrayAmpersandIsError) {
  auto tokens = lex("a & b");
  EXPECT_EQ(tokens[1].kind, TokenKind::kError);
}

TEST(Lexer, UnknownCharacterIsError) {
  auto tokens = lex("$");
  EXPECT_EQ(tokens[0].kind, TokenKind::kError);
  EXPECT_EQ(tokens[0].text, "$");
  EXPECT_EQ(error_message(tokens[0]), "unexpected character '$'");
}

TEST(Lexer, LocationsTrackOffsets) {
  auto tokens = lex("ab cd");
  EXPECT_EQ(tokens[0].loc.offset, 0u);
  EXPECT_EQ(tokens[1].loc.offset, 3u);
}

TEST(Lexer, ConnectionArrowVsComparison) {
  // `a=>b` vs `a>=b` vs `a=b`.
  EXPECT_EQ(kinds("a=>b")[1], TokenKind::kFatArrow);
  EXPECT_EQ(kinds("a>=b")[1], TokenKind::kGreaterEq);
  EXPECT_EQ(kinds("a=b")[1], TokenKind::kEq);
}

TEST(Lexer, TokenKindNamesAreDistinctAndNonEmpty) {
  // Exercise the diagnostic name table.
  for (int k = 0; k <= static_cast<int>(TokenKind::kError); ++k) {
    EXPECT_FALSE(token_kind_name(static_cast<TokenKind>(k)).empty());
  }
}

}  // namespace
}  // namespace tydi::lang
