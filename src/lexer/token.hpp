// Token definitions for the Tydi-lang lexer.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/support/source.hpp"

namespace tydi::lang {

enum class TokenKind : std::uint8_t {
  kEnd,         // end of input
  kIdentifier,  // foo
  kIntLiteral,  // 42, 0xff, 0b1010
  kFloatLiteral,
  kStringLiteral,

  // Keywords.
  kKwPackage,
  kKwImport,
  kKwConst,
  kKwType,
  kKwGroup,
  kKwUnion,
  kKwStreamlet,
  kKwImpl,
  kKwOf,
  kKwExternal,
  kKwInstance,
  kKwFor,
  kKwIn,
  kKwIf,
  kKwElse,
  kKwAssert,
  kKwSim,
  kKwState,
  kKwOn,
  kKwSet,
  kKwInt,
  kKwFloat,
  kKwString,
  kKwBool,
  kKwClockdomain,
  kKwTrue,
  kKwFalse,
  kKwNull,
  kKwBit,
  kKwStream,

  // Punctuation and operators.
  kLBrace,     // {
  kRBrace,     // }
  kLParen,     // (
  kRParen,     // )
  kLBracket,   // [
  kRBracket,   // ]
  kLess,       // <
  kGreater,    // >
  kLessEq,     // <=
  kGreaterEq,  // >=
  kEq,         // =
  kEqEq,       // ==
  kNotEq,      // !=
  kPlus,       // +
  kMinus,      // -
  kStar,       // *
  kStarStar,   // **
  kSlash,      // /
  kPercent,    // %
  kAmpAmp,     // &&
  kPipePipe,   // ||
  kBang,       // !
  kComma,      // ,
  kSemicolon,  // ;
  kColon,      // :
  kDot,        // .
  kDotDot,     // ..
  kFatArrow,   // =>
  kThinArrow,  // ->
  kAt,         // @

  kError,  // lexing error (message in `text`)
};

[[nodiscard]] std::string_view token_kind_name(TokenKind kind);

/// A view of one token of a source text; valid while that text is. `text`
/// is the token's spelling in the source: a string literal's raw bytes
/// between its quotes (see unescape), an integer's digits after any base
/// prefix, and for kError the bytes that could not be lexed (see
/// error_message).
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  std::int64_t int_value = 0;
  double float_value = 0.0;
  support::Loc loc;

  [[nodiscard]] bool is(TokenKind k) const { return kind == k; }
};

}  // namespace tydi::lang
