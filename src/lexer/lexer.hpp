// Hand-written lexer for Tydi-lang.
//
// The reference implementation uses a Rust-Pest PEG grammar; here the same
// token language is produced by a conventional single-pass scanner with
// source locations for diagnostics. Comments (// and /* */) and whitespace
// are skipped; malformed input yields kError tokens rather than aborting so
// the parser can keep reporting later errors.
//
// The parser pulls tokens one at a time with next(). A token is a view into
// the source text and owns nothing, so lexing allocates nothing: character
// classes and keywords are table lookups, and only the parser decides which
// spellings become owned values (interned names, unescaped strings).
#pragma once

#include <string>

#include "src/lexer/token.hpp"
#include "src/support/source.hpp"

namespace tydi::lang {

class Lexer {
 public:
  /// `text` must outlive every token the lexer returns.
  Lexer(std::string_view text, support::FileId file);

  /// Scans and returns the next token; kEnd at (and after) the end.
  Token next();

 private:
  std::string_view text_;
  support::FileId file_;
  std::uint32_t pos_ = 0;

  [[nodiscard]] char peek(std::uint32_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  void skip_trivia();
  [[nodiscard]] Token make(TokenKind kind, std::uint32_t begin,
                           std::uint32_t loc, std::int64_t int_value = 0,
                           double float_value = 0.0) const;
  Token lex_number(std::uint32_t start);
  Token lex_string(std::uint32_t start);
};

/// The value of a string literal token: its text with `\n`, `\t`, `\\` and
/// `\"` unescaped (any other escaped character stands for itself).
[[nodiscard]] std::string unescape(std::string_view raw);

/// The diagnostic for a kError token.
[[nodiscard]] std::string error_message(const Token& error);

}  // namespace tydi::lang
