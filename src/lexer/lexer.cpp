#include "src/lexer/lexer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>

namespace tydi::lang {

namespace {

// Character classes of the token language. Only ASCII letters, digits and
// '_' form names and numbers (no locale); every other byte is punctuation
// or an unexpected character.
enum : std::uint8_t { kIdentStart = 1, kIdentChar = 2, kDigit = 4, kHex = 8 };

constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> c{};
  for (int ch = 0; ch < 256; ++ch) {
    const bool alpha =
        (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch == '_';
    const bool digit = ch >= '0' && ch <= '9';
    const bool hex =
        digit || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F');
    c[ch] = (alpha ? kIdentStart | kIdentChar : 0) |
            (digit ? kIdentChar | kDigit : 0) | (hex ? kHex : 0);
  }
  return c;
}();

bool is(char c, std::uint8_t cls) {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}

// The diagnostic name of every token kind, in TokenKind order. A keyword's
// name is its spelling in quotes.
constexpr std::string_view kKindNames[] = {
    "end of input", "identifier", "integer literal", "float literal",
    "string literal", "'package'", "'import'", "'const'", "'type'", "'Group'",
    "'Union'", "'streamlet'", "'impl'", "'of'", "'external'", "'instance'",
    "'for'", "'in'", "'if'", "'else'", "'assert'", "'sim'", "'state'", "'on'",
    "'set'", "'int'", "'float'", "'string'", "'bool'", "'clockdomain'",
    "'true'", "'false'", "'Null'", "'Bit'", "'Stream'", "'{'", "'}'", "'('",
    "')'", "'['", "']'", "'<'", "'>'", "'<='", "'>='", "'='", "'=='", "'!='",
    "'+'", "'-'", "'*'", "'**'", "'/'", "'%'", "'&&'", "'||'", "'!'", "','",
    "';'", "':'", "'.'", "'..'", "'=>'", "'->'", "'@'", "invalid token",
};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(TokenKind::kError) + 1);

// Keywords sit in a collision-free 64-slot table indexed by a hash of the
// first, second and last byte and the length (every keyword is at least
// two bytes long), so classifying a name is one probe and one compare.
struct Keyword {
  std::string_view spelling;
  TokenKind kind = TokenKind::kIdentifier;
};

constexpr std::size_t keyword_slot(std::string_view s) {
  auto byte = [](char c) {
    return static_cast<std::size_t>(static_cast<unsigned char>(c));
  };
  return (byte(s[0]) * 25 + byte(s[1]) * 7 + byte(s.back()) * 5 + s.size()) &
         63;
}

constexpr std::array<Keyword, 64> kKeywords = [] {
  std::array<Keyword, 64> slots{};
  for (auto k = static_cast<std::size_t>(TokenKind::kKwPackage);
       k <= static_cast<std::size_t>(TokenKind::kKwStream); ++k) {
    const std::string_view spelling =
        kKindNames[k].substr(1, kKindNames[k].size() - 2);
    Keyword& slot = slots[keyword_slot(spelling)];
    if (!slot.spelling.empty()) throw "keyword slots collide";
    slot = Keyword{spelling, static_cast<TokenKind>(k)};
  }
  return slots;
}();

TokenKind name_kind(std::string_view s) {
  if (s.size() < 2) return TokenKind::kIdentifier;
  const Keyword& k = kKeywords[keyword_slot(s)];
  return k.spelling == s ? k.kind : TokenKind::kIdentifier;
}

}  // namespace

std::string_view token_kind_name(TokenKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kKindNames) ? kKindNames[k] : "unknown";
}

Lexer::Lexer(std::string_view text, support::FileId file)
    : text_(text), file_(file) {}

void Lexer::skip_trivia() {
  while (!at_end()) {
    const char c = text_[pos_];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      ++pos_;
    } else if (c == '/' && peek(1) == '/') {
      pos_ = static_cast<std::uint32_t>(
          std::min(text_.find('\n', pos_), text_.size()));
    } else if (c == '/' && peek(1) == '*') {
      // An unterminated comment runs to the end of the input.
      const std::size_t close = text_.find("*/", pos_ + 2);
      pos_ = static_cast<std::uint32_t>(
          close == std::string_view::npos ? text_.size() : close + 2);
    } else {
      break;
    }
  }
}

// Every token is built in place by one aggregate initialization: a token
// filled in field by field and then copied out stalls on store forwarding.
Token Lexer::make(TokenKind kind, std::uint32_t begin, std::uint32_t loc,
                  std::int64_t int_value, double float_value) const {
  return Token{kind, text_.substr(begin, pos_ - begin), int_value, float_value,
               support::Loc{file_, loc}};
}

Token Lexer::lex_number(std::uint32_t start) {
  const char prefix = peek(1);
  if (peek() == '0' && (prefix == 'x' || prefix == 'X' || prefix == 'b' ||
                        prefix == 'B')) {
    const int base = prefix == 'x' || prefix == 'X' ? 16 : 2;
    pos_ += 2;
    const std::uint32_t begin = pos_;
    while (base == 16 ? is(peek(), kHex) : peek() == '0' || peek() == '1') {
      ++pos_;
    }
    if (pos_ == begin) return make(TokenKind::kError, start, start);
    std::int64_t value = 0;
    std::from_chars(text_.data() + begin, text_.data() + pos_, value, base);
    return make(TokenKind::kIntLiteral, begin, start, value);
  }
  while (is(peek(), kDigit)) ++pos_;
  // A '.' only continues the number if followed by a digit — otherwise it
  // is the start of '..' (range) or member access.
  bool is_float = false;
  if (peek() == '.' && is(peek(1), kDigit)) {
    is_float = true;
    ++pos_;
    while (is(peek(), kDigit)) ++pos_;
  }
  if (peek() == 'e' || peek() == 'E') {
    const std::uint32_t save = pos_;
    ++pos_;
    if (peek() == '+' || peek() == '-') ++pos_;
    if (is(peek(), kDigit)) {
      is_float = true;
      while (is(peek(), kDigit)) ++pos_;
    } else {
      pos_ = save;  // 'e' belongs to a following identifier
    }
  }
  const std::string_view spelling = text_.substr(start, pos_ - start);
  if (is_float) {
    return make(TokenKind::kFloatLiteral, start, start, 0,
                std::strtod(std::string(spelling).c_str(), nullptr));
  }
  std::int64_t value = 0;
  std::from_chars(spelling.data(), spelling.data() + spelling.size(), value);
  return make(TokenKind::kIntLiteral, start, start, value);
}

Token Lexer::lex_string(std::uint32_t start) {
  ++pos_;  // opening quote
  while (!at_end() && text_[pos_] != '"') {
    const char c = text_[pos_++];
    if (c == '\\' && !at_end()) {
      ++pos_;  // the escaped byte, even a quote or a newline
    } else if (c == '\n') {
      return make(TokenKind::kError, start, start);
    }
  }
  if (at_end()) return make(TokenKind::kError, start, start);
  Token t = make(TokenKind::kStringLiteral, start + 1, start);
  ++pos_;  // closing quote
  return t;
}

Token Lexer::next() {
  skip_trivia();
  const std::uint32_t start = pos_;
  if (at_end()) return make(TokenKind::kEnd, start, start);

  const char c = text_[pos_];
  if (is(c, kIdentStart)) {
    while (is(peek(), kIdentChar)) ++pos_;
    return make(name_kind(text_.substr(start, pos_ - start)), start, start);
  }
  if (is(c, kDigit)) return lex_number(start);
  if (c == '"') return lex_string(start);

  ++pos_;
  auto eat = [this](char want) {
    if (peek() != want) return false;
    ++pos_;
    return true;
  };
  TokenKind kind = TokenKind::kError;
  switch (c) {
    case '{': kind = TokenKind::kLBrace; break;
    case '}': kind = TokenKind::kRBrace; break;
    case '(': kind = TokenKind::kLParen; break;
    case ')': kind = TokenKind::kRParen; break;
    case '[': kind = TokenKind::kLBracket; break;
    case ']': kind = TokenKind::kRBracket; break;
    case ',': kind = TokenKind::kComma; break;
    case ';': kind = TokenKind::kSemicolon; break;
    case ':': kind = TokenKind::kColon; break;
    case '@': kind = TokenKind::kAt; break;
    case '+': kind = TokenKind::kPlus; break;
    case '%': kind = TokenKind::kPercent; break;
    case '/': kind = TokenKind::kSlash; break;
    case '.': kind = eat('.') ? TokenKind::kDotDot : TokenKind::kDot; break;
    case '*': kind = eat('*') ? TokenKind::kStarStar : TokenKind::kStar; break;
    case '-':
      kind = eat('>') ? TokenKind::kThinArrow : TokenKind::kMinus;
      break;
    case '=':
      kind = eat('>')   ? TokenKind::kFatArrow
             : eat('=') ? TokenKind::kEqEq
                        : TokenKind::kEq;
      break;
    case '<': kind = eat('=') ? TokenKind::kLessEq : TokenKind::kLess; break;
    case '>':
      kind = eat('=') ? TokenKind::kGreaterEq : TokenKind::kGreater;
      break;
    case '!': kind = eat('=') ? TokenKind::kNotEq : TokenKind::kBang; break;
    case '&': kind = eat('&') ? TokenKind::kAmpAmp : TokenKind::kError; break;
    case '|':
      kind = eat('|') ? TokenKind::kPipePipe : TokenKind::kError;
      break;
    default: break;
  }
  // Punctuation carries no text (its kind is its spelling); an error keeps
  // the bytes it could not lex.
  return make(kind, kind == TokenKind::kError ? start : pos_, start);
}

std::string unescape(std::string_view raw) {
  std::string value;
  value.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (c == '\\' && i + 1 < raw.size()) {
      c = raw[++i];
      if (c == 'n') {
        c = '\n';
      } else if (c == 't') {
        c = '\t';
      }
    }
    value += c;
  }
  return value;
}

std::string error_message(const Token& error) {
  switch (error.text.front()) {
    case '"': return "unterminated string literal";
    case '0': return "missing digits after base prefix";
    case '&': return "stray '&' (did you mean '&&'?)";
    case '|': return "stray '|' (did you mean '||'?)";
    default:
      return std::string("unexpected character '") + error.text.front() + "'";
  }
}

}  // namespace tydi::lang
