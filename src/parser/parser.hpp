// Recursive-descent parser for Tydi-lang.
//
// Produces the AST ("code structure #1" in Fig. 3). Errors are reported to
// the DiagnosticEngine with source locations and the parser re-synchronizes
// at statement boundaries so multiple errors are reported per run — matching
// the report-style frontend of the paper rather than fail-fast.
//
// The parser pulls tokens from the lexer as it goes, holding at most two
// (one token of lookahead past the current one). Names are interned as the
// parser takes them, through a per-parse table, so a name takes the
// interner at most once per parse rather than once per occurrence.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "src/ast/ast.hpp"
#include "src/lexer/lexer.hpp"
#include "src/support/diagnostic.hpp"

namespace tydi::lang {

class Parser {
 public:
  /// `text` must outlive the parser (the returned tree does not refer to
  /// it).
  Parser(std::string_view text, support::FileId file,
         support::DiagnosticEngine& diags);

  /// Parses a whole source file. On errors, returns the declarations that
  /// could be recovered; check `diags.has_errors()`.
  [[nodiscard]] SourceFile parse_file();

 private:
  Lexer lexer_;
  /// The current token is ring_[pos_ % 4], the one after it (once
  /// peek_next() has read it) the next slot; the token advance() returned
  /// stays valid until the one after it is consumed.
  std::array<Token, 4> ring_;
  bool has_ahead_ = false;
  std::size_t pos_ = 0;  // tokens consumed so far: progress checks
  /// Spellings seen by this parse (open addressing, linear probing). Once
  /// it is 3/4 full, further new names go to the interner directly.
  struct NameSlot {
    std::string_view spelling;
    support::Symbol sym = support::kNoSymbol;
  };
  std::array<NameSlot, 512> names_{};
  std::size_t name_count_ = 0;
  support::DiagnosticEngine& diags_;
  // When > 0, '>' terminates the current template argument list, so the
  // expression grammar suppresses '<'/'>' comparisons (parenthesize to use
  // them inside template arguments).
  int angle_depth_ = 0;

  [[nodiscard]] const Token& peek() const {
    return ring_[pos_ % ring_.size()];
  }
  const Token& peek_next();
  const Token& advance();
  /// Consumes the current token and returns its spelling, interned.
  Name take_name();
  [[nodiscard]] bool check(TokenKind k) const { return peek().is(k); }
  bool match(TokenKind k);
  bool expect(TokenKind k, std::string_view context);
  void error_here(std::string message);
  void sync_to_decl();
  void sync_to_stmt_end();

  /// Panic mode (set by the first error_here of a broken construct):
  /// suppresses cascade diagnostics until the parser consumes a `;`/`}` or
  /// runs one of the sync_to_* recoveries.
  bool panic_ = false;

  // Declarations.
  bool parse_decl(SourceFile& file);
  ConstDecl parse_const_decl();
  TypeAliasDecl parse_type_alias();
  GroupDecl parse_group_or_union(bool is_union);
  StreamletDecl parse_streamlet();
  ImplDecl parse_impl();

  // Components.
  std::vector<TemplateParam> parse_template_params();
  std::vector<TemplateArg> parse_template_args();
  std::optional<ParamKind> parse_basic_kind();
  PortDecl parse_port();
  std::vector<ImplStmt> parse_impl_body(ImplDecl* impl_for_sim);
  ImplStmt parse_instance();
  ImplStmt parse_connection();
  ImplStmt parse_for();
  ImplStmt parse_if();
  ImplStmt parse_assert();
  ImplStmt parse_local_const();
  PortRef parse_port_ref();

  // Simulation syntax.
  SimBlock parse_sim_block();
  std::vector<SimAction> parse_sim_actions();
  SimAction parse_sim_action();

  // Types and expressions.
  TypeExprPtr parse_type();
  ExprPtr parse_expr();
  ExprPtr parse_range();
  ExprPtr parse_or();
  ExprPtr parse_and();
  ExprPtr parse_equality();
  ExprPtr parse_comparison();
  ExprPtr parse_additive();
  ExprPtr parse_multiplicative();
  ExprPtr parse_power();
  ExprPtr parse_unary();
  ExprPtr parse_postfix();
  ExprPtr parse_primary();
};

/// Convenience wrapper: lex + parse in one call.
[[nodiscard]] SourceFile parse(std::string_view text, support::FileId file,
                               support::DiagnosticEngine& diags);

}  // namespace tydi::lang
