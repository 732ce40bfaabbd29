#include "src/parser/parser.hpp"

#include <new>

#include "src/lexer/lexer.hpp"
#include "src/support/hash.hpp"

namespace tydi::lang {

Parser::Parser(std::string_view text, support::FileId file,
               support::DiagnosticEngine& diags)
    : lexer_(text, file), ring_{lexer_.next()}, diags_(diags) {}

// The lexer writes each token straight into its ring slot: assigning a
// returned token would reload it from a temporary the lexer has just
// stored piecewise, which stalls on store forwarding.
const Token& Parser::peek_next() {
  if (!has_ahead_) {
    ::new (&ring_[(pos_ + 1) % ring_.size()]) Token(lexer_.next());
    has_ahead_ = true;
  }
  return ring_[(pos_ + 1) % ring_.size()];
}

const Token& Parser::advance() {
  const Token& taken = peek();
  // Consuming a statement/body boundary ends panic mode: whatever follows
  // is a fresh construct whose errors deserve their own diagnostics.
  if (panic_ && (taken.kind == TokenKind::kSemicolon ||
                 taken.kind == TokenKind::kRBrace)) {
    panic_ = false;
  }
  if (taken.is(TokenKind::kEnd)) return taken;
  ++pos_;
  if (!has_ahead_) ::new (&ring_[pos_ % ring_.size()]) Token(lexer_.next());
  has_ahead_ = false;
  return taken;
}

Name Parser::take_name() {
  const std::string_view spelling = advance().text;  // never empty
  constexpr std::size_t kMask = std::tuple_size_v<decltype(names_)> - 1;
  std::size_t i = support::short_hash(spelling) & kMask;
  for (; !names_[i].spelling.empty(); i = (i + 1) & kMask) {
    if (names_[i].spelling == spelling) return Name{names_[i].sym};
  }
  const support::Symbol sym = support::intern(spelling);
  if (4 * (name_count_ + 1) <= 3 * names_.size()) {
    names_[i] = NameSlot{spelling, sym};
    ++name_count_;
  }
  return Name{sym};
}

bool Parser::match(TokenKind k) {
  if (check(k)) {
    advance();
    return true;
  }
  return false;
}

bool Parser::expect(TokenKind k, std::string_view context) {
  if (match(k)) return true;
  error_here(std::string("expected ") + std::string(token_kind_name(k)) +
             " " + std::string(context) + ", found " +
             std::string(token_kind_name(peek().kind)));
  return false;
}

void Parser::error_here(std::string message) {
  // Panic mode: after one error, suppress the cascade of bogus follow-on
  // diagnostics a broken construct produces (every expect() after the
  // original failure would fire) until the parser synchronizes on a `;` or
  // `}` boundary or an explicit sync_to_* call. One malformed statement
  // therefore reports one precise error, and later statements still report
  // theirs — a single file yields all of its real diagnostics.
  if (panic_) return;
  panic_ = true;
  diags_.error("parser", std::move(message), peek().loc);
}

void Parser::sync_to_decl() {
  // Skip until a token that can begin a top-level declaration.
  int depth = 0;
  while (!check(TokenKind::kEnd)) {
    TokenKind k = peek().kind;
    if (depth == 0 &&
        (k == TokenKind::kKwConst || k == TokenKind::kKwType ||
         k == TokenKind::kKwGroup || k == TokenKind::kKwUnion ||
         k == TokenKind::kKwStreamlet || k == TokenKind::kKwImpl ||
         k == TokenKind::kKwPackage || k == TokenKind::kKwImport)) {
      break;
    }
    if (k == TokenKind::kLBrace) ++depth;
    if (k == TokenKind::kRBrace && depth > 0) --depth;
    advance();
  }
  panic_ = false;  // synchronized: report errors in what follows
}

void Parser::sync_to_stmt_end() {
  int depth = 0;
  while (!check(TokenKind::kEnd)) {
    TokenKind k = peek().kind;
    if (depth == 0 && (k == TokenKind::kSemicolon || k == TokenKind::kComma)) {
      advance();
      break;
    }
    if (depth == 0 && k == TokenKind::kRBrace) break;
    if (k == TokenKind::kLBrace) ++depth;
    if (k == TokenKind::kRBrace) --depth;
    advance();
  }
  panic_ = false;  // synchronized: report errors in what follows
}

SourceFile Parser::parse_file() {
  SourceFile file;
  if (check(TokenKind::kKwPackage)) {
    advance();
    if (check(TokenKind::kIdentifier)) {
      file.package = take_name();
    } else {
      error_here("expected package name");
    }
    expect(TokenKind::kSemicolon, "after package name");
  }
  while (!check(TokenKind::kEnd)) {
    std::size_t before = pos_;
    if (!parse_decl(file)) {
      sync_to_decl();
      if (pos_ == before) advance();  // guarantee progress
    }
  }
  return file;
}

bool Parser::parse_decl(SourceFile& file) {
  switch (peek().kind) {
    case TokenKind::kKwImport:
      // `import x;` is accepted and ignored: all compilation in this
      // implementation is whole-program over concatenated sources.
      advance();
      if (check(TokenKind::kIdentifier)) advance();
      expect(TokenKind::kSemicolon, "after import");
      return true;
    case TokenKind::kKwConst:
      file.decls.push_back(Decl{parse_const_decl()});
      return true;
    case TokenKind::kKwType:
      file.decls.push_back(Decl{parse_type_alias()});
      return true;
    case TokenKind::kKwGroup:
      file.decls.push_back(Decl{parse_group_or_union(false)});
      return true;
    case TokenKind::kKwUnion:
      file.decls.push_back(Decl{parse_group_or_union(true)});
      return true;
    case TokenKind::kKwStreamlet:
      file.decls.push_back(Decl{parse_streamlet()});
      return true;
    case TokenKind::kKwImpl:
      file.decls.push_back(Decl{parse_impl()});
      return true;
    default:
      error_here("expected a declaration, found " +
                 std::string(token_kind_name(peek().kind)));
      return false;
  }
}

std::optional<ParamKind> Parser::parse_basic_kind() {
  switch (peek().kind) {
    case TokenKind::kKwInt: advance(); return ParamKind::kInt;
    case TokenKind::kKwFloat: advance(); return ParamKind::kFloat;
    case TokenKind::kKwString: advance(); return ParamKind::kString;
    case TokenKind::kKwBool: advance(); return ParamKind::kBool;
    case TokenKind::kKwClockdomain: advance(); return ParamKind::kClockdomain;
    default: return std::nullopt;
  }
}

ConstDecl Parser::parse_const_decl() {
  ConstDecl d;
  d.loc = peek().loc;
  expect(TokenKind::kKwConst, "");
  if (check(TokenKind::kIdentifier)) {
    d.name = take_name();
  } else {
    error_here("expected constant name");
  }
  if (match(TokenKind::kColon)) {
    d.declared_kind = parse_basic_kind();
    if (!d.declared_kind) error_here("expected a basic type after ':'");
  }
  expect(TokenKind::kEq, "in const declaration");
  d.init = parse_expr();
  expect(TokenKind::kSemicolon, "after const declaration");
  return d;
}

TypeAliasDecl Parser::parse_type_alias() {
  TypeAliasDecl d;
  d.loc = peek().loc;
  expect(TokenKind::kKwType, "");
  if (check(TokenKind::kIdentifier)) {
    d.name = take_name();
  } else {
    error_here("expected type alias name");
  }
  expect(TokenKind::kEq, "in type alias");
  d.type = parse_type();
  expect(TokenKind::kSemicolon, "after type alias");
  return d;
}

GroupDecl Parser::parse_group_or_union(bool is_union) {
  GroupDecl d;
  d.is_union = is_union;
  d.loc = peek().loc;
  advance();  // Group / Union
  if (check(TokenKind::kIdentifier)) {
    d.name = take_name();
  } else {
    error_here(is_union ? "expected Union name" : "expected Group name");
  }
  expect(TokenKind::kLBrace, "to open field list");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEnd)) {
    FieldDecl f;
    f.loc = peek().loc;
    if (check(TokenKind::kIdentifier)) {
      f.name = take_name();
    } else {
      error_here("expected field name");
      sync_to_stmt_end();
      continue;
    }
    expect(TokenKind::kColon, "after field name");
    f.type = parse_type();
    d.fields.push_back(std::move(f));
    if (!match(TokenKind::kComma)) break;
  }
  expect(TokenKind::kRBrace, "to close field list");
  return d;
}

std::vector<TemplateParam> Parser::parse_template_params() {
  std::vector<TemplateParam> params;
  if (!match(TokenKind::kLess)) return params;
  do {
    TemplateParam p;
    p.loc = peek().loc;
    if (check(TokenKind::kIdentifier)) {
      p.name = take_name();
    } else {
      error_here("expected template parameter name");
      break;
    }
    expect(TokenKind::kColon, "after template parameter name");
    if (auto basic = parse_basic_kind()) {
      p.kind = *basic;
    } else if (match(TokenKind::kKwType)) {
      p.kind = ParamKind::kType;
    } else if (match(TokenKind::kKwImpl)) {
      p.kind = ParamKind::kImpl;
      expect(TokenKind::kKwOf, "after 'impl' in template parameter");
      if (check(TokenKind::kIdentifier)) {
        p.impl_of_streamlet = take_name();
      } else {
        error_here("expected streamlet name after 'impl of'");
      }
      if (check(TokenKind::kLess)) {
        p.impl_of_args = parse_template_args();
      }
    } else {
      error_here("expected parameter kind (int/float/string/bool/"
                 "clockdomain/type/impl of)");
      break;
    }
    params.push_back(std::move(p));
  } while (match(TokenKind::kComma));
  expect(TokenKind::kGreater, "to close template parameter list");
  return params;
}

std::vector<TemplateArg> Parser::parse_template_args() {
  std::vector<TemplateArg> args;
  if (!match(TokenKind::kLess)) return args;
  ++angle_depth_;
  if (!check(TokenKind::kGreater)) {
    do {
      TemplateArg a;
      a.loc = peek().loc;
      if (match(TokenKind::kKwType)) {
        a.kind = TemplateArg::Kind::kType;
        a.type = parse_type();
      } else if (match(TokenKind::kKwImpl)) {
        a.kind = TemplateArg::Kind::kImpl;
        if (check(TokenKind::kIdentifier)) {
          a.impl_name = take_name();
        } else {
          error_here("expected impl name after 'impl'");
        }
      } else {
        a.kind = TemplateArg::Kind::kExpr;
        a.expr = parse_expr();
      }
      args.push_back(std::move(a));
    } while (match(TokenKind::kComma));
  }
  --angle_depth_;
  expect(TokenKind::kGreater, "to close template argument list");
  return args;
}

PortDecl Parser::parse_port() {
  PortDecl p;
  p.loc = peek().loc;
  if (check(TokenKind::kIdentifier)) {
    p.name = take_name();
  } else {
    error_here("expected port name");
  }
  expect(TokenKind::kColon, "after port name");
  p.type = parse_type();
  if (match(TokenKind::kKwIn)) {
    p.dir = PortDir::kIn;
  } else if (check(TokenKind::kIdentifier) && peek().text == "out") {
    advance();
    p.dir = PortDir::kOut;
  } else {
    error_here("expected port direction 'in' or 'out'");
  }
  if (match(TokenKind::kLBracket)) {
    p.array_size = parse_expr();
    expect(TokenKind::kRBracket, "to close port array size");
  }
  if (match(TokenKind::kAt)) {
    if (check(TokenKind::kIdentifier)) {
      p.clock_domain = take_name();
    } else {
      error_here("expected clock domain name after '@'");
    }
  }
  return p;
}

StreamletDecl Parser::parse_streamlet() {
  StreamletDecl d;
  d.loc = peek().loc;
  expect(TokenKind::kKwStreamlet, "");
  if (check(TokenKind::kIdentifier)) {
    d.name = take_name();
  } else {
    error_here("expected streamlet name");
  }
  d.params = parse_template_params();
  expect(TokenKind::kLBrace, "to open port list");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEnd)) {
    d.ports.push_back(parse_port());
    if (!match(TokenKind::kComma)) break;
  }
  expect(TokenKind::kRBrace, "to close port list");
  return d;
}

ImplDecl Parser::parse_impl() {
  ImplDecl d;
  d.loc = peek().loc;
  expect(TokenKind::kKwImpl, "");
  if (check(TokenKind::kIdentifier)) {
    d.name = take_name();
  } else {
    error_here("expected impl name");
  }
  d.params = parse_template_params();
  expect(TokenKind::kKwOf, "after impl name");
  if (check(TokenKind::kIdentifier)) {
    d.of_streamlet = take_name();
  } else {
    error_here("expected streamlet name after 'of'");
  }
  if (check(TokenKind::kLess)) {
    d.of_args = parse_template_args();
  }
  if (match(TokenKind::kAt)) {
    if (match(TokenKind::kKwExternal)) {
      d.external = true;
    } else {
      error_here("expected 'external' after '@'");
    }
  }
  expect(TokenKind::kLBrace, "to open impl body");
  d.body = parse_impl_body(&d);
  expect(TokenKind::kRBrace, "to close impl body");
  return d;
}

std::vector<ImplStmt> Parser::parse_impl_body(ImplDecl* impl_for_sim) {
  std::vector<ImplStmt> stmts;
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEnd)) {
    std::size_t before = pos_;
    switch (peek().kind) {
      case TokenKind::kKwInstance:
        stmts.push_back(parse_instance());
        break;
      case TokenKind::kKwFor:
        stmts.push_back(parse_for());
        break;
      case TokenKind::kKwIf:
        stmts.push_back(parse_if());
        break;
      case TokenKind::kKwAssert:
        stmts.push_back(parse_assert());
        break;
      case TokenKind::kKwConst:
        stmts.push_back(parse_local_const());
        break;
      case TokenKind::kKwSim:
        if (impl_for_sim != nullptr) {
          impl_for_sim->sim = parse_sim_block();
        } else {
          error_here("sim blocks are only allowed directly in an impl body");
          sync_to_stmt_end();
        }
        break;
      case TokenKind::kIdentifier:
        stmts.push_back(parse_connection());
        break;
      default:
        error_here("expected an impl statement, found " +
                   std::string(token_kind_name(peek().kind)));
        sync_to_stmt_end();
        break;
    }
    if (pos_ == before) advance();  // guarantee progress on bad input
  }
  return stmts;
}

ImplStmt Parser::parse_instance() {
  InstanceStmt s;
  s.loc = peek().loc;
  expect(TokenKind::kKwInstance, "");
  if (check(TokenKind::kIdentifier)) {
    s.name = take_name();
  } else {
    error_here("expected instance name");
  }
  if (match(TokenKind::kLBracket)) {
    s.name_index = parse_expr();
    expect(TokenKind::kRBracket, "to close instance name index");
  }
  expect(TokenKind::kLParen, "after instance name");
  if (check(TokenKind::kIdentifier)) {
    s.impl_name = take_name();
  } else {
    error_here("expected impl name in instance declaration");
  }
  if (check(TokenKind::kLess)) {
    s.args = parse_template_args();
  }
  expect(TokenKind::kRParen, "to close instance declaration");
  if (match(TokenKind::kLBracket)) {
    s.array_size = parse_expr();
    expect(TokenKind::kRBracket, "to close instance array size");
  }
  if (!match(TokenKind::kComma)) match(TokenKind::kSemicolon);
  return ImplStmt{std::move(s)};
}

PortRef Parser::parse_port_ref() {
  PortRef r;
  r.loc = peek().loc;
  Name first;
  if (check(TokenKind::kIdentifier)) {
    first = take_name();
  } else {
    error_here("expected port reference");
    return r;
  }
  ExprPtr first_index;
  if (match(TokenKind::kLBracket)) {
    first_index = parse_expr();
    expect(TokenKind::kRBracket, "to close index");
  }
  if (match(TokenKind::kDot)) {
    r.instance = first;
    r.instance_index = std::move(first_index);
    if (check(TokenKind::kIdentifier)) {
      r.port = take_name();
    } else {
      error_here("expected port name after '.'");
    }
    if (match(TokenKind::kLBracket)) {
      r.port_index = parse_expr();
      expect(TokenKind::kRBracket, "to close port index");
    }
  } else {
    r.port = first;
    r.port_index = std::move(first_index);
  }
  return r;
}

ImplStmt Parser::parse_connection() {
  ConnectStmt s;
  s.loc = peek().loc;
  s.src = parse_port_ref();
  expect(TokenKind::kFatArrow, "in connection");
  s.dst = parse_port_ref();
  if (match(TokenKind::kAt)) {
    if (check(TokenKind::kIdentifier) && peek().text == "structural") {
      advance();
      s.structural = true;
    } else {
      error_here("expected 'structural' after '@' on a connection");
    }
  }
  if (!match(TokenKind::kComma)) match(TokenKind::kSemicolon);
  return ImplStmt{std::move(s)};
}

ImplStmt Parser::parse_for() {
  ForStmt s;
  s.loc = peek().loc;
  expect(TokenKind::kKwFor, "");
  if (check(TokenKind::kIdentifier)) {
    s.var = take_name();
  } else {
    error_here("expected loop variable name");
  }
  expect(TokenKind::kKwIn, "in for statement");
  s.iterable = parse_expr();
  expect(TokenKind::kLBrace, "to open for body");
  s.body = parse_impl_body(nullptr);
  expect(TokenKind::kRBrace, "to close for body");
  return ImplStmt{std::move(s)};
}

ImplStmt Parser::parse_if() {
  IfStmt s;
  s.loc = peek().loc;
  expect(TokenKind::kKwIf, "");
  expect(TokenKind::kLParen, "after 'if'");
  s.cond = parse_expr();
  expect(TokenKind::kRParen, "to close if condition");
  expect(TokenKind::kLBrace, "to open if body");
  s.then_body = parse_impl_body(nullptr);
  expect(TokenKind::kRBrace, "to close if body");
  if (match(TokenKind::kKwElse)) {
    expect(TokenKind::kLBrace, "to open else body");
    s.else_body = parse_impl_body(nullptr);
    expect(TokenKind::kRBrace, "to close else body");
  }
  return ImplStmt{std::move(s)};
}

ImplStmt Parser::parse_assert() {
  AssertStmt s;
  s.loc = peek().loc;
  expect(TokenKind::kKwAssert, "");
  expect(TokenKind::kLParen, "after 'assert'");
  s.cond = parse_expr();
  if (match(TokenKind::kComma)) {
    if (check(TokenKind::kStringLiteral)) {
      s.message = unescape(advance().text);
    } else {
      error_here("expected string message in assert");
    }
  }
  expect(TokenKind::kRParen, "to close assert");
  expect(TokenKind::kSemicolon, "after assert");
  return ImplStmt{std::move(s)};
}

ImplStmt Parser::parse_local_const() {
  ConstDecl c = parse_const_decl();
  LocalConst l;
  l.name = c.name;
  l.declared_kind = c.declared_kind;
  l.init = std::move(c.init);
  l.loc = c.loc;
  return ImplStmt{std::move(l)};
}

SimBlock Parser::parse_sim_block() {
  SimBlock sim;
  sim.loc = peek().loc;
  expect(TokenKind::kKwSim, "");
  expect(TokenKind::kLBrace, "to open sim block");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEnd)) {
    std::size_t before = pos_;
    if (match(TokenKind::kKwState)) {
      SimStateDecl st;
      st.loc = peek().loc;
      if (check(TokenKind::kIdentifier)) {
        st.name = take_name();
      } else {
        error_here("expected state variable name");
      }
      expect(TokenKind::kEq, "in state declaration");
      if (check(TokenKind::kStringLiteral)) {
        st.initial = unescape(advance().text);
      } else {
        error_here("expected initial state string");
      }
      expect(TokenKind::kSemicolon, "after state declaration");
      sim.states.push_back(std::move(st));
    } else if (match(TokenKind::kKwOn)) {
      SimHandler h;
      h.loc = peek().loc;
      if (check(TokenKind::kIdentifier) && peek().text == "start") {
        advance();
      } else {
        do {
          if (!check(TokenKind::kIdentifier)) {
            error_here("expected port name in event expression");
            break;
          }
          Name port = take_name();
          expect(TokenKind::kDot, "after port name in event");
          if (check(TokenKind::kIdentifier) && peek().text == "receive") {
            advance();
          } else {
            error_here("expected 'receive' after '.' in event");
          }
          h.wait_ports.push_back(port);
        } while (match(TokenKind::kAmpAmp));
      }
      expect(TokenKind::kLBrace, "to open event handler");
      h.actions = parse_sim_actions();
      expect(TokenKind::kRBrace, "to close event handler");
      sim.handlers.push_back(std::move(h));
    } else {
      error_here("expected 'state' or 'on' in sim block");
      sync_to_stmt_end();
    }
    if (pos_ == before) advance();
  }
  expect(TokenKind::kRBrace, "to close sim block");
  return sim;
}

std::vector<SimAction> Parser::parse_sim_actions() {
  std::vector<SimAction> actions;
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEnd)) {
    std::size_t before = pos_;
    actions.push_back(parse_sim_action());
    if (pos_ == before) advance();
  }
  return actions;
}

SimAction Parser::parse_sim_action() {
  SimAction a;
  a.loc = peek().loc;
  if (match(TokenKind::kKwFor)) {
    ActFor n;
    if (check(TokenKind::kIdentifier)) {
      n.var = take_name();
    } else {
      error_here("expected loop variable in sim for");
    }
    expect(TokenKind::kKwIn, "in sim for");
    n.iterable = parse_expr();
    expect(TokenKind::kLBrace, "to open sim for body");
    n.body = parse_sim_actions();
    expect(TokenKind::kRBrace, "to close sim for body");
    a.node = std::move(n);
    return a;
  }
  if (match(TokenKind::kKwIf)) {
    ActIf n;
    expect(TokenKind::kLParen, "after 'if'");
    n.cond = parse_expr();
    expect(TokenKind::kRParen, "to close condition");
    expect(TokenKind::kLBrace, "to open if body");
    n.then_body = parse_sim_actions();
    expect(TokenKind::kRBrace, "to close if body");
    if (match(TokenKind::kKwElse)) {
      expect(TokenKind::kLBrace, "to open else body");
      n.else_body = parse_sim_actions();
      expect(TokenKind::kRBrace, "to close else body");
    }
    a.node = std::move(n);
    return a;
  }
  if (match(TokenKind::kKwSet)) {
    ActSet n;
    if (check(TokenKind::kIdentifier)) {
      n.state_var = take_name();
    } else {
      error_here("expected state variable after 'set'");
    }
    expect(TokenKind::kEq, "in set action");
    n.value = parse_expr();
    expect(TokenKind::kSemicolon, "after set action");
    a.node = std::move(n);
    return a;
  }
  if (check(TokenKind::kIdentifier)) {
    const std::string_view verb = peek().text;
    if (verb == "ack" || verb == "send" || verb == "delay") {
      advance();
      expect(TokenKind::kLParen, "after action verb");
      if (verb == "delay") {
        ActDelay n;
        n.cycles = parse_expr();
        expect(TokenKind::kRParen, "to close delay");
        expect(TokenKind::kSemicolon, "after delay action");
        a.node = std::move(n);
        return a;
      }
      Name port;
      if (check(TokenKind::kIdentifier)) {
        port = take_name();
      } else {
        error_here("expected port name in action");
      }
      if (verb == "ack") {
        ActAck n;
        n.port = port;
        expect(TokenKind::kRParen, "to close ack");
        expect(TokenKind::kSemicolon, "after ack action");
        a.node = std::move(n);
        return a;
      }
      ActSend n;
      n.port = port;
      if (match(TokenKind::kComma)) {
        n.payload = parse_expr();
      }
      expect(TokenKind::kRParen, "to close send");
      expect(TokenKind::kSemicolon, "after send action");
      a.node = std::move(n);
      return a;
    }
  }
  error_here("expected a sim action (ack/send/delay/set/if)");
  sync_to_stmt_end();
  a.node = ActDelay{make_expr(a.loc, IntLit{0})};
  return a;
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TypeExprPtr Parser::parse_type() {
  support::Loc loc = peek().loc;
  if (match(TokenKind::kKwNull)) {
    return make_type(loc, NullTypeExpr{});
  }
  if (match(TokenKind::kKwBit)) {
    expect(TokenKind::kLParen, "after 'Bit'");
    BitTypeExpr bit;
    bit.width = parse_expr();
    expect(TokenKind::kRParen, "to close Bit width");
    return make_type(loc, std::move(bit));
  }
  if (match(TokenKind::kKwStream)) {
    expect(TokenKind::kLParen, "after 'Stream'");
    StreamTypeExpr s;
    s.element = parse_type();
    while (match(TokenKind::kComma)) {
      if (!check(TokenKind::kIdentifier)) {
        error_here("expected stream option key (t/d/c/s/r/u)");
        break;
      }
      const std::string_view key = advance().text;
      expect(TokenKind::kEq, "after stream option key");
      if (key == "t" || key == "throughput") {
        s.throughput = parse_expr();
      } else if (key == "d" || key == "dimension") {
        s.dimension = parse_expr();
      } else if (key == "c" || key == "complexity") {
        s.complexity = parse_expr();
      } else if (key == "s" || key == "synchronicity") {
        if (check(TokenKind::kIdentifier)) {
          const std::string_view v = advance().text;
          if (v == "Sync") s.synchronicity = Synchronicity::kSync;
          else if (v == "Flatten") s.synchronicity = Synchronicity::kFlatten;
          else if (v == "Desync") s.synchronicity = Synchronicity::kDesync;
          else if (v == "FlatDesync")
            s.synchronicity = Synchronicity::kFlatDesync;
          else error_here("unknown synchronicity '" + std::string(v) + "'");
        } else {
          error_here("expected synchronicity name");
        }
      } else if (key == "r" || key == "direction") {
        if (check(TokenKind::kIdentifier)) {
          const std::string_view v = advance().text;
          if (v == "Forward") s.direction = StreamDir::kForward;
          else if (v == "Reverse") s.direction = StreamDir::kReverse;
          else error_here("unknown stream direction '" + std::string(v) + "'");
        } else {
          error_here("expected stream direction name");
        }
      } else if (key == "u" || key == "user") {
        s.user = parse_type();
      } else {
        error_here("unknown stream option '" + std::string(key) + "'");
        parse_expr();  // consume and discard
      }
    }
    expect(TokenKind::kRParen, "to close Stream type");
    return make_type(loc, std::move(s));
  }
  if (check(TokenKind::kIdentifier)) {
    NamedTypeExpr n;
    n.name = take_name();
    return make_type(loc, std::move(n));
  }
  error_here("expected a type, found " +
             std::string(token_kind_name(peek().kind)));
  return make_type(loc, NullTypeExpr{});
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing, lowest first: range, ||, &&, ==, <,
// +, *, ** (right-assoc), unary, postfix).
// ---------------------------------------------------------------------------

ExprPtr Parser::parse_expr() { return parse_range(); }

ExprPtr Parser::parse_range() {
  ExprPtr lhs = parse_or();
  while (check(TokenKind::kThinArrow) || check(TokenKind::kDotDot)) {
    support::Loc loc = peek().loc;
    advance();
    ExprPtr rhs = parse_or();
    lhs = make_expr(loc,
                    Binary{BinaryOp::kRange, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_or() {
  ExprPtr lhs = parse_and();
  while (check(TokenKind::kPipePipe)) {
    support::Loc loc = peek().loc;
    advance();
    ExprPtr rhs = parse_and();
    lhs =
        make_expr(loc, Binary{BinaryOp::kOr, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_and() {
  ExprPtr lhs = parse_equality();
  while (check(TokenKind::kAmpAmp)) {
    support::Loc loc = peek().loc;
    advance();
    ExprPtr rhs = parse_equality();
    lhs =
        make_expr(loc, Binary{BinaryOp::kAnd, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_equality() {
  ExprPtr lhs = parse_comparison();
  while (check(TokenKind::kEqEq) || check(TokenKind::kNotEq)) {
    support::Loc loc = peek().loc;
    BinaryOp op =
        advance().is(TokenKind::kEqEq) ? BinaryOp::kEq : BinaryOp::kNe;
    ExprPtr rhs = parse_comparison();
    lhs = make_expr(loc, Binary{op, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_comparison() {
  ExprPtr lhs = parse_additive();
  for (;;) {
    TokenKind k = peek().kind;
    BinaryOp op;
    if (k == TokenKind::kLessEq) {
      op = BinaryOp::kLe;
    } else if (k == TokenKind::kGreaterEq) {
      op = BinaryOp::kGe;
    } else if (k == TokenKind::kLess && angle_depth_ == 0) {
      op = BinaryOp::kLt;
    } else if (k == TokenKind::kGreater && angle_depth_ == 0) {
      op = BinaryOp::kGt;
    } else {
      break;
    }
    support::Loc loc = peek().loc;
    advance();
    ExprPtr rhs = parse_additive();
    lhs = make_expr(loc, Binary{op, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_additive() {
  ExprPtr lhs = parse_multiplicative();
  while (check(TokenKind::kPlus) || check(TokenKind::kMinus)) {
    support::Loc loc = peek().loc;
    BinaryOp op =
        advance().is(TokenKind::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
    ExprPtr rhs = parse_multiplicative();
    lhs = make_expr(loc, Binary{op, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_multiplicative() {
  ExprPtr lhs = parse_power();
  for (;;) {
    TokenKind k = peek().kind;
    BinaryOp op;
    if (k == TokenKind::kStar) {
      op = BinaryOp::kMul;
    } else if (k == TokenKind::kSlash) {
      op = BinaryOp::kDiv;
    } else if (k == TokenKind::kPercent) {
      op = BinaryOp::kMod;
    } else {
      break;
    }
    support::Loc loc = peek().loc;
    advance();
    ExprPtr rhs = parse_power();
    lhs = make_expr(loc, Binary{op, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_power() {
  ExprPtr lhs = parse_unary();
  if (check(TokenKind::kStarStar)) {
    support::Loc loc = peek().loc;
    advance();
    ExprPtr rhs = parse_power();  // right associative
    return make_expr(loc,
                     Binary{BinaryOp::kPow, std::move(lhs), std::move(rhs)});
  }
  return lhs;
}

ExprPtr Parser::parse_unary() {
  support::Loc loc = peek().loc;
  if (match(TokenKind::kMinus)) {
    return make_expr(loc, Unary{UnaryOp::kNeg, parse_unary()});
  }
  if (match(TokenKind::kBang)) {
    return make_expr(loc, Unary{UnaryOp::kNot, parse_unary()});
  }
  return parse_postfix();
}

ExprPtr Parser::parse_postfix() {
  ExprPtr e = parse_primary();
  while (match(TokenKind::kLBracket)) {
    support::Loc loc = peek().loc;
    ExprPtr index = parse_expr();
    expect(TokenKind::kRBracket, "to close index");
    e = make_expr(loc, IndexExpr{std::move(e), std::move(index)});
  }
  return e;
}

ExprPtr Parser::parse_primary() {
  support::Loc loc = peek().loc;
  switch (peek().kind) {
    case TokenKind::kIntLiteral: {
      const Token& t = advance();
      return make_expr(loc, IntLit{t.int_value});
    }
    case TokenKind::kFloatLiteral: {
      const Token& t = advance();
      return make_expr(loc, FloatLit{t.float_value});
    }
    case TokenKind::kStringLiteral: {
      const Token& t = advance();
      return make_expr(loc, StringLit{unescape(t.text)});
    }
    case TokenKind::kKwTrue:
      advance();
      return make_expr(loc, BoolLit{true});
    case TokenKind::kKwFalse:
      advance();
      return make_expr(loc, BoolLit{false});
    case TokenKind::kKwClockdomain:
      // `clockdomain("name" [, MHz])` is a builtin constructor call; the
      // keyword doubles as the callee name.
      if (peek_next().is(TokenKind::kLParen)) {
        Call call;
        call.callee = take_name();
        advance();
        int saved = angle_depth_;
        angle_depth_ = 0;
        if (!check(TokenKind::kRParen)) {
          do {
            call.args.push_back(parse_expr());
          } while (match(TokenKind::kComma));
        }
        angle_depth_ = saved;
        expect(TokenKind::kRParen, "to close clockdomain()");
        return make_expr(loc, std::move(call));
      }
      error_here("expected an expression, found 'clockdomain'");
      advance();
      return make_expr(loc, IntLit{0});
    case TokenKind::kIdentifier: {
      const Name name = take_name();
      if (check(TokenKind::kLParen)) {
        advance();
        Call call;
        call.callee = name;
        // Calls reset angle suppression: parenthesized args may freely use
        // comparison operators even inside template argument lists.
        int saved = angle_depth_;
        angle_depth_ = 0;
        if (!check(TokenKind::kRParen)) {
          do {
            call.args.push_back(parse_expr());
          } while (match(TokenKind::kComma));
        }
        angle_depth_ = saved;
        expect(TokenKind::kRParen, "to close call");
        return make_expr(loc, std::move(call));
      }
      return make_expr(loc, Ident{name});
    }
    case TokenKind::kLParen: {
      advance();
      int saved = angle_depth_;
      angle_depth_ = 0;
      ExprPtr e = parse_expr();
      angle_depth_ = saved;
      expect(TokenKind::kRParen, "to close parenthesized expression");
      return e;
    }
    case TokenKind::kLBracket: {
      advance();
      ArrayLit arr;
      int saved = angle_depth_;
      angle_depth_ = 0;
      if (!check(TokenKind::kRBracket)) {
        do {
          arr.elems.push_back(parse_expr());
        } while (match(TokenKind::kComma));
      }
      angle_depth_ = saved;
      expect(TokenKind::kRBracket, "to close array literal");
      return make_expr(loc, std::move(arr));
    }
    case TokenKind::kError: {
      const Token& t = advance();
      diags_.error("lexer", error_message(t), t.loc);
      return make_expr(loc, IntLit{0});
    }
    default:
      error_here("expected an expression, found " +
                 std::string(token_kind_name(peek().kind)));
      advance();
      return make_expr(loc, IntLit{0});
  }
}

SourceFile parse(std::string_view text, support::FileId file,
                 support::DiagnosticEngine& diags) {
  return Parser(text, file, diags).parse_file();
}

}  // namespace tydi::lang
