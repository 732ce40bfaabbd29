#include "src/ast/ast.hpp"

#include <sstream>

#include "src/support/text.hpp"

namespace tydi::lang {

const std::string& Name::str() const {
  static const std::string kUnset;
  return empty() ? kUnset : support::symbol_name(sym);
}

std::ostream& operator<<(std::ostream& out, Name name) {
  return out << name.str();
}

std::string_view to_string(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kPow: return "**";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
    case BinaryOp::kRange: return "->";
  }
  return "?";
}

std::string_view to_string(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNeg: return "-";
    case UnaryOp::kNot: return "!";
  }
  return "?";
}

std::string_view to_string(Synchronicity s) {
  switch (s) {
    case Synchronicity::kSync: return "Sync";
    case Synchronicity::kFlatten: return "Flatten";
    case Synchronicity::kDesync: return "Desync";
    case Synchronicity::kFlatDesync: return "FlatDesync";
  }
  return "?";
}

std::string_view to_string(StreamDir d) {
  switch (d) {
    case StreamDir::kForward: return "Forward";
    case StreamDir::kReverse: return "Reverse";
  }
  return "?";
}

std::string_view to_string(ParamKind k) {
  switch (k) {
    case ParamKind::kInt: return "int";
    case ParamKind::kFloat: return "float";
    case ParamKind::kString: return "string";
    case ParamKind::kBool: return "bool";
    case ParamKind::kClockdomain: return "clockdomain";
    case ParamKind::kType: return "type";
    case ParamKind::kImpl: return "impl";
  }
  return "?";
}

std::string_view to_string(PortDir d) {
  return d == PortDir::kIn ? "in" : "out";
}

ExprPtr make_expr(Loc loc,
                  std::variant<IntLit, FloatLit, StringLit, BoolLit, Ident,
                               Binary, Unary, Call, ArrayLit, IndexExpr>
                      node) {
  auto e = std::make_unique<Expr>();
  e->loc = loc;
  e->node = std::move(node);
  return e;
}

TypeExprPtr make_type(Loc loc,
                      std::variant<NullTypeExpr, BitTypeExpr, NamedTypeExpr,
                                   StreamTypeExpr>
                          node) {
  auto t = std::make_unique<TypeExpr>();
  t->loc = loc;
  t->node = std::move(node);
  return t;
}

namespace {

ExprPtr clone_opt(const ExprPtr& e) { return e ? clone(*e) : nullptr; }
TypeExprPtr clone_opt(const TypeExprPtr& t) { return t ? clone(*t) : nullptr; }

}  // namespace

ExprPtr clone(const Expr& e) {
  using V = std::variant<IntLit, FloatLit, StringLit, BoolLit, Ident, Binary,
                         Unary, Call, ArrayLit, IndexExpr>;
  V copy = std::visit(
      [](const auto& n) -> V {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Binary>) {
          return Binary{n.op, clone_opt(n.lhs), clone_opt(n.rhs)};
        } else if constexpr (std::is_same_v<T, Unary>) {
          return Unary{n.op, clone_opt(n.operand)};
        } else if constexpr (std::is_same_v<T, Call>) {
          Call c;
          c.callee = n.callee;
          for (const auto& a : n.args) c.args.push_back(clone(*a));
          return c;
        } else if constexpr (std::is_same_v<T, ArrayLit>) {
          ArrayLit a;
          for (const auto& el : n.elems) a.elems.push_back(clone(*el));
          return a;
        } else if constexpr (std::is_same_v<T, IndexExpr>) {
          return IndexExpr{clone_opt(n.base), clone_opt(n.index)};
        } else {
          return n;  // leaf nodes copy trivially
        }
      },
      e.node);
  return make_expr(e.loc, std::move(copy));
}

TypeExprPtr clone(const TypeExpr& t) {
  using V =
      std::variant<NullTypeExpr, BitTypeExpr, NamedTypeExpr, StreamTypeExpr>;
  V copy = std::visit(
      [](const auto& n) -> V {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, BitTypeExpr>) {
          return BitTypeExpr{clone_opt(n.width)};
        } else if constexpr (std::is_same_v<T, StreamTypeExpr>) {
          StreamTypeExpr s;
          s.element = clone_opt(n.element);
          s.throughput = clone_opt(n.throughput);
          s.dimension = clone_opt(n.dimension);
          s.complexity = clone_opt(n.complexity);
          s.synchronicity = n.synchronicity;
          s.direction = n.direction;
          s.user = clone_opt(n.user);
          return s;
        } else {
          return n;
        }
      },
      t.node);
  return make_type(t.loc, std::move(copy));
}

TemplateArg::TemplateArg(const TemplateArg& other)
    : kind(other.kind),
      expr(other.expr ? clone(*other.expr) : nullptr),
      type(other.type ? clone(*other.type) : nullptr),
      impl_name(other.impl_name),
      loc(other.loc) {}

TemplateArg& TemplateArg::operator=(const TemplateArg& other) {
  if (this == &other) return *this;
  kind = other.kind;
  expr = other.expr ? clone(*other.expr) : nullptr;
  type = other.type ? clone(*other.type) : nullptr;
  impl_name = other.impl_name;
  loc = other.loc;
  return *this;
}

// ---------------------------------------------------------------------------
// Pretty printer
// ---------------------------------------------------------------------------

namespace {

void print_expr(std::ostream& out, const Expr& e);

void print_type(std::ostream& out, const TypeExpr& t) {
  std::visit(
      [&out](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, NullTypeExpr>) {
          out << "Null";
        } else if constexpr (std::is_same_v<T, BitTypeExpr>) {
          out << "Bit(";
          print_expr(out, *n.width);
          out << ")";
        } else if constexpr (std::is_same_v<T, NamedTypeExpr>) {
          out << n.name;
        } else if constexpr (std::is_same_v<T, StreamTypeExpr>) {
          out << "Stream(";
          print_type(out, *n.element);
          if (n.throughput) {
            out << ", t=";
            print_expr(out, *n.throughput);
          }
          if (n.dimension) {
            out << ", d=";
            print_expr(out, *n.dimension);
          }
          if (n.complexity) {
            out << ", c=";
            print_expr(out, *n.complexity);
          }
          if (n.synchronicity) {
            out << ", s=" << to_string(*n.synchronicity);
          }
          if (n.direction) {
            out << ", r=" << to_string(*n.direction);
          }
          if (n.user) {
            out << ", u=";
            print_type(out, *n.user);
          }
          out << ")";
        }
      },
      t.node);
}

void print_expr(std::ostream& out, const Expr& e) {
  std::visit(
      [&out](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, IntLit>) {
          out << n.value;
        } else if constexpr (std::is_same_v<T, FloatLit>) {
          out << support::format_fixed(n.value, 6);
        } else if constexpr (std::is_same_v<T, StringLit>) {
          out << '"';
          for (char c : n.value) {
            if (c == '"' || c == '\\') out << '\\';
            out << c;
          }
          out << '"';
        } else if constexpr (std::is_same_v<T, BoolLit>) {
          out << (n.value ? "true" : "false");
        } else if constexpr (std::is_same_v<T, Ident>) {
          out << n.name;
        } else if constexpr (std::is_same_v<T, Binary>) {
          out << "(";
          print_expr(out, *n.lhs);
          out << " " << to_string(n.op) << " ";
          print_expr(out, *n.rhs);
          out << ")";
        } else if constexpr (std::is_same_v<T, Unary>) {
          out << to_string(n.op) << "(";
          print_expr(out, *n.operand);
          out << ")";
        } else if constexpr (std::is_same_v<T, Call>) {
          out << n.callee << "(";
          for (std::size_t i = 0; i < n.args.size(); ++i) {
            if (i > 0) out << ", ";
            print_expr(out, *n.args[i]);
          }
          out << ")";
        } else if constexpr (std::is_same_v<T, ArrayLit>) {
          out << "[";
          for (std::size_t i = 0; i < n.elems.size(); ++i) {
            if (i > 0) out << ", ";
            print_expr(out, *n.elems[i]);
          }
          out << "]";
        } else if constexpr (std::is_same_v<T, IndexExpr>) {
          print_expr(out, *n.base);
          out << "[";
          print_expr(out, *n.index);
          out << "]";
        }
      },
      e.node);
}

void print_template_arg(std::ostream& out, const TemplateArg& a) {
  switch (a.kind) {
    case TemplateArg::Kind::kExpr:
      print_expr(out, *a.expr);
      break;
    case TemplateArg::Kind::kType:
      out << "type ";
      print_type(out, *a.type);
      break;
    case TemplateArg::Kind::kImpl:
      out << "impl " << a.impl_name;
      break;
  }
}

void print_template_args(std::ostream& out,
                         const std::vector<TemplateArg>& args) {
  if (args.empty()) return;
  out << "<";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ", ";
    print_template_arg(out, args[i]);
  }
  out << ">";
}

void print_template_params(std::ostream& out,
                           const std::vector<TemplateParam>& params) {
  if (params.empty()) return;
  out << "<";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out << ", ";
    const TemplateParam& p = params[i];
    out << p.name << ": ";
    if (p.kind == ParamKind::kImpl) {
      out << "impl of " << p.impl_of_streamlet;
      print_template_args(out, p.impl_of_args);
    } else {
      out << to_string(p.kind);
    }
  }
  out << ">";
}

void print_port_ref(std::ostream& out, const PortRef& r) {
  if (!r.instance.empty()) {
    out << r.instance;
    if (r.instance_index) {
      out << "[";
      print_expr(out, *r.instance_index);
      out << "]";
    }
    out << ".";
  }
  out << r.port;
  if (r.port_index) {
    out << "[";
    print_expr(out, *r.port_index);
    out << "]";
  }
}

void print_impl_stmts(std::ostream& out, const std::vector<ImplStmt>& stmts,
                      int depth);

void print_indent(std::ostream& out, int depth) {
  for (int i = 0; i < depth; ++i) out << "  ";
}

void print_impl_stmt(std::ostream& out, const ImplStmt& s, int depth) {
  print_indent(out, depth);
  std::visit(
      [&out, depth](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, InstanceStmt>) {
          out << "instance " << n.name;
          if (n.name_index) {
            out << "[";
            print_expr(out, *n.name_index);
            out << "]";
          }
          out << "(" << n.impl_name;
          print_template_args(out, n.args);
          out << ")";
          if (n.array_size) {
            out << " [";
            print_expr(out, *n.array_size);
            out << "]";
          }
          out << ",\n";
        } else if constexpr (std::is_same_v<T, ConnectStmt>) {
          print_port_ref(out, n.src);
          out << " => ";
          print_port_ref(out, n.dst);
          if (n.structural) out << " @structural";
          out << ",\n";
        } else if constexpr (std::is_same_v<T, ForStmt>) {
          out << "for " << n.var << " in ";
          print_expr(out, *n.iterable);
          out << " {\n";
          print_impl_stmts(out, n.body, depth + 1);
          print_indent(out, depth);
          out << "}\n";
        } else if constexpr (std::is_same_v<T, IfStmt>) {
          out << "if (";
          print_expr(out, *n.cond);
          out << ") {\n";
          print_impl_stmts(out, n.then_body, depth + 1);
          print_indent(out, depth);
          out << "}";
          if (!n.else_body.empty()) {
            out << " else {\n";
            print_impl_stmts(out, n.else_body, depth + 1);
            print_indent(out, depth);
            out << "}";
          }
          out << "\n";
        } else if constexpr (std::is_same_v<T, AssertStmt>) {
          out << "assert(";
          print_expr(out, *n.cond);
          if (!n.message.empty()) out << ", \"" << n.message << "\"";
          out << ");\n";
        } else if constexpr (std::is_same_v<T, LocalConst>) {
          out << "const " << n.name;
          if (n.declared_kind) out << ": " << to_string(*n.declared_kind);
          out << " = ";
          print_expr(out, *n.init);
          out << ";\n";
        }
      },
      s.node);
}

void print_impl_stmts(std::ostream& out, const std::vector<ImplStmt>& stmts,
                      int depth) {
  for (const ImplStmt& s : stmts) print_impl_stmt(out, s, depth);
}

void print_sim_actions(std::ostream& out, const std::vector<SimAction>& acts,
                       int depth);

void print_sim_action(std::ostream& out, const SimAction& a, int depth) {
  print_indent(out, depth);
  std::visit(
      [&out, depth](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ActAck>) {
          out << "ack(" << n.port << ");\n";
        } else if constexpr (std::is_same_v<T, ActSend>) {
          out << "send(" << n.port;
          if (n.payload) {
            out << ", ";
            print_expr(out, *n.payload);
          }
          out << ");\n";
        } else if constexpr (std::is_same_v<T, ActDelay>) {
          out << "delay(";
          print_expr(out, *n.cycles);
          out << ");\n";
        } else if constexpr (std::is_same_v<T, ActSet>) {
          out << "set " << n.state_var << " = ";
          print_expr(out, *n.value);
          out << ";\n";
        } else if constexpr (std::is_same_v<T, ActIf>) {
          out << "if (";
          print_expr(out, *n.cond);
          out << ") {\n";
          print_sim_actions(out, n.then_body, depth + 1);
          print_indent(out, depth);
          out << "}";
          if (!n.else_body.empty()) {
            out << " else {\n";
            print_sim_actions(out, n.else_body, depth + 1);
            print_indent(out, depth);
            out << "}";
          }
          out << "\n";
        } else if constexpr (std::is_same_v<T, ActFor>) {
          out << "for " << n.var << " in ";
          print_expr(out, *n.iterable);
          out << " {\n";
          print_sim_actions(out, n.body, depth + 1);
          print_indent(out, depth);
          out << "}\n";
        }
      },
      a.node);
}

void print_sim_actions(std::ostream& out, const std::vector<SimAction>& acts,
                       int depth) {
  for (const SimAction& a : acts) print_sim_action(out, a, depth);
}

void print_sim_block(std::ostream& out, const SimBlock& sim, int depth) {
  print_indent(out, depth);
  out << "sim {\n";
  for (const SimStateDecl& s : sim.states) {
    print_indent(out, depth + 1);
    out << "state " << s.name << " = \"" << s.initial << "\";\n";
  }
  for (const SimHandler& h : sim.handlers) {
    print_indent(out, depth + 1);
    out << "on ";
    if (h.wait_ports.empty()) {
      out << "start";
    } else {
      for (std::size_t i = 0; i < h.wait_ports.size(); ++i) {
        if (i > 0) out << " && ";
        out << h.wait_ports[i] << ".receive";
      }
    }
    out << " {\n";
    print_sim_actions(out, h.actions, depth + 2);
    print_indent(out, depth + 1);
    out << "}\n";
  }
  print_indent(out, depth);
  out << "}\n";
}

void print_decl(std::ostream& out, const Decl& d) {
  std::visit(
      [&out](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ConstDecl>) {
          out << "const " << n.name;
          if (n.declared_kind) out << ": " << to_string(*n.declared_kind);
          out << " = ";
          print_expr(out, *n.init);
          out << ";\n";
        } else if constexpr (std::is_same_v<T, TypeAliasDecl>) {
          out << "type " << n.name << " = ";
          print_type(out, *n.type);
          out << ";\n";
        } else if constexpr (std::is_same_v<T, GroupDecl>) {
          out << (n.is_union ? "Union " : "Group ") << n.name << " {\n";
          for (const FieldDecl& f : n.fields) {
            out << "  " << f.name << ": ";
            print_type(out, *f.type);
            out << ",\n";
          }
          out << "}\n";
        } else if constexpr (std::is_same_v<T, StreamletDecl>) {
          out << "streamlet " << n.name;
          print_template_params(out, n.params);
          out << " {\n";
          for (const PortDecl& p : n.ports) {
            out << "  " << p.name << ": ";
            print_type(out, *p.type);
            out << " " << to_string(p.dir);
            if (p.array_size) {
              out << " [";
              print_expr(out, *p.array_size);
              out << "]";
            }
            if (!p.clock_domain.empty()) out << " @ " << p.clock_domain;
            out << ",\n";
          }
          out << "}\n";
        } else if constexpr (std::is_same_v<T, ImplDecl>) {
          out << "impl " << n.name;
          print_template_params(out, n.params);
          out << " of " << n.of_streamlet;
          print_template_args(out, n.of_args);
          if (n.external) out << " @ external";
          out << " {\n";
          print_impl_stmts(out, n.body, 1);
          if (n.sim) print_sim_block(out, *n.sim, 1);
          out << "}\n";
        }
      },
      d.node);
}

}  // namespace

std::string to_source(const Expr& e) {
  std::ostringstream out;
  print_expr(out, e);
  return out.str();
}

std::string to_source(const TypeExpr& t) {
  std::ostringstream out;
  print_type(out, t);
  return out.str();
}

std::string to_source(const TemplateArg& arg) {
  std::ostringstream out;
  print_template_arg(out, arg);
  return out.str();
}

std::string to_source(const SourceFile& file) {
  std::ostringstream out;
  if (!file.package.empty()) out << "package " << file.package << ";\n\n";
  for (const Decl& d : file.decls) {
    print_decl(out, d);
    out << "\n";
  }
  return out.str();
}

}  // namespace tydi::lang
