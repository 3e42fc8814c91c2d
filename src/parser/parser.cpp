#include "parser/parser.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "ir/builder.h"
#include "parser/lexer.h"

namespace formad::parser {

namespace {

using namespace formad::ir;

/// Deepest tree the parser builds, counting statement bodies, nested
/// expressions and every operator of a chain like a + b + ... as levels.
/// Every later pass walks the IR recursively, so a deeper tree would
/// overflow the stack.
constexpr int kMaxDepth = 2000;

const std::map<std::string, Intrinsic>& intrinsicTable() {
  static const std::map<std::string, Intrinsic> table = {
      {"sin", Intrinsic::Sin},   {"cos", Intrinsic::Cos},
      {"tan", Intrinsic::Tan},   {"exp", Intrinsic::Exp},
      {"log", Intrinsic::Log},   {"sqrt", Intrinsic::Sqrt},
      {"abs", Intrinsic::Abs},   {"min", Intrinsic::Min},
      {"max", Intrinsic::Max},   {"pow", Intrinsic::Pow},
      {"tanh", Intrinsic::Tanh},
  };
  return table;
}

class Parser {
 public:
  explicit Parser(const std::string& source) : toks_(tokenize(source)) {}

  Program program() {
    Program p;
    while (!at(TokKind::Eof)) (void)p.add(kernel());
    return p;
  }

  std::unique_ptr<Kernel> kernel() {
    expectKeyword("kernel");
    auto k = std::make_unique<Kernel>();
    k->name = expectIdent();
    expect(TokKind::LParen);
    if (!at(TokKind::RParen)) {
      k->params.push_back(param());
      while (accept(TokKind::Comma)) k->params.push_back(param());
    }
    expect(TokKind::RParen);
    expect(TokKind::LBrace);
    k->body = stmtsUntilRBrace();
    return k;
  }

  ExprPtr expressionPublic() {
    auto e = expression();
    expect(TokKind::Eof);
    return e;
  }

 private:
  std::vector<Token> toks_;
  size_t pos_ = 0;
  int depth_ = 0;   // open statement bodies and nested expressions
  int height_ = 0;  // height of the expression the last parser returned

  /// Holds one nesting level open for the duration of a recursive parse.
  class Nested {
   public:
    Nested(Parser& p, SourceLoc loc) : p_(p) {
      if (++p_.depth_ > kMaxDepth) p_.tooDeep(loc);
    }
    ~Nested() { --p_.depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser& p_;
  };

  [[noreturn]] void tooDeep(SourceLoc loc) {
    fail("nesting exceeds the parser's depth limit of " +
             std::to_string(kMaxDepth) + " levels",
         loc);
  }

  /// Height of a node over children of height `childHeight`, checked
  /// against the depth limit at the node's position.
  int grow(int childHeight, SourceLoc loc) {
    if (depth_ + childHeight + 1 > kMaxDepth) tooDeep(loc);
    return childHeight + 1;
  }

  [[nodiscard]] const Token& cur() const { return toks_[pos_]; }
  [[nodiscard]] bool at(TokKind k) const { return cur().kind == k; }
  [[nodiscard]] bool atKeyword(const std::string& kw) const {
    return cur().kind == TokKind::Ident && cur().text == kw;
  }

  const Token& next() { return toks_[pos_++]; }

  bool accept(TokKind k) {
    if (!at(k)) return false;
    ++pos_;
    return true;
  }

  bool acceptKeyword(const std::string& kw) {
    if (!atKeyword(kw)) return false;
    ++pos_;
    return true;
  }

  const Token& expect(TokKind k) {
    if (!at(k))
      fail("expected " + to_string(k) + ", found " + describe(cur()),
           cur().loc);
    return next();
  }

  void expectKeyword(const std::string& kw) {
    if (!acceptKeyword(kw))
      fail("expected '" + kw + "', found " + describe(cur()), cur().loc);
  }

  std::string expectIdent() {
    return std::string(expect(TokKind::Ident).text);
  }

  static std::string describe(const Token& t) {
    if (t.kind == TokKind::Ident) return "'" + t.text + "'";
    return to_string(t.kind);
  }

  Param param() {
    Param p;
    p.name = expectIdent();
    expect(TokKind::Colon);
    p.type = type();
    if (acceptKeyword("in"))
      p.intent = Intent::In;
    else if (acceptKeyword("out"))
      p.intent = Intent::Out;
    else if (acceptKeyword("inout"))
      p.intent = Intent::InOut;
    else
      fail("expected intent (in/out/inout), found " + describe(cur()),
           cur().loc);
    return p;
  }

  Type type() {
    Type t;
    if (acceptKeyword("int"))
      t.scalar = Scalar::Int;
    else if (acceptKeyword("real"))
      t.scalar = Scalar::Real;
    else if (acceptKeyword("bool"))
      t.scalar = Scalar::Bool;
    else
      fail("expected type, found " + describe(cur()), cur().loc);
    if (accept(TokKind::LBracket)) {
      t.rank = 1;
      while (accept(TokKind::Comma)) ++t.rank;
      expect(TokKind::RBracket);
      if (t.rank > 3) fail("arrays of rank > 3 are not supported", cur().loc);
    }
    return t;
  }

  StmtList stmtsUntilRBrace() {
    Nested nested(*this, cur().loc);
    StmtList body;
    while (!at(TokKind::RBrace)) {
      if (at(TokKind::Eof)) fail("unexpected end of input", cur().loc);
      body.push_back(statement());
    }
    expect(TokKind::RBrace);
    return body;
  }

  StmtPtr statement() {
    if (atKeyword("var")) return declStmt();
    if (atKeyword("if")) return ifStmt();
    if (atKeyword("for") || atKeyword("parallel")) return forStmt();
    return assignStmt();
  }

  StmtPtr declStmt() {
    SourceLoc loc = cur().loc;
    expectKeyword("var");
    std::string name = expectIdent();
    expect(TokKind::Colon);
    Type t = type();
    if (t.isArray()) fail("local arrays are not supported", loc);
    ExprPtr init;
    if (accept(TokKind::Assign)) init = expression();
    expect(TokKind::Semicolon);
    return std::make_unique<DeclLocal>(std::move(name), t, std::move(init),
                                       loc);
  }

  StmtPtr ifStmt() {
    SourceLoc loc = cur().loc;
    expectKeyword("if");
    expect(TokKind::LParen);
    auto cond = expression();
    expect(TokKind::RParen);
    expect(TokKind::LBrace);
    StmtList thenBody = stmtsUntilRBrace();
    StmtList elseBody;
    if (acceptKeyword("else")) {
      expect(TokKind::LBrace);
      elseBody = stmtsUntilRBrace();
    }
    return std::make_unique<If>(std::move(cond), std::move(thenBody),
                                std::move(elseBody), loc);
  }

  StmtPtr forStmt() {
    SourceLoc loc = cur().loc;
    bool parallel = acceptKeyword("parallel");
    expectKeyword("for");
    std::string var = expectIdent();
    expect(TokKind::Assign);
    auto lo = expression();
    expect(TokKind::Colon);
    auto hi = expression();
    ExprPtr step;
    if (accept(TokKind::Colon))
      step = expression();
    else
      step = build::iconst(1);

    auto f = std::make_unique<For>(std::move(var), std::move(lo),
                                   std::move(hi), std::move(step), StmtList{},
                                   loc);
    f->parallel = parallel;

    while (true) {
      if (acceptKeyword("shared")) {
        f->shared = identList();
      } else if (acceptKeyword("private")) {
        f->privates = identList();
      } else if (acceptKeyword("schedule")) {
        expect(TokKind::LParen);
        if (acceptKeyword("dynamic"))
          f->sched = Schedule::Dynamic;
        else if (acceptKeyword("static"))
          f->sched = Schedule::Static;
        else
          fail("expected static or dynamic", cur().loc);
        expect(TokKind::RParen);
      } else if (acceptKeyword("reduction")) {
        expect(TokKind::LParen);
        expect(TokKind::Plus);
        expect(TokKind::Colon);
        ReductionClause r;
        r.op = BinOp::Add;
        r.var = expectIdent();
        expect(TokKind::RParen);
        f->reductions.push_back(std::move(r));
      } else {
        break;
      }
      if (!parallel)
        fail("loop clauses are only allowed on parallel loops", loc);
    }

    expect(TokKind::LBrace);
    f->body = stmtsUntilRBrace();
    return f;
  }

  std::vector<std::string> identList() {
    expect(TokKind::LParen);
    std::vector<std::string> ids;
    ids.push_back(expectIdent());
    while (accept(TokKind::Comma)) ids.push_back(expectIdent());
    expect(TokKind::RParen);
    return ids;
  }

  StmtPtr assignStmt() {
    SourceLoc loc = cur().loc;
    auto lhs = reference();
    if (accept(TokKind::Assign)) {
      auto rhs = expression();
      expect(TokKind::Semicolon);
      return std::make_unique<Assign>(std::move(lhs), std::move(rhs), loc);
    }
    if (accept(TokKind::PlusAssign)) {
      auto rhs = expression();
      expect(TokKind::Semicolon);
      auto read = lhs->clone();
      return std::make_unique<Assign>(
          std::move(lhs), build::add(std::move(read), std::move(rhs)), loc);
    }
    if (accept(TokKind::MinusAssign)) {
      auto rhs = expression();
      expect(TokKind::Semicolon);
      auto read = lhs->clone();
      return std::make_unique<Assign>(
          std::move(lhs),
          build::add(std::move(read), build::neg(std::move(rhs))), loc);
    }
    fail("expected '=', '+=' or '-=' after reference", cur().loc);
  }

  ExprPtr reference() {
    SourceLoc loc = cur().loc;
    std::string name = expectIdent();
    if (accept(TokKind::LBracket)) {
      std::vector<ExprPtr> idx;
      idx.push_back(expression());
      int h = height_;
      while (accept(TokKind::Comma)) {
        idx.push_back(expression());
        h = std::max(h, height_);
      }
      expect(TokKind::RBracket);
      height_ = grow(h, loc);
      return std::make_unique<ArrayRef>(std::move(name), std::move(idx), loc);
    }
    height_ = grow(0, loc);
    return std::make_unique<VarRef>(std::move(name), loc);
  }

  // Expression precedence climbing. Each loop below builds a left-leaning
  // chain without recursing, so it tracks the chain's height itself.
  ExprPtr expression() {
    Nested nested(*this, cur().loc);
    return orExpr();
  }

  ExprPtr orExpr() {
    auto e = andExpr();
    int h = height_;
    while (at(TokKind::OrOr)) {
      SourceLoc loc = next().loc;
      auto r = andExpr();
      h = grow(std::max(h, height_), loc);
      e = std::make_unique<Binary>(BinOp::Or, std::move(e), std::move(r), loc);
    }
    height_ = h;
    return e;
  }

  ExprPtr andExpr() {
    auto e = cmpExpr();
    int h = height_;
    while (at(TokKind::AndAnd)) {
      SourceLoc loc = next().loc;
      auto r = cmpExpr();
      h = grow(std::max(h, height_), loc);
      e = std::make_unique<Binary>(BinOp::And, std::move(e), std::move(r),
                                   loc);
    }
    height_ = h;
    return e;
  }

  ExprPtr cmpExpr() {
    auto e = addExpr();
    std::optional<BinOp> op;
    switch (cur().kind) {
      case TokKind::Lt: op = BinOp::Lt; break;
      case TokKind::Le: op = BinOp::Le; break;
      case TokKind::Gt: op = BinOp::Gt; break;
      case TokKind::Ge: op = BinOp::Ge; break;
      case TokKind::EqEq: op = BinOp::Eq; break;
      case TokKind::Ne: op = BinOp::Ne; break;
      default: break;
    }
    if (op) {
      const int hl = height_;
      SourceLoc loc = next().loc;
      auto r = addExpr();
      height_ = grow(std::max(hl, height_), loc);
      e = std::make_unique<Binary>(*op, std::move(e), std::move(r), loc);
    }
    return e;
  }

  ExprPtr addExpr() {
    auto e = mulExpr();
    int h = height_;
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      BinOp op = at(TokKind::Plus) ? BinOp::Add : BinOp::Sub;
      SourceLoc loc = next().loc;
      auto r = mulExpr();
      h = grow(std::max(h, height_), loc);
      e = std::make_unique<Binary>(op, std::move(e), std::move(r), loc);
    }
    height_ = h;
    return e;
  }

  ExprPtr mulExpr() {
    auto e = unaryExpr();
    int h = height_;
    while (at(TokKind::Star) || at(TokKind::Slash) || at(TokKind::Percent)) {
      BinOp op = at(TokKind::Star)    ? BinOp::Mul
                 : at(TokKind::Slash) ? BinOp::Div
                                      : BinOp::Mod;
      SourceLoc loc = next().loc;
      auto r = unaryExpr();
      h = grow(std::max(h, height_), loc);
      e = std::make_unique<Binary>(op, std::move(e), std::move(r), loc);
    }
    height_ = h;
    return e;
  }

  ExprPtr unaryExpr() {
    if (at(TokKind::Minus) || at(TokKind::Bang)) {
      UnOp op = at(TokKind::Minus) ? UnOp::Neg : UnOp::Not;
      SourceLoc loc = next().loc;
      Nested nested(*this, loc);
      auto operand = unaryExpr();
      height_ = grow(height_, loc);
      return std::make_unique<Unary>(op, std::move(operand), loc);
    }
    return primary();
  }

  ExprPtr primary() {
    SourceLoc loc = cur().loc;
    if (at(TokKind::IntLit)) {
      height_ = grow(0, loc);
      return std::make_unique<IntLit>(next().intValue, loc);
    }
    if (at(TokKind::RealLit)) {
      height_ = grow(0, loc);
      return std::make_unique<RealLit>(next().realValue, loc);
    }
    if (accept(TokKind::LParen)) {
      auto e = expression();
      expect(TokKind::RParen);
      return e;
    }
    if (at(TokKind::Ident)) {
      const std::string& name = cur().text;
      if (name == "true" || name == "false") {
        const bool value = name == "true";
        next();
        height_ = grow(0, loc);
        return std::make_unique<BoolLit>(value, loc);
      }
      auto it = intrinsicTable().find(name);
      if (it != intrinsicTable().end() &&
          toks_[pos_ + 1].kind == TokKind::LParen) {
        next();  // intrinsic name
        next();  // (
        std::vector<ExprPtr> args;
        int h = 0;
        if (!at(TokKind::RParen)) {
          args.push_back(expression());
          h = std::max(h, height_);
          while (accept(TokKind::Comma)) {
            args.push_back(expression());
            h = std::max(h, height_);
          }
        }
        expect(TokKind::RParen);
        if (static_cast<int>(args.size()) != intrinsicArity(it->second))
          fail("wrong number of arguments to " + name, loc);
        height_ = grow(h, loc);
        return std::make_unique<Call>(it->second, std::move(args), loc);
      }
      return reference();
    }
    fail("expected expression, found " + describe(cur()), loc);
  }
};

}  // namespace

ir::Program parseProgram(const std::string& source) {
  return Parser(source).program();
}

std::unique_ptr<ir::Kernel> parseKernel(const std::string& source) {
  Parser p(source);
  return p.kernel();
}

ir::ExprPtr parseExpr(const std::string& source) {
  return Parser(source).expressionPublic();
}

}  // namespace formad::parser
