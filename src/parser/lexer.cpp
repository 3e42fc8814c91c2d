#include "parser/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace formad::parser {

namespace {

class Cursor {
 public:
  explicit Cursor(const std::string& src) : src_(src) {}

  [[nodiscard]] bool done() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(size_t ahead = 0) const {
    size_t p = pos_ + ahead;
    return p < src_.size() ? src_[p] : '\0';
  }
  char advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  [[nodiscard]] SourceLoc loc() const { return {line_, col_}; }

 private:
  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

std::vector<Token> tokenize(const std::string& source) {
  std::vector<Token> out;
  Cursor c(source);

  auto push = [&](TokKind k, SourceLoc loc) {
    Token t;
    t.kind = k;
    t.loc = loc;
    out.push_back(std::move(t));
  };

  while (!c.done()) {
    char ch = c.peek();
    SourceLoc loc = c.loc();

    if (std::isspace(static_cast<unsigned char>(ch)) != 0) {
      c.advance();
      continue;
    }
    if (ch == '#' || (ch == '/' && c.peek(1) == '/')) {
      while (!c.done() && c.peek() != '\n') c.advance();
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(ch)) != 0 || ch == '_') {
      std::string id;
      while (!c.done() && (std::isalnum(static_cast<unsigned char>(c.peek())) != 0 ||
                           c.peek() == '_'))
        id += c.advance();
      Token t;
      t.kind = TokKind::Ident;
      t.text = std::move(id);
      t.loc = loc;
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(ch)) != 0) {
      std::string num;
      bool isReal = false;
      while (!c.done() &&
             std::isdigit(static_cast<unsigned char>(c.peek())) != 0)
        num += c.advance();
      if (c.peek() == '.' &&
          std::isdigit(static_cast<unsigned char>(c.peek(1))) != 0) {
        isReal = true;
        num += c.advance();
        while (!c.done() &&
               std::isdigit(static_cast<unsigned char>(c.peek())) != 0)
          num += c.advance();
      }
      if (c.peek() == 'e' || c.peek() == 'E') {
        char sign = c.peek(1);
        size_t digitAt = (sign == '+' || sign == '-') ? 2 : 1;
        if (std::isdigit(static_cast<unsigned char>(c.peek(digitAt))) != 0) {
          isReal = true;
          num += c.advance();  // e
          if (sign == '+' || sign == '-') num += c.advance();
          while (!c.done() &&
                 std::isdigit(static_cast<unsigned char>(c.peek())) != 0)
            num += c.advance();
        }
      }
      Token t;
      t.loc = loc;
      // A literal the target type cannot hold is a located diagnostic,
      // never an exception escaping the parser.
      const char* end = num.data() + num.size();
      std::from_chars_result parsed{};
      if (isReal) {
        t.kind = TokKind::RealLit;
        parsed = std::from_chars(num.data(), end, t.realValue);
      } else {
        t.kind = TokKind::IntLit;
        parsed = std::from_chars(num.data(), end, t.intValue);
      }
      if (parsed.ec != std::errc() || parsed.ptr != end)
        fail(std::string(isReal ? "real" : "integer") + " literal '" + num +
                 "' is out of range",
             loc);
      out.push_back(std::move(t));
      continue;
    }

    c.advance();
    switch (ch) {
      case '(': push(TokKind::LParen, loc); break;
      case ')': push(TokKind::RParen, loc); break;
      case '{': push(TokKind::LBrace, loc); break;
      case '}': push(TokKind::RBrace, loc); break;
      case '[': push(TokKind::LBracket, loc); break;
      case ']': push(TokKind::RBracket, loc); break;
      case ',': push(TokKind::Comma, loc); break;
      case ':': push(TokKind::Colon, loc); break;
      case ';': push(TokKind::Semicolon, loc); break;
      case '%': push(TokKind::Percent, loc); break;
      case '*': push(TokKind::Star, loc); break;
      case '/': push(TokKind::Slash, loc); break;
      case '+':
        if (c.peek() == '=') {
          c.advance();
          push(TokKind::PlusAssign, loc);
        } else {
          push(TokKind::Plus, loc);
        }
        break;
      case '-':
        if (c.peek() == '=') {
          c.advance();
          push(TokKind::MinusAssign, loc);
        } else {
          push(TokKind::Minus, loc);
        }
        break;
      case '=':
        if (c.peek() == '=') {
          c.advance();
          push(TokKind::EqEq, loc);
        } else {
          push(TokKind::Assign, loc);
        }
        break;
      case '<':
        if (c.peek() == '=') {
          c.advance();
          push(TokKind::Le, loc);
        } else {
          push(TokKind::Lt, loc);
        }
        break;
      case '>':
        if (c.peek() == '=') {
          c.advance();
          push(TokKind::Ge, loc);
        } else {
          push(TokKind::Gt, loc);
        }
        break;
      case '!':
        if (c.peek() == '=') {
          c.advance();
          push(TokKind::Ne, loc);
        } else {
          push(TokKind::Bang, loc);
        }
        break;
      case '&':
        if (c.peek() == '&') {
          c.advance();
          push(TokKind::AndAnd, loc);
        } else {
          fail("unexpected '&'", loc);
        }
        break;
      case '|':
        if (c.peek() == '|') {
          c.advance();
          push(TokKind::OrOr, loc);
        } else {
          fail("unexpected '|'", loc);
        }
        break;
      default:
        fail(std::string("unexpected character '") + ch + "'", loc);
    }
  }

  Token eof;
  eof.kind = TokKind::Eof;
  eof.loc = c.loc();
  out.push_back(std::move(eof));
  return out;
}

std::string to_string(TokKind k) {
  switch (k) {
    case TokKind::Ident: return "identifier";
    case TokKind::IntLit: return "integer literal";
    case TokKind::RealLit: return "real literal";
    case TokKind::LParen: return "'('";
    case TokKind::RParen: return "')'";
    case TokKind::LBrace: return "'{'";
    case TokKind::RBrace: return "'}'";
    case TokKind::LBracket: return "'['";
    case TokKind::RBracket: return "']'";
    case TokKind::Comma: return "','";
    case TokKind::Colon: return "':'";
    case TokKind::Semicolon: return "';'";
    case TokKind::Assign: return "'='";
    case TokKind::PlusAssign: return "'+='";
    case TokKind::MinusAssign: return "'-='";
    case TokKind::Plus: return "'+'";
    case TokKind::Minus: return "'-'";
    case TokKind::Star: return "'*'";
    case TokKind::Slash: return "'/'";
    case TokKind::Percent: return "'%'";
    case TokKind::Lt: return "'<'";
    case TokKind::Le: return "'<='";
    case TokKind::Gt: return "'>'";
    case TokKind::Ge: return "'>='";
    case TokKind::EqEq: return "'=='";
    case TokKind::Ne: return "'!='";
    case TokKind::AndAnd: return "'&&'";
    case TokKind::OrOr: return "'||'";
    case TokKind::Bang: return "'!'";
    case TokKind::Eof: return "end of input";
  }
  return "?";
}

}  // namespace formad::parser
