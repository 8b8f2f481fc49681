#include "graphdot/lexer.hh"

#include <cctype>

#include "util/strings.hh"

namespace mercury {
namespace graphdot {

namespace {

bool
isDigit(char ch)
{
    return std::isdigit(static_cast<unsigned char>(ch));
}

} // namespace

const char *
tokenKindName(TokenKind kind)
{
    switch (kind) {
      case TokenKind::Identifier: return "identifier";
      case TokenKind::Number:     return "number";
      case TokenKind::String:     return "string";
      case TokenKind::LBrace:     return "'{'";
      case TokenKind::RBrace:     return "'}'";
      case TokenKind::LBracket:   return "'['";
      case TokenKind::RBracket:   return "']'";
      case TokenKind::Semicolon:  return "';'";
      case TokenKind::Comma:      return "','";
      case TokenKind::Equals:     return "'='";
      case TokenKind::HeatEdge:   return "'--'";
      case TokenKind::AirEdge:    return "'->'";
      case TokenKind::EndOfFile:  return "end of file";
    }
    return "?";
}

Lexer::Lexer(std::string_view source)
    : source_(source)
{
}

void
Lexer::advance()
{
    if (source_[pos_++] == '\n') {
        ++line_;
        lineStart_ = pos_;
    }
}

void
Lexer::error(const std::string &message)
{
    errors_.push_back(format("line %d:%d: ", tokenLine_, tokenColumn_) +
                      message);
}

void
Lexer::skipWhitespaceAndComments()
{
    while (!atEnd()) {
        char ch = peek();
        if (std::isspace(static_cast<unsigned char>(ch))) {
            advance();
        } else if (ch == '#' || (ch == '/' && peek(1) == '/')) {
            // Stop at the newline; the whitespace branch counts it.
            size_t eol = source_.find('\n', pos_);
            pos_ = eol == std::string_view::npos ? source_.size() : eol;
        } else if (ch == '/' && peek(1) == '*') {
            size_t close = source_.find("*/", pos_ + 2);
            size_t stop =
                close == std::string_view::npos ? source_.size() : close;
            while (pos_ < stop)
                advance();
            if (atEnd()) {
                tokenLine_ = line_;
                tokenColumn_ = column();
                error("unterminated block comment");
            } else {
                pos_ += 2;
            }
        } else {
            break;
        }
    }
}

Token
Lexer::make(TokenKind kind, std::string_view text)
{
    Token token;
    token.kind = kind;
    token.text = text;
    token.line = tokenLine_;
    token.column = tokenColumn_;
    return token;
}

Token
Lexer::lexNumber()
{
    // sign? digits ('.' digits)? ([eE] sign? digits)? -- no newline
    // can occur, so the line bookkeeping in advance() is not needed.
    size_t start = pos_;
    if (peek() == '-' || peek() == '+')
        ++pos_;
    while (isDigit(peek()))
        ++pos_;
    if (peek() == '.') {
        ++pos_;
        while (isDigit(peek()))
            ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
        ++pos_;
        if (peek() == '-' || peek() == '+')
            ++pos_;
        while (isDigit(peek()))
            ++pos_;
    }
    std::string_view spelling = source_.substr(start, pos_ - start);
    Token token = make(TokenKind::Number, spelling);
    if (auto value = parseDouble(spelling))
        token.number = *value;
    else
        error("malformed number '" + std::string(spelling) + "'");
    return token;
}

Token
Lexer::lexIdentifier()
{
    size_t start = pos_;
    while (std::isalnum(static_cast<unsigned char>(peek())) ||
           peek() == '_' || peek() == '.') {
        ++pos_;
    }
    return make(TokenKind::Identifier, source_.substr(start, pos_ - start));
}

Token
Lexer::lexString()
{
    ++pos_; // opening quote
    size_t start = pos_;
    while (!atEnd() && peek() != '"' && peek() != '\\')
        advance();
    std::string_view contents = source_.substr(start, pos_ - start);
    if (!atEnd() && peek() == '\\') {
        // Escapes: decode into a copy the token can view.
        std::string &decoded = decoded_.emplace_back(contents);
        while (!atEnd() && peek() != '"') {
            char ch = peek();
            advance();
            if (ch == '\\' && !atEnd()) {
                char esc = peek();
                advance();
                switch (esc) {
                  case 'n': decoded += '\n'; break;
                  case 't': decoded += '\t'; break;
                  case '"': decoded += '"'; break;
                  case '\\': decoded += '\\'; break;
                  default:
                    error(std::string("unknown escape '\\") + esc + "'");
                    decoded += esc;
                }
            } else {
                decoded += ch;
            }
        }
        contents = decoded;
    }
    if (atEnd())
        error("unterminated string literal");
    else
        ++pos_; // closing quote
    return make(TokenKind::String, contents);
}

Token
Lexer::next()
{
    while (true) {
        skipWhitespaceAndComments();
        tokenLine_ = line_;
        tokenColumn_ = column();
        if (atEnd())
            return make(TokenKind::EndOfFile, {});
        char ch = peek();
        if (isDigit(ch) || ((ch == '-' || ch == '+') && isDigit(peek(1))))
            return lexNumber();
        if (std::isalpha(static_cast<unsigned char>(ch)) || ch == '_')
            return lexIdentifier();
        TokenKind kind;
        size_t width = 1;
        switch (ch) {
          case '"': return lexString();
          case '{': kind = TokenKind::LBrace; break;
          case '}': kind = TokenKind::RBrace; break;
          case '[': kind = TokenKind::LBracket; break;
          case ']': kind = TokenKind::RBracket; break;
          case ';': kind = TokenKind::Semicolon; break;
          case ',': kind = TokenKind::Comma; break;
          case '=': kind = TokenKind::Equals; break;
          case '-':
            if (peek(1) == '-' || peek(1) == '>') {
                kind = peek(1) == '-' ? TokenKind::HeatEdge
                                      : TokenKind::AirEdge;
                width = 2;
                break;
            }
            [[fallthrough]];
          default:
            error(std::string("unexpected character '") + ch + "'");
            advance();
            continue;
        }
        Token token = make(kind, source_.substr(pos_, width));
        pos_ += width;
        return token;
    }
}

} // namespace graphdot
} // namespace mercury
