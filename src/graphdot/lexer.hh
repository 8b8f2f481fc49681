/**
 * @file
 * Lexer for the modified-dot configuration language. Supports `#` and
 * `//` line comments and C-style block comments.
 */

#ifndef MERCURY_GRAPHDOT_LEXER_HH
#define MERCURY_GRAPHDOT_LEXER_HH

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "graphdot/token.hh"

namespace mercury {
namespace graphdot {

/**
 * Turns source text into tokens, one per next() call, so a parser
 * never holds more than its lookahead. Tokens are views into the
 * source and carry their decoded number; nothing is copied except the
 * contents of string literals that use escapes. Lexing errors are
 * recorded (with positions) rather than thrown so the caller can
 * report all problems at once.
 */
class Lexer
{
  public:
    /** Lex @p source, which must outlive the lexer and its tokens. */
    explicit Lexer(std::string_view source);

    /** The next token; EndOfFile, repeatedly, once the input is used. */
    Token next();

    const std::vector<std::string> &errors() const { return errors_; }

  private:
    char peek(size_t ahead = 0) const
    {
        size_t at = pos_ + ahead;
        return at < source_.size() ? source_[at] : '\0';
    }
    bool atEnd() const { return pos_ >= source_.size(); }
    /** Step over one character, which may be a newline. */
    void advance();
    int column() const { return static_cast<int>(pos_ - lineStart_) + 1; }
    void skipWhitespaceAndComments();
    Token lexNumber();
    Token lexIdentifier();
    Token lexString();
    Token make(TokenKind kind, std::string_view text);
    void error(const std::string &message);

    std::string_view source_;
    size_t pos_ = 0;
    size_t lineStart_ = 0; //!< offset of the current line's first byte
    int line_ = 1;
    int tokenLine_ = 1;
    int tokenColumn_ = 1;
    /** Contents of string literals with escapes; a deque never moves
     *  its elements, so views into them stay valid. */
    std::deque<std::string> decoded_;
    std::vector<std::string> errors_;
};

} // namespace graphdot
} // namespace mercury

#endif // MERCURY_GRAPHDOT_LEXER_HH
