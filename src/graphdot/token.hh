/**
 * @file
 * Token definitions for the modified-dot configuration language
 * (Section 2.3: "the user can specify the input graphs to the solver
 * using our modified version of the language dot ... changing its
 * syntax to allow the specification of air fractions, component
 * masses, etc.").
 */

#ifndef MERCURY_GRAPHDOT_TOKEN_HH
#define MERCURY_GRAPHDOT_TOKEN_HH

#include <string_view>

namespace mercury {
namespace graphdot {

/** Lexical token kinds. */
enum class TokenKind {
    Identifier, //!< bare word: machine, node, cpu_air, ...
    Number,     //!< numeric literal (double syntax)
    String,     //!< double-quoted string
    LBrace,     //!< {
    RBrace,     //!< }
    LBracket,   //!< [
    RBracket,   //!< ]
    Semicolon,  //!< ;
    Comma,      //!< ,
    Equals,     //!< =
    HeatEdge,   //!< -- (undirected heat-flow edge)
    AirEdge,    //!< -> (directed air-flow edge)
    EndOfFile
};

/**
 * One lexical token with source position for diagnostics. The text is
 * a view into the lexed source (or, for a string literal with escapes,
 * into the lexer's decoded copy), valid while the Lexer lives.
 */
struct Token
{
    TokenKind kind = TokenKind::EndOfFile;
    std::string_view text; //!< identifier/string contents, spelling
    double number = 0;     //!< value when kind == Number
    int line = 0;          //!< 1-based source line
    int column = 0;        //!< 1-based source column
};

/** Human-readable token kind name for error messages. */
const char *tokenKindName(TokenKind kind);

} // namespace graphdot
} // namespace mercury

#endif // MERCURY_GRAPHDOT_TOKEN_HH
