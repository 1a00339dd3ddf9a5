/**
 * @file
 * SQL lexer for the engine's dialect.
 *
 * Produces a flat token stream consumed by the parser (parser.h).
 * Keywords are not distinguished from identifiers at the lexer level;
 * the parser matches identifier tokens case-insensitively against the
 * keyword it expects, which is how most hand-written SQL front ends
 * behave and keeps the keyword set extensible.
 */
#ifndef SQLPP_PARSER_LEXER_H
#define SQLPP_PARSER_LEXER_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace sqlpp {

enum class TokenKind
{
    Identifier,
    Integer,
    String,
    /** Operators and punctuation; text holds the exact symbol. */
    Symbol,
    EndOfInput,
};

struct Token
{
    TokenKind kind = TokenKind::EndOfInput;
    /** Raw text: identifier spelling, digits, decoded string, or symbol. */
    std::string text;
    /** For Integer tokens. */
    int64_t intValue = 0;
    /**
     * Integer token whose magnitude exceeds INT64_MAX. The lexer keeps
     * it as a token (text preserved) instead of failing, because
     * "9223372036854775808" is valid when a unary minus precedes it —
     * `-9223372036854775808` is the printed form of the INT64_MIN
     * literal and must round-trip. The parser rejects the token in any
     * other position.
     */
    bool outOfRange = false;
    /** Byte offset in the input, for error messages. */
    size_t offset = 0;
};

/**
 * Tokenize a SQL string.
 *
 * Handles: identifiers, integer literals, single-quoted strings with ''
 * escapes, line comments (--), block comments, and the engine's operator
 * set including multi-character symbols (<=>, <>, !=, <=, >=, <<, >>, ||).
 *
 * @return Token vector ending with EndOfInput, or a SyntaxError status.
 */
StatusOr<std::vector<Token>> tokenize(const std::string &sql);

} // namespace sqlpp

#endif // SQLPP_PARSER_LEXER_H
