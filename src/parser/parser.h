/**
 * @file
 * SQL parser producing the shared AST: recursive descent for statements,
 * one precedence-climbing loop over the operator table (binaryOpTable()
 * in sqlir/ast.h) for expressions, and one bound on nesting.
 *
 * Grammar (simplified):
 *
 *   stmt        ::= create-table | create-index | create-view | insert
 *                 | analyze | select | drop
 *   select      ::= SELECT [DISTINCT] items FROM sources join* [WHERE expr]
 *                   [GROUP BY exprs [HAVING expr]] [ORDER BY terms]
 *                   [LIMIT n [OFFSET n]]
 *   expr        ::= binary operators by binding level, loosest first:
 *                   OR < AND < prefix NOT < comparison/LIKE/GLOB
 *                   < | ^ < & < << >> < + - < * / % < ||, all
 *                   left-associative; the IS/IN/BETWEEN/NOT LIKE postfix
 *                   family closes a comparison chain; unary - + ~, CASE,
 *                   CAST, function calls, and (SELECT ...) scalar/EXISTS/
 *                   IN subqueries
 *
 * Unknown leading keywords and malformed syntax yield SyntaxError; name
 * resolution and typing are deferred to the engine (SemanticError there),
 * mirroring the error staging of real systems — which is exactly the
 * signal the adaptive generator learns from.
 */
#ifndef SQLPP_PARSER_PARSER_H
#define SQLPP_PARSER_PARSER_H

#include <cstddef>
#include <memory>
#include <string>

#include "sqlir/ast.h"
#include "util/status.h"

namespace sqlpp {

/**
 * The deepest nesting the parser accepts. Each nested parse (an operand,
 * so each parenthesis, function call, CASE, CAST and prefix operator; a
 * prefix NOT; a SELECT) and each link of an operator or postfix chain
 * takes one level. Past the bound the parse fails with SyntaxError
 * "statement nested too deeply", so every tree built from text is
 * bounded, and so is everything that walks one recursively: printing,
 * clone(), teardown, type checking, folding and evaluation.
 */
inline constexpr size_t kMaxParseNesting = 256;

/** Parse one SQL statement (optional trailing semicolon). */
StatusOr<StmtPtr> parseStatement(const std::string &sql);

/** Parse a standalone expression, mostly for tests and the reducer. */
StatusOr<ExprPtr> parseExpression(const std::string &sql);

} // namespace sqlpp

#endif // SQLPP_PARSER_PARSER_H
