/**
 * @file
 * Golden-file test for parser outcomes.
 *
 * Every string that reaches the engine goes through parseStatement, so
 * the exact outcome of a parse — the printed AST, or the exact Status
 * text with its offset — is part of the platform's observable
 * behaviour. tests/golden/parser_outcomes.txt pins it in two parts:
 *
 *  - hand-written corners, one line each: every pair of adjacent
 *    binding levels in both orders, the postfix family, prefix NOT and
 *    NOT EXISTS, CASE, CAST, the INT64 literal forms, and the grammar's
 *    known quirks (`a || b * c` is `((a || b) * c)`, `a IS NULL = b` is
 *    trailing input);
 *  - a seeded sweep, pinned as accepted/rejected counts plus one fnv1a
 *    digest over every outcome line: statements generated for all 17
 *    campaign dialects at fixed seeds, the same statements with every
 *    parenthesis stripped (which leaves precedence to the parser), and
 *    token drop/duplicate/swap mutants of both.
 *
 * To change the parser's behaviour deliberately, regenerate the file:
 *
 *   SQLPP_UPDATE_GOLDEN=1 ./parser_golden_test
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/generator.h"
#include "dialect/connection.h"
#include "dialect/profile.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "sqlir/printer.h"
#include "util/rng.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

std::string
goldenPath()
{
    return std::string(SQLPP_GOLDEN_DIR) + "/parser_outcomes.txt";
}

const char *const kExpressionCorners[] = {
    // Known quirks, kept verbatim.
    "a || b * c",
    "a = b IS NULL",
    "a IS NULL = b",
    "a = NOT b",
    "-9223372036854775808",
    // Adjacent binding levels, both orders.
    "a OR b AND c",
    "a AND b OR c",
    "NOT a AND b",
    "a AND NOT b",
    "NOT a = b",
    "a = b AND NOT c = d",
    "a = b | c",
    "a | b = c",
    "a | b & c",
    "a & b | c",
    "a & b << c",
    "a << b & c",
    "a << b + c",
    "a + b << c",
    "a + b * c",
    "a * b + c",
    "a * b || c",
    "a || b * c || d",
    // Chains within one level.
    "a OR b OR c",
    "a AND b AND c",
    "a - b + c",
    "a / b * c % d",
    "a = b = c",
    "a LIKE b = c",
    "a GLOB b",
    "a <=> b <> c != d",
    "a < b <= c > d >= e",
    "a ^ b | c",
    "a >> b << c",
    "a || b || c",
    // The postfix family.
    "a BETWEEN b AND c AND d",
    "a NOT BETWEEN b + 1 AND c",
    "a BETWEEN b = c AND d",
    "a IN (1, 2)",
    "a NOT IN (1)",
    "(a) IN (1, 2)",
    "(a) IS NULL",
    "(a = b) IS NOT NULL = c",
    "a IS NOT NULL IS TRUE",
    "a IS DISTINCT FROM b + 1",
    "a IS NOT DISTINCT FROM b",
    "a NOT LIKE 'x%'",
    "a IS FALSE",
    "a IS NOT FALSE",
    "a IS NOT TRUE",
    "a + 1 IS NULL",
    "a = 1 IS NULL AND b",
    "a IS NULL IS NULL",
    "NOT a IS NULL",
    "a IS NULL + 1",
    "a IS b",
    "a NOT b",
    "a IN (SELECT 1)",
    "a NOT IN (SELECT c FROM t)",
    "a IN ()",
    // EXISTS and prefix NOT.
    "NOT EXISTS (SELECT 1)",
    "EXISTS (SELECT 1) AND b",
    "NOT NOT EXISTS (SELECT 1)",
    "NOT EXISTS (SELECT 1) = TRUE",
    "NOT NOT a",
    "a = NOT EXISTS (SELECT 1)",
    // CASE and CAST.
    "CASE WHEN a THEN b ELSE c END",
    "CASE a WHEN 1 THEN 2 WHEN 3 THEN 4 END",
    "CASE WHEN a THEN b END + 1",
    "CASE END",
    "CAST(a + 1 AS INT)",
    "CAST(a AS BOGUS)",
    "CAST(a)",
    // INT64 literal forms and unary prefixes.
    "9223372036854775807",
    "9223372036854775808",
    "- 9223372036854775808",
    "-(9223372036854775808)",
    "-(-1)",
    "- -1",
    "- - 9223372036854775807",
    "-a",
    "+a",
    "~a",
    "-a * b",
    "-(a + b)",
    // Functions, columns, primaries and plain errors.
    "ABS(-1)",
    "COUNT(*)",
    "COUNT(DISTINCT a)",
    "f()",
    "t.c",
    "t.",
    "NULL IS NULL",
    "TRUE AND FALSE",
    "'it''s' || 'x'",
    "",
    "a +",
    "(a",
    "a b",
    "1 2",
    "(SELECT 1) + 1",
};

const char *const kStatementCorners[] = {
    "SELECT a, b AS x FROM t0 WHERE a = 1 AND NOT b ORDER BY a DESC "
    "LIMIT 3 OFFSET 1",
    "SELECT * FROM t0 LEFT JOIN t1 ON t0.a = t1.a WHERE t1.a IS NULL",
    "SELECT * FROM (SELECT 1 AS x) AS s WHERE (x) IN (1)",
    "SELECT * FROM (SELECT 1)",
    "SELECT DISTINCT a FROM t GROUP BY a HAVING COUNT(*) > 1",
    "SELECT",
    "SELECT 1 FROM",
    "SELECT 1 LIMIT -1",
    "INSERT INTO t0 VALUES (1, -2), (3, 'x')",
    "INSERT OR IGNORE INTO t0 (a) VALUES (-9223372036854775808)",
    "CREATE INDEX i ON t (a) WHERE a > -3",
    "CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL)",
    "CREATE VIEW v (x) AS SELECT a FROM t",
    "DROP TABLE IF EXISTS t",
    "BEGIN",
    "COMMIT TRANSACTION",
    "SAVEPOINT s1",
    "SAVEPOINT",
    "RELEASE SAVEPOINT s1",
    "RELEASE",
    "ROLLBACK TRANSACTION TO SAVEPOINT s1",
    "ROLLBACK TO",
    "ROLLBACK",
    "UPDATE t SET a = 1",
    "",
    "SELECT 1; SELECT 2",
};

std::string
exprOutcome(const std::string &text)
{
    auto parsed = parseExpression(text);
    return parsed.isOk() ? printExpr(*parsed.value())
                         : parsed.status().toString();
}

std::string
stmtOutcome(const std::string &text, bool *accepted = nullptr)
{
    auto parsed = parseStatement(text);
    if (accepted != nullptr)
        *accepted = parsed.isOk();
    return parsed.isOk() ? printStmt(*parsed.value())
                         : parsed.status().toString();
}

/** Token text as it must be written back (strings re-quoted). */
std::string
spell(const Token &token)
{
    if (token.kind != TokenKind::String)
        return token.text;
    std::string out = "'";
    for (char c : token.text) {
        out += c;
        if (c == '\'')
            out += '\'';
    }
    return out + "'";
}

std::string
join(const std::vector<Token> &tokens)
{
    std::string out;
    for (const Token &token : tokens) {
        if (token.kind == TokenKind::EndOfInput)
            continue;
        if (!out.empty())
            out += ' ';
        out += spell(token);
    }
    return out;
}

/**
 * Generated statements for every campaign dialect: setup statements
 * executed on a live connection (so the schema model grows as in a
 * campaign), then query shapes printed with their predicate as WHERE.
 */
std::vector<std::string>
generatedStatements()
{
    std::vector<std::string> out;
    uint64_t seed = 17;
    for (const DialectProfile *profile : campaignDialects()) {
        FeatureRegistry registry;
        ProfileGate gate(*profile, registry);
        SchemaModel model;
        GeneratorConfig config;
        config.seed = seed++;
        AdaptiveGenerator generator(config, registry, gate, model);
        Connection connection(*profile);
        for (int i = 0; i < 12; ++i) {
            GeneratedStatement stmt = generator.generateSetupStatement();
            out.push_back(stmt.text);
            generator.noteExecution(
                stmt, connection.executeAdapted(stmt.text).isOk());
        }
        for (int i = 0; i < 24; ++i) {
            auto shape = generator.generateQueryShape();
            if (!shape.has_value())
                continue;
            SelectPtr select = shape->base->cloneSelect();
            select->where = shape->predicate->clone();
            out.push_back(printSelect(*select));
        }
    }
    return out;
}

/**
 * The sweep corpus: each generated statement, its parenthesis-stripped
 * form, and one drop, one duplicate and one swap mutant of each.
 */
std::vector<std::string>
sweepInputs()
{
    std::vector<std::string> out;
    Rng rng(0x5eed);
    for (const std::string &text : generatedStatements()) {
        auto tokens = tokenize(text);
        if (!tokens.isOk()) {
            out.push_back(text);
            continue;
        }
        std::vector<Token> plain;
        std::vector<Token> stripped;
        for (const Token &token : tokens.value()) {
            if (token.kind == TokenKind::EndOfInput)
                continue;
            plain.push_back(token);
            if (token.kind != TokenKind::Symbol ||
                (token.text != "(" && token.text != ")"))
                stripped.push_back(token);
        }
        for (const std::vector<Token> *base : {&plain, &stripped}) {
            out.push_back(join(*base));
            if (base->size() < 2)
                continue;
            size_t at = rng.below(base->size());
            std::vector<Token> dropped = *base;
            dropped.erase(dropped.begin() + at);
            out.push_back(join(dropped));
            std::vector<Token> duplicated = *base;
            at = rng.below(base->size());
            duplicated.insert(duplicated.begin() + at, (*base)[at]);
            out.push_back(join(duplicated));
            std::vector<Token> swapped = *base;
            at = rng.below(base->size() - 1);
            std::swap(swapped[at], swapped[at + 1]);
            out.push_back(join(swapped));
        }
    }
    return out;
}

std::string
renderOutcomes()
{
    std::string out;
    for (const char *text : kExpressionCorners)
        out += format("expr %s => %s\n", text, exprOutcome(text).c_str());
    for (const char *text : kStatementCorners)
        out += format("stmt %s => %s\n", text, stmtOutcome(text).c_str());
    size_t accepted = 0;
    size_t rejected = 0;
    uint64_t digest = fnv1a("");
    for (const std::string &text : sweepInputs()) {
        bool ok = false;
        std::string line = text + " => " + stmtOutcome(text, &ok) + "\n";
        digest = fnv1a(line, digest);
        ++(ok ? accepted : rejected);
    }
    out += format("sweep accepted=%zu rejected=%zu fnv1a=%016llx\n",
                  accepted, rejected, (unsigned long long)digest);
    return out;
}

TEST(ParserGoldenTest, OutcomesMatchGoldenFile)
{
    std::string rendered = renderOutcomes();

    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << "; regenerate with SQLPP_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(rendered, golden.str())
        << "parser outcomes diverged from tests/golden/"
           "parser_outcomes.txt; if the change is intentional, rerun "
           "with SQLPP_UPDATE_GOLDEN=1";
}

TEST(ParserGoldenTest, SweepCoversEveryCampaignDialect)
{
    // 17 dialects x 12 setup statements, plus their query shapes.
    EXPECT_GT(generatedStatements().size(), 17u * 12u);
}

} // namespace
} // namespace sqlpp
