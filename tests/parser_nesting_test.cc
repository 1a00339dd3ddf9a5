/**
 * @file
 * The parser's nesting bound (kMaxParseNesting).
 *
 * Text reaches the parser from outside the generator — a repro.sql
 * handed to `dialect_probe --replay`, a statement sent through
 * Connection::execute — so no shape of input may crash the process.
 * Without a bound, the deep forms below overflow the stack in the
 * parser or in a recursive walk of the tree it built (printing,
 * teardown); 300 nested scalar subqueries reach only the executor's
 * own subquery limit. With it, each fails with SyntaxError "statement
 * nested too deeply". The largest
 * input the bound accepts still parses, prints, clones and executes,
 * and wide inputs (many siblings, each shallow) are not charged for
 * their width.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/dossier.h"
#include "core/feedback.h"
#include "core/generator.h"
#include "core/oracle.h"
#include "dialect/connection.h"
#include "dialect/profile.h"
#include "parser/parser.h"
#include "sqlir/printer.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

std::string
repeat(const std::string &text, size_t count)
{
    std::string out;
    out.reserve(text.size() * count);
    for (size_t i = 0; i < count; ++i)
        out += text;
    return out;
}

/**
 * One deep form: an expression built at nesting @c n. @c deep crashed
 * the parser before it had a bound; @c largest is the biggest @c n the
 * bound accepts inside a SELECT item (the SELECT and the item each
 * take one level). @c engine_error is the engine's own refusal of the
 * largest form, if it has one.
 */
struct DeepForm
{
    const char *name;
    std::function<std::string(size_t)> build;
    size_t deep;
    size_t largest;
    const char *engine_error = nullptr;
};

const std::vector<DeepForm> &
deepForms()
{
    static const std::vector<DeepForm> forms = {
        {"parentheses",
         [](size_t n) { return repeat("(", n) + "1" + repeat(")", n); },
         4000, kMaxParseNesting - 2},
        {"ABS calls",
         [](size_t n) { return repeat("ABS(", n) + "1" + repeat(")", n); },
         4000, kMaxParseNesting - 2},
        {"NOT chain",
         [](size_t n) { return repeat("NOT ", n) + "TRUE"; }, 40000,
         kMaxParseNesting - 2},
        {"unary minuses",
         [](size_t n) { return repeat("- ", n) + "TRUE"; }, 20000,
         kMaxParseNesting - 2},
        {"+ chain",
         [](size_t n) { return concat("1", repeat(" + 1", n - 1)); }, 200000,
         kMaxParseNesting - 1},
        {"scalar subqueries",
         [](size_t n) {
             return repeat("(SELECT ", n) + "1" + repeat(")", n);
         },
         300, (kMaxParseNesting - 2) / 2, "subquery nesting too deep"},
        {"IS NULL chain",
         [](size_t n) { return concat("1", repeat(" IS NULL", n)); }, 40000,
         kMaxParseNesting - 2},
    };
    return forms;
}

void
expectTooDeep(const Status &status, const std::string &what)
{
    EXPECT_EQ(status.code(), ErrorCode::SyntaxError) << what;
    EXPECT_NE(status.message().find("statement nested too deeply"),
              std::string::npos)
        << what << ": " << status.toString();
}

TEST(ParserNestingTest, DeepFormsFailWithSyntaxError)
{
    for (const DeepForm &form : deepForms()) {
        auto parsed = parseStatement("SELECT " + form.build(form.deep));
        ASSERT_FALSE(parsed.isOk()) << form.name;
        expectTooDeep(parsed.status(), form.name);
    }
}

TEST(ParserNestingTest, StandaloneExpressionsAreBoundedToo)
{
    for (const DeepForm &form : deepForms()) {
        auto parsed = parseExpression(form.build(form.deep));
        ASSERT_FALSE(parsed.isOk()) << form.name;
        expectTooDeep(parsed.status(), form.name);
    }
}

TEST(ParserNestingTest, LargestAcceptedInputParsesPrintsClonesAndExecutes)
{
    const DialectProfile *sqlite = findDialect("sqlite-like");
    ASSERT_NE(sqlite, nullptr);
    for (const DeepForm &form : deepForms()) {
        std::string text = "SELECT " + form.build(form.largest);
        auto parsed = parseStatement(text);
        ASSERT_TRUE(parsed.isOk())
            << form.name << ": " << parsed.status().toString();
        std::string printed = printStmt(*parsed.value());
        StmtPtr copy = parsed.value()->clone();
        EXPECT_EQ(printStmt(*copy), printed) << form.name;
        Connection connection(*sqlite);
        auto result = connection.execute(text);
        if (form.engine_error == nullptr)
            EXPECT_TRUE(result.isOk())
                << form.name << ": " << result.status().toString();
        else
            EXPECT_EQ(result.status().message(), form.engine_error);

        auto over = parseStatement("SELECT " + form.build(form.largest + 1));
        ASSERT_FALSE(over.isOk()) << form.name;
        expectTooDeep(over.status(), form.name);
    }
}

TEST(ParserNestingTest, ChainsBuiltOnParenthesisedChainsAreBounded)
{
    // Each group holds a short chain and is the left operand of the
    // next: no single group is deep, but the tree is 100 x 100 levels.
    std::string group = repeat(" + 1", 100) + ")";
    std::string text = "SELECT " + repeat("(", 100) + "1" + repeat(group, 100);
    auto parsed = parseStatement(text);
    ASSERT_FALSE(parsed.isOk());
    expectTooDeep(parsed.status(), "chained groups");
}

TEST(ParserNestingTest, WideInputIsNotChargedForItsWidth)
{
    std::string list = "1";
    std::string items = "(((1)))";
    for (int i = 2; i <= 3000; ++i) {
        list += ", " + std::to_string(i);
        items += ", (((1 + " + std::to_string(i) + ")))";
    }
    for (const std::string &text :
         {"SELECT 1 IN (" + list + ")", "SELECT " + items,
          "SELECT COALESCE(" + items + ")",
          "SELECT " + repeat("(1 + 1) * ", 200) + "1"}) {
        auto parsed = parseStatement(text);
        EXPECT_TRUE(parsed.isOk())
            << text.substr(0, 60) << ": " << parsed.status().toString();
    }
}

TEST(ParserNestingTest, ConnectionExecuteReturnsTheError)
{
    const DialectProfile *sqlite = findDialect("sqlite-like");
    ASSERT_NE(sqlite, nullptr);
    Connection connection(*sqlite);
    for (const DeepForm &form : deepForms()) {
        auto result = connection.execute("SELECT " + form.build(form.deep));
        ASSERT_FALSE(result.isOk()) << form.name;
        expectTooDeep(result.status(), form.name);
    }
}

TEST(ParserNestingTest, ReplayOfADeepReproReportsTheError)
{
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        "sqlpp_deep_repro.sql";
    for (const DeepForm &form : deepForms()) {
        std::string deep = form.build(form.deep);
        for (bool deep_base : {false, true}) {
            {
                std::ofstream out(path);
                out << "-- dialect: sqlite-like\n"
                    << "-- oracle: TLP\n"
                    << "-- base: SELECT "
                    << (deep_base ? deep : std::string("c0")) << " FROM t0\n"
                    << "-- predicate: "
                    << (deep_base ? std::string("c0 = 1") : deep) << "\n"
                    << "\nCREATE TABLE t0 (c0 INT)\n"
                    << "INSERT INTO t0 VALUES (1)\n";
            }
            std::string details;
            EXPECT_FALSE(replayReproFile(path.string(), &details))
                << form.name;
            EXPECT_NE(details.find("statement nested too deeply"),
                      std::string::npos)
                << form.name << ": " << details;
        }
    }
    std::filesystem::remove(path);
}

/** Deepest parenthesis nesting in @p sql, outside string literals. */
size_t
parenDepth(const std::string &sql)
{
    size_t depth = 0;
    size_t deepest = 0;
    bool in_string = false;
    for (char c : sql) {
        if (c == '\'')
            in_string = !in_string;
        else if (!in_string && c == '(')
            deepest = std::max(deepest, ++depth);
        else if (!in_string && c == ')' && depth > 0)
            --depth;
    }
    return deepest;
}

TEST(ParserNestingTest, CampaignTrafficStaysFarBelowTheBound)
{
    // A fixed-seed campaign slice on every campaign dialect with all
    // five oracles, at the generator's full expression depth from the
    // first statement. The bound must never be what rejects campaign
    // traffic: every generated and oracle-issued statement nests at
    // most 16 parentheses deep.
    size_t statements = 0;
    size_t deepest = 0;
    auto note = [&](const std::string &sql) {
        ++statements;
        deepest = std::max(deepest, parenDepth(sql));
        auto parsed = parseStatement(sql);
        if (!parsed.isOk()) {
            EXPECT_EQ(parsed.status().message().find("nested too deeply"),
                      std::string::npos)
                << sql;
        }
    };
    for (const DialectProfile *profile : campaignDialects()) {
        FeatureRegistry registry;
        FeedbackTracker tracker{FeedbackConfig{}};
        FeedbackGate gate(tracker);
        SchemaModel model;
        GeneratorConfig config;
        config.seed = 1234;
        config.progressiveDepth = false;
        AdaptiveGenerator generator(config, registry, gate, model);
        Connection connection(*profile);
        std::vector<std::unique_ptr<Oracle>> oracles;
        for (const char *name : {"TLP", "NOREC", "PQS", "EET", "ISO"})
            oracles.push_back(makeOracle(name));
        for (int i = 0; i < 10; ++i) {
            GeneratedStatement stmt = generator.generateSetupStatement();
            note(stmt.text);
            bool ok = connection.executeAdapted(stmt.text).isOk();
            tracker.record(stmt.features, ok, /*is_query=*/false);
            generator.noteExecution(stmt, ok);
        }
        for (int i = 0; i < 24; ++i) {
            auto shape = generator.generateQueryShape();
            if (!shape.has_value())
                continue;
            bool all_ran = true;
            for (auto &oracle : oracles) {
                OracleResult result = oracle->check(connection, *shape);
                all_ran &= result.outcome != OracleOutcome::Skipped;
                for (const std::string &query : result.queries)
                    note(query);
            }
            tracker.record(shape->features, all_ran, /*is_query=*/true);
        }
    }
    RecordProperty("statements", std::to_string(statements));
    RecordProperty("deepest", std::to_string(deepest));
    EXPECT_GT(statements, 17u * 100u);
    EXPECT_LE(deepest, 16u);
    EXPECT_GE(deepest, 4u) << "the slice should reach nested expressions";
}

} // namespace
} // namespace sqlpp
