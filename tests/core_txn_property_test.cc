/**
 * @file
 * Transaction property tests: for 500 generated single-session
 * scripts, (1) running the script inside one BEGIN … COMMIT block is
 * observationally identical to auto-commit — statement by statement
 * and in final committed state — and (2) ROLLBACK restores the exact
 * pre-transaction snapshot.
 */
#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/generator.h"
#include "engine/database.h"
#include "parser/parser.h"

namespace sqlpp {
namespace {

constexpr size_t kScripts = 500;
constexpr size_t kSetupStatements = 6;
constexpr size_t kSelects = 3;

std::vector<std::string>
generateScript(uint64_t seed)
{
    FeatureRegistry registry;
    OpenGate gate;
    SchemaModel model;
    GeneratorConfig config;
    config.seed = seed;
    AdaptiveGenerator gen(config, registry, gate, model);
    std::vector<std::string> script;
    for (size_t i = 0; i < kSetupStatements; ++i) {
        GeneratedStatement stmt = gen.generateSetupStatement();
        gen.noteExecution(stmt, true);
        script.push_back(stmt.text);
    }
    for (size_t i = 0; i < kSelects; ++i)
        script.push_back(gen.generateSelect().text);
    return script;
}

/** One statement's observable outcome: error code or rendered rows. */
std::string
outcomeOf(const StatusOr<ResultSet> &result)
{
    if (!result.isOk())
        return "error: " + result.status().toString();
    std::string out = "rows:";
    for (const Row &row : result.value().rows()) {
        out += " (";
        for (size_t i = 0; i < row.size(); ++i) {
            if (i > 0)
                out += ",";
            out += row[i].literal();
        }
        out += ")";
    }
    return out;
}

StatusOr<ResultSet>
run(Database &db, const std::string &sql, ExecMode mode)
{
    auto parsed = parseStatement(sql);
    if (!parsed.isOk())
        return parsed.status();
    return db.executeStmt(*parsed.value(), mode, 0);
}

/** Committed state: every table's rows, in order, plus object names. */
std::string
committedState(const Database &db)
{
    std::string out;
    for (const std::string &name : db.catalog().tableNames()) {
        out += name + ":";
        const StoredTable *table = db.catalog().table(name);
        for (const Row &row : table->rows) {
            out += " (";
            for (size_t i = 0; i < row.size(); ++i) {
                if (i > 0)
                    out += ",";
                out += row[i].literal();
            }
            out += ")";
        }
        out += "\n";
    }
    for (const std::string &name : db.catalog().viewNames())
        out += "view " + name + "\n";
    return out;
}

class TxnPropertyTest : public ::testing::TestWithParam<ExecMode>
{
};

TEST_P(TxnPropertyTest, WrappedScriptMatchesAutoCommit)
{
    ExecMode mode = GetParam();
    for (size_t i = 0; i < kScripts; ++i) {
        std::vector<std::string> script = generateScript(1000 + i);

        Database plain;
        std::vector<std::string> plain_outcomes;
        for (const std::string &sql : script)
            plain_outcomes.push_back(outcomeOf(run(plain, sql, mode)));

        Database wrapped;
        ASSERT_TRUE(run(wrapped, "BEGIN", mode).isOk());
        for (size_t j = 0; j < script.size(); ++j) {
            std::string outcome =
                outcomeOf(run(wrapped, script[j], mode));
            ASSERT_EQ(outcome, plain_outcomes[j])
                << "script " << i << " stmt " << j << ": "
                << script[j];
        }
        ASSERT_TRUE(run(wrapped, "COMMIT", mode).isOk())
            << "script " << i;
        std::string all;
        for (const std::string &sql : script)
            all += sql + "\n";
        ASSERT_EQ(committedState(wrapped), committedState(plain))
            << "script " << i << ":\n"
            << all;
    }
}

TEST_P(TxnPropertyTest, RollbackRestoresPreTxnSnapshot)
{
    ExecMode mode = GetParam();
    for (size_t i = 0; i < kScripts; ++i) {
        std::vector<std::string> script = generateScript(5000 + i);

        Database db;
        for (size_t j = 0; j < kSetupStatements; ++j)
            (void)run(db, script[j], mode);
        std::string before = committedState(db);

        ASSERT_TRUE(run(db, "BEGIN", mode).isOk());
        // Replay the whole script inside the transaction: duplicate
        // DDL errors are fine (and expected), inserts mutate the
        // private version, selects read it.
        for (const std::string &sql : script)
            (void)run(db, sql, mode);
        ASSERT_TRUE(run(db, "ROLLBACK", mode).isOk());
        ASSERT_EQ(committedState(db), before) << "script " << i;
    }
}

// ExecMode::Optimized is the row-at-a-time pipeline. The suite stays
// parameterized so another execution pipeline joins as one more value.
INSTANTIATE_TEST_SUITE_P(Modes, TxnPropertyTest,
                         ::testing::Values(ExecMode::Optimized),
                         [](const auto &) { return "Row"; });

} // namespace
} // namespace sqlpp
