/**
 * @file
 * Extending the platform with a custom oracle through the public API.
 *
 * The paper notes SQLancer++ "can be combined with any test oracle that
 * is not specific to a DBMS". This example adds a DQE-style oracle
 * (Differential Query Execution, Song et al. ICSE'23): the same
 * predicate must select the same rows regardless of which syntactic
 * position it occupies — here, WHERE p versus a CASE projection that is
 * counted client-side. It then drives the custom oracle with the
 * adaptive generator directly, without CampaignRunner, to show the
 * lower-level API.
 *
 *   ./custom_oracle [dialect] [checks]
 */
#include <cstdio>
#include <cstdlib>

#include "core/baseline.h"
#include "core/feedback.h"
#include "core/generator.h"
#include "core/oracle.h"
#include "core/prioritizer.h"
#include "sqlir/printer.h"

using namespace sqlpp;

namespace {

/** Predicate-position differential oracle (DQE flavour). */
class PredicatePositionOracle : public Oracle
{
  public:
    const char *name() const override { return "PRED_POSITION"; }

    OracleResult
    check(Connection &connection, const SelectStmt &base,
          const Expr &predicate) override
    {
        OracleResult result;

        // Position 1: WHERE p, rows counted client-side.
        SelectPtr filtered = base.cloneSelect();
        filtered->where = predicate.clone();
        std::string filtered_text = printSelect(*filtered);
        result.queries.push_back(filtered_text);
        auto filtered_rows = connection.execute(filtered_text);
        if (!filtered_rows.isOk()) {
            result.details = filtered_rows.status().toString();
            return result;
        }

        // Position 2: CASE WHEN p THEN 1 ELSE 0 END projected.
        SelectPtr projected = base.cloneSelect();
        projected->items.clear();
        std::vector<CaseExpr::Arm> arms;
        arms.push_back(CaseExpr::Arm{
            predicate.clone(),
            std::make_unique<LiteralExpr>(Value::integer(1))});
        SelectItem item;
        item.expr = std::make_unique<CaseExpr>(
            nullptr, std::move(arms),
            std::make_unique<LiteralExpr>(Value::integer(0)));
        projected->items.push_back(std::move(item));
        std::string projected_text = printSelect(*projected);
        result.queries.push_back(projected_text);
        auto projected_rows = connection.execute(projected_text);
        if (!projected_rows.isOk()) {
            result.details = projected_rows.status().toString();
            return result;
        }

        size_t case_count = 0;
        for (RowView row : projected_rows.value().rows()) {
            if (row[0].kind() == Value::Kind::Int &&
                row[0].asInt() == 1) {
                ++case_count;
            }
        }
        if (filtered_rows.value().rowCount() == case_count) {
            result.outcome = OracleOutcome::Passed;
        } else {
            result.outcome = OracleOutcome::Bug;
            result.details = "WHERE selected " +
                             std::to_string(
                                 filtered_rows.value().rowCount()) +
                             " rows but CASE marked " +
                             std::to_string(case_count);
        }
        return result;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    std::string dialect = argc > 1 ? argv[1] : "monetdb-like";
    size_t checks = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1000;

    const DialectProfile *profile = findDialect(dialect);
    if (profile == nullptr) {
        std::fprintf(stderr, "unknown dialect '%s'\n", dialect.c_str());
        return 1;
    }

    // Wire the platform pieces by hand: registry, feedback, generator.
    FeatureRegistry registry;
    FeedbackTracker tracker;
    FeedbackGate gate(tracker);
    SchemaModel model;
    GeneratorConfig generator_config;
    generator_config.seed = 2024;
    AdaptiveGenerator generator(generator_config, registry, gate, model);
    Connection connection(*profile);
    PredicatePositionOracle custom;
    // Drive through the Oracle interface, like CampaignRunner does;
    // the base class adds the QueryShape convenience overload.
    Oracle &oracle = custom;
    BugPrioritizer prioritizer;

    for (int i = 0; i < 80; ++i) {
        GeneratedStatement stmt = generator.generateSetupStatement();
        bool ok = connection.executeAdapted(stmt.text).isOk();
        tracker.record(stmt.features, ok, false);
        generator.noteExecution(stmt, ok);
    }

    size_t bugs = 0, reported = 0, valid = 0;
    for (size_t i = 0; i < checks; ++i) {
        auto shape = generator.generateQueryShape();
        if (!shape.has_value())
            continue;
        OracleResult result = oracle.check(connection, *shape);
        if (result.outcome == OracleOutcome::Inapplicable)
            continue; // outside the oracle's domain; nothing learned
        tracker.record(shape->features,
                       result.outcome != OracleOutcome::Skipped, true);
        if (result.outcome != OracleOutcome::Skipped)
            ++valid;
        if (result.outcome != OracleOutcome::Bug)
            continue;
        ++bugs;
        if (prioritizer.considerNew(shape->features)) {
            ++reported;
            std::printf("bug #%zu: %s\n", reported,
                        result.details.c_str());
            std::printf("  base     : %s\n",
                        printSelect(*shape->base).c_str());
            std::printf("  predicate: %s\n\n",
                        printExpr(*shape->predicate).c_str());
        }
    }
    std::printf("== custom oracle '%s' on %s ==\n", oracle.name(),
                dialect.c_str());
    std::printf("checks: %zu, valid: %zu, bug-inducing: %zu, "
                "prioritized: %zu\n",
                checks, valid, bugs, reported);
    return 0;
}
