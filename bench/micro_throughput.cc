/**
 * @file
 * Micro throughput benchmarks (google-benchmark): the platform's hot
 * paths — parsing, execution, generation, oracle checks. These are not
 * paper reproductions; they document the substrate's performance
 * envelope, which determines how the paper's fixed wall-clock budgets
 * translate into our iteration budgets.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/campaign.h"
#include "core/feedback.h"
#include "core/generator.h"
#include "core/oracle.h"
#include "core/progress.h"
#include "parser/parser.h"
#include "sqlir/printer.h"
#include "util/metrics.h"
#include "util/strutil.h"
#include "util/trace.h"

using namespace sqlpp;

namespace {

void
BM_ParseSelect(benchmark::State &state)
{
    const std::string sql =
        "SELECT t0.c0, COUNT(*) FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 "
        "WHERE (t0.c0 > 5 AND t0.c1 LIKE 'x%') GROUP BY t0.c0 "
        "ORDER BY t0.c0 DESC LIMIT 10";
    for (auto _ : state) {
        auto result = parseStatement(sql);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_ParseSelect);

void
BM_ExecutePointQuery(benchmark::State &state)
{
    Database db;
    (void)db.execute("CREATE TABLE t0 (c0 INT, c1 TEXT)");
    for (int i = 0; i < 64; ++i) {
        (void)db.execute("INSERT INTO t0 VALUES (" + std::to_string(i) +
                         ", 'v" + std::to_string(i) + "')");
    }
    (void)db.execute("CREATE INDEX i0 ON t0(c0)");
    for (auto _ : state) {
        auto result = db.execute("SELECT * FROM t0 WHERE c0 = 31");
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_ExecutePointQuery);

void
BM_ExecuteJoinAggregate(benchmark::State &state)
{
    Database db;
    (void)db.execute("CREATE TABLE t0 (c0 INT)");
    (void)db.execute("CREATE TABLE t1 (c0 INT)");
    for (int i = 0; i < 32; ++i) {
        (void)db.execute("INSERT INTO t0 VALUES (" +
                         std::to_string(i % 8) + ")");
        (void)db.execute("INSERT INTO t1 VALUES (" +
                         std::to_string(i % 4) + ")");
    }
    for (auto _ : state) {
        auto result = db.execute(
            "SELECT t0.c0, COUNT(*) FROM t0 INNER JOIN t1 "
            "ON t0.c0 = t1.c0 GROUP BY t0.c0");
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_ExecuteJoinAggregate);

/**
 * Scan-heavy row pipeline: one pre-parsed SELECT with a selective WHERE
 * and arithmetic projection over a 4096-row table. Prices the per-row
 * evaluator recursion (tree walk plus name resolution) of the filter
 * and projection loops.
 */
void
BM_ScanFilterRow(benchmark::State &state)
{
    Database db;
    (void)db.execute("CREATE TABLE t0 (c0 INT, c1 INT)");
    std::string insert = "INSERT INTO t0 VALUES ";
    for (int i = 0; i < 4096; ++i) {
        if (i > 0)
            insert += ", ";
        insert += concat("(", std::to_string(i), ", ",
                         std::to_string(i % 97), ")");
    }
    (void)db.execute(insert);
    auto parsed = parseStatement(
        "SELECT c0 + c1, c0 * 2 FROM t0 "
        "WHERE c0 % 3 = 0 AND c1 < 50 AND c0 + c1 > 10");
    for (auto _ : state) {
        auto result = db.executeStmt(*parsed.value(), ExecMode::Optimized);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ScanFilterRow);

/** Projection-only variant: no WHERE, every row flows to PROJ. */
void
BM_ProjectRow(benchmark::State &state)
{
    Database db;
    (void)db.execute("CREATE TABLE t0 (c0 INT, c1 INT)");
    std::string insert = "INSERT INTO t0 VALUES ";
    for (int i = 0; i < 4096; ++i) {
        if (i > 0)
            insert += ", ";
        insert += concat("(", std::to_string(i), ", ",
                         std::to_string(4096 - i), ")");
    }
    (void)db.execute(insert);
    auto parsed = parseStatement(
        "SELECT c0 + c1, c0 - c1, c0 * c1 % 1000 FROM t0");
    for (auto _ : state) {
        auto result = db.executeStmt(*parsed.value(), ExecMode::Optimized);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ProjectRow);

/** Fill t0(c0, c1) with `rows` rows of (i, i % modulus). */
void
fillPairs(Database &db, const char *table, int rows, int modulus)
{
    (void)db.execute(std::string("CREATE TABLE ") + table +
                     " (c0 INT, c1 INT)");
    std::string insert = std::string("INSERT INTO ") + table + " VALUES ";
    for (int i = 0; i < rows; ++i) {
        if (i > 0)
            insert += ", ";
        insert += concat("(", std::to_string(i), ", ",
                         std::to_string(i % modulus), ")");
    }
    (void)db.execute(insert);
}

/**
 * Correlated scalar subquery: the inner SELECT runs once per outer row
 * (256 x 64 inner rows). Prices the per-run planning of a subquery —
 * folding, cache-key work, child executor setup — plus the resolution
 * of a correlated reference through the outer frame.
 */
void
BM_CorrelatedSubqueryRow(benchmark::State &state)
{
    Database db;
    fillPairs(db, "t0", 256, 64);
    fillPairs(db, "t1", 64, 8);
    auto parsed = parseStatement(
        "SELECT c0, (SELECT COUNT(*) FROM t1 WHERE t1.c0 = t0.c1 "
        "AND t1.c1 < 6) FROM t0");
    for (auto _ : state) {
        auto result = db.executeStmt(*parsed.value(), ExecMode::Optimized);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CorrelatedSubqueryRow);

/**
 * Hash join of a 4096-row table against a 1024-row table (4096 matched
 * rows), then a projection over the combined rows. Prices combined-row
 * construction and the projection's column reads.
 */
void
BM_HashJoinRow(benchmark::State &state)
{
    Database db;
    fillPairs(db, "t0", 4096, 1024);
    fillPairs(db, "t1", 1024, 16);
    auto parsed = parseStatement(
        "SELECT t0.c0 + t1.c1, t1.c0 FROM t0 JOIN t1 ON t0.c1 = t1.c0");
    for (auto _ : state) {
        auto result = db.executeStmt(*parsed.value(), ExecMode::Optimized);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_HashJoinRow);

/** Fill @p table(c0 INT, c1 TEXT, c2 INT) with (i, 'v<i>', i % modulus). */
void
fillTextRows(Database &db, const char *table, int rows, int modulus)
{
    (void)db.execute(std::string("CREATE TABLE ") + table +
                     " (c0 INT, c1 TEXT, c2 INT)");
    std::string insert = std::string("INSERT INTO ") + table + " VALUES ";
    for (int i = 0; i < rows; ++i) {
        if (i > 0)
            insert += ", ";
        insert += concat("(", std::to_string(i), ", 'v", std::to_string(i),
                         "', ", std::to_string(i % modulus), ")");
    }
    (void)db.execute(insert);
}

/**
 * Three-way join over TEXT and INT columns: a hash join of 1024 rows
 * against 256, then a nested-loop join of the 1024 combined rows against
 * 32 rows under an ON that reads both sides (32,768 pairs), then a WHERE
 * residue over all three bindings. Prices building joined rows, the
 * nested loop's per-pair ON evaluation and the reads of every later
 * stage through the joined rows.
 */
void
BM_JoinThreeWayRow(benchmark::State &state)
{
    Database db;
    fillTextRows(db, "t0", 1024, 256);
    fillTextRows(db, "t1", 256, 32);
    fillTextRows(db, "t2", 32, 8);
    auto parsed = parseStatement(
        "SELECT t0.c1, t1.c1, t2.c1, t0.c0 + t2.c0 FROM t0 "
        "JOIN t1 ON t0.c2 = t1.c0 "
        "JOIN t2 ON t1.c2 = t2.c0 AND t2.c1 <> t0.c1 "
        "WHERE t0.c0 + t2.c2 > 100 OR t1.c1 = t2.c1");
    for (auto _ : state) {
        auto result = db.executeStmt(*parsed.value(), ExecMode::Optimized);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_JoinThreeWayRow);

void
BM_GenerateStatement(benchmark::State &state)
{
    FeatureRegistry registry;
    OpenGate gate;
    SchemaModel model;
    GeneratorConfig config;
    config.seed = 1;
    AdaptiveGenerator generator(config, registry, gate, model);
    for (int i = 0; i < 20; ++i)
        generator.noteExecution(generator.generateSetupStatement(), true);
    for (auto _ : state) {
        GeneratedStatement stmt = generator.generateSelect();
        benchmark::DoNotOptimize(stmt.text);
    }
}
BENCHMARK(BM_GenerateStatement);

void
BM_TlpCheck(benchmark::State &state)
{
    const DialectProfile *profile = findDialect("postgres-like");
    Connection connection(*profile);
    (void)connection.execute("CREATE TABLE t0 (c0 INT, c1 TEXT)");
    for (int i = 0; i < 16; ++i) {
        (void)connection.execute(
            "INSERT INTO t0 VALUES (" + std::to_string(i % 5) + ", 'x')");
    }
    auto base = parseStatement("SELECT * FROM t0");
    auto predicate = parseExpression("t0.c0 > 2");
    TlpOracle oracle;
    for (auto _ : state) {
        OracleResult result = oracle.check(
            connection,
            static_cast<const SelectStmt &>(*base.value()),
            *predicate.value());
        benchmark::DoNotOptimize(result.outcome);
    }
}
BENCHMARK(BM_TlpCheck);

/**
 * Overhead of one counter increment (slot already resolved): a lane
 * lookup through the thread's shard binding plus one relaxed
 * fetch_add.
 */
void
BM_MetricsCounter(benchmark::State &state)
{
    for (auto _ : state) {
        SQLPP_COUNT("bench.metrics.counter");
    }
}
BENCHMARK(BM_MetricsCounter);

/** Overhead of one RAII timing span (two clock reads + observe). */
void
BM_MetricsSpan(benchmark::State &state)
{
    for (auto _ : state) {
        SQLPP_SPAN("bench.metrics.span_us");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MetricsSpan);

/**
 * Overhead of recording one flight-recorder event (fetch_add slot
 * reservation, bounded detail copy, seqlock publish). Target:
 * <20 ns/event.
 */
void
BM_TraceEvent(benchmark::State &state)
{
    for (auto _ : state) {
        SQLPP_TRACE_EVENT(OracleCheck, "bench", 1, 2);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_TraceEvent);

/** Overhead of the per-statement logical-tick bump. */
void
BM_TraceTick(benchmark::State &state)
{
    for (auto _ : state) {
        SQLPP_TRACE_TICK();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_TraceTick);

/**
 * Cost of one progress-board note from the campaign hot loop (a few
 * relaxed atomic adds plus the wall-clock stamp). This is the price
 * every check pays for the live status service.
 */
void
BM_ProgressNote(benchmark::State &state)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.beginCampaign(4, 16, 16 * 1000);
    board.initShard(0, "bench", 7, 1000, 0.0);
    ShardScope scope(0, "bench");
    uint64_t tick = 0;
    for (auto _ : state) {
        progress::noteCheck(true, ++tick);
        benchmark::ClobberMemory();
    }
    board.finishCampaign();
}
BENCHMARK(BM_ProgressNote);

/**
 * Cost of one full /status response: snapshot 16 shard cells (atomic
 * reads + seqlock string loads) and render the sqlpp.status.v1 JSON.
 * This is what each poll of the status endpoint costs the serving
 * thread — the campaign itself pays nothing.
 */
void
BM_StatusSnapshot(benchmark::State &state)
{
    ProgressBoard &board = ProgressBoard::instance();
    constexpr size_t kShards = 16;
    board.beginCampaign(4, kShards, kShards * 1000);
    for (size_t shard = 0; shard < kShards; ++shard) {
        board.initShard(shard, "bench" + std::to_string(shard),
                        7 + shard, 1000, 0.0);
        board.setShardState(shard, ShardState::Running);
        ShardScope scope(shard, "bench" + std::to_string(shard));
        for (int i = 0; i < 50; ++i)
            progress::noteCheck(i % 4 != 0, i + 1);
        progress::noteTotals(40, 2, 1);
        progress::noteBanditLeader("RULE_JOIN_COUNT_2 5/9");
    }
    for (auto _ : state) {
        std::string json = renderStatusJson(board.snapshot());
        benchmark::DoNotOptimize(json.data());
    }
    board.finishCampaign();
}
BENCHMARK(BM_StatusSnapshot);

void
BM_FeedbackRecord(benchmark::State &state)
{
    FeedbackTracker tracker;
    FeatureSet features{1, 5, 9, 12, 40};
    bool success = false;
    for (auto _ : state) {
        tracker.record(features, success = !success, true);
    }
}
BENCHMARK(BM_FeedbackRecord);

} // namespace

int
main(int argc, char **argv)
{
    // Strip --metrics-out before google-benchmark sees the argv (it
    // rejects flags it does not know).
    std::string metrics_out;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int arg = 1; arg < argc; ++arg) {
        if (std::strcmp(argv[arg], "--metrics-out") == 0 &&
            arg + 1 < argc) {
            metrics_out = argv[++arg];
        } else {
            passthrough.push_back(argv[arg]);
        }
    }
    int passthrough_argc = static_cast<int>(passthrough.size());

    MetricsRegistry::instance().reset();

    benchmark::Initialize(&passthrough_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(passthrough_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out, std::ios::binary);
        out << exportMetricsJson();
        std::fprintf(stdout, "metrics: %s\n", metrics_out.c_str());
    }
    return 0;
}
