#include "core/oracle.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "core/pivot.h"
#include "core/rewrite.h"
#include "core/txn_gen.h"
#include "engine/eval.h"
#include "parser/statement_cache.h"
#include "sqlir/printer.h"
#include "util/metrics.h"
#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {

namespace {

/** TLP check body; the member wraps it with span/outcome metrics. */
OracleResult
runTlp(Connection &connection, const SelectStmt &base,
       const Expr &predicate)
{
    OracleResult result;

    std::string q_text = printSelect(base);
    result.queries.push_back(q_text);
    auto q = connection.execute(q_text);
    if (!q.isOk()) {
        result.details = "base query failed: " + q.status().toString();
        return result;
    }

    // Partitions: p / NOT p / p IS NULL, each printed from one clone of
    // the base with its WHERE replaced.
    SelectPtr partition = base.cloneSelect();
    ResultSet parts[3];
    for (size_t i = 0; i < 3; ++i) {
        ExprPtr where = predicate.clone();
        if (i > 0)
            where = std::make_unique<UnaryExpr>(
                i == 1 ? UnaryOp::Not : UnaryOp::IsNull, std::move(where));
        partition->where = std::move(where);
        std::string text = printSelect(*partition);
        result.queries.push_back(text);
        auto rows = connection.execute(text);
        if (!rows.isOk()) {
            result.details =
                "partition failed: " + rows.status().toString();
            return result;
        }
        parts[i] = rows.takeValue();
    }

    // The base and the partitions' multiset union compare in place, as
    // two sorted row lists. DISTINCT bases compare as sets: partitions
    // are recombined and deduplicated client-side (as SQLancer's TLP
    // does), so a faulty engine-side DISTINCT cannot hide.
    std::vector<SortedRow> lhs = sortedRows({&q.value()});
    std::vector<SortedRow> rhs =
        sortedRows({&parts[0], &parts[1], &parts[2]});
    if (base.distinct) {
        // Equal rows sit next to each other in a sorted list.
        auto dedupe = [](std::vector<SortedRow> &rows) {
            rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        };
        dedupe(lhs);
        dedupe(rhs);
    }
    if (sameRows(lhs, rhs)) {
        result.outcome = OracleOutcome::Passed;
        return result;
    }
    result.outcome = OracleOutcome::Bug;
    result.details =
        base.distinct
            ? format("TLP(DISTINCT) mismatch: base has %zu distinct "
                     "rows, partitions %zu",
                     lhs.size(), rhs.size())
            : format("TLP mismatch: base returned %zu rows, "
                     "partitions %zu rows",
                     lhs.size(), rhs.size());
    return result;
}

/** NoREC check body; the member wraps it with span/outcome metrics. */
OracleResult
runNorec(Connection &connection, const SelectStmt &base,
         const Expr &predicate)
{
    OracleResult result;

    // Optimized side: COUNT(*) under WHERE p.
    SelectPtr counting = base.cloneSelect();
    counting->items.clear();
    SelectItem count_item;
    count_item.expr = std::make_unique<FunctionExpr>(
        "COUNT", std::vector<ExprPtr>{}, /*star=*/true);
    counting->items.push_back(std::move(count_item));
    counting->where = predicate.clone();
    counting->orderBy.clear();
    counting->distinct = false; // NoREC rewrites drop DISTINCT bases
    std::string count_text = printSelect(*counting);
    result.queries.push_back(count_text);
    auto counted = connection.execute(count_text);
    if (!counted.isOk()) {
        result.details =
            "counting query failed: " + counted.status().toString();
        return result;
    }
    if (counted.value().rowCount() != 1 ||
        counted.value().columnCount() != 1 ||
        counted.value().rows()[0][0].kind() != Value::Kind::Int) {
        result.details = "counting query returned a malformed result";
        return result;
    }
    int64_t optimized_count = counted.value().rows()[0][0].asInt();

    // Reference side: project the predicate; the planner never touches
    // projections, so this reaches the non-optimizing evaluation path.
    // Prefer (p) IS TRUE; fall back to CASE on dialects without IS TRUE.
    auto project = [&](ExprPtr flag) {
        SelectPtr projected = base.cloneSelect();
        projected->items.clear();
        SelectItem item;
        item.expr = std::move(flag);
        item.alias = "flag";
        projected->items.push_back(std::move(item));
        projected->orderBy.clear();
        projected->distinct = false;
        return projected;
    };

    // Every issued query is recorded *before* execution, so even a
    // skipped check's repro carries the full statement list (including
    // a failed IS TRUE probe that triggered the CASE fallback).
    SelectPtr reference = project(std::make_unique<UnaryExpr>(
        UnaryOp::IsTrue, predicate.clone()));
    std::string reference_text = printSelect(*reference);
    result.queries.push_back(reference_text);
    auto rows = connection.execute(reference_text);
    if (!rows.isOk()) {
        // Dialect may lack IS TRUE: rewrite with a searched CASE.
        std::vector<CaseExpr::Arm> arms;
        arms.push_back(CaseExpr::Arm{
            predicate.clone(),
            std::make_unique<LiteralExpr>(Value::integer(1))});
        SelectPtr fallback = project(std::make_unique<CaseExpr>(
            nullptr, std::move(arms),
            std::make_unique<LiteralExpr>(Value::integer(0))));
        reference_text = printSelect(*fallback);
        result.queries.push_back(reference_text);
        rows = connection.execute(reference_text);
        if (!rows.isOk()) {
            result.details =
                "reference query failed: " + rows.status().toString();
            return result;
        }
    }

    int64_t reference_count = 0;
    for (RowView row : rows.value().rows()) {
        const Value &cell = row[0];
        if (cell.kind() == Value::Kind::Bool && cell.asBool())
            ++reference_count;
        else if (cell.kind() == Value::Kind::Int && cell.asInt() == 1)
            ++reference_count;
    }

    if (optimized_count == reference_count) {
        result.outcome = OracleOutcome::Passed;
        return result;
    }
    result.outcome = OracleOutcome::Bug;
    result.details = format(
        "NoREC mismatch: optimized COUNT(*) = %lld, reference = %lld",
        static_cast<long long>(optimized_count),
        static_cast<long long>(reference_count));
    return result;
}

/** PQS check body; the member wraps it with span/outcome metrics. */
OracleResult
runPqs(Connection &connection, const SelectStmt &base,
       const Expr &predicate)
{
    OracleResult result;

    if (!pqsApplicable(base, predicate)) {
        result.outcome = OracleOutcome::Inapplicable;
        result.details = "PQS needs a single-source SELECT * base and "
                         "a subquery-free, aggregate-free predicate";
        return result;
    }

    std::string scan_text = pivotScanText(base);
    result.queries.push_back(scan_text);
    auto scan = connection.execute(scan_text);
    if (!scan.isOk()) {
        result.details =
            "pivot scan failed: " + scan.status().toString();
        return result;
    }
    if (scan.value().rowCount() == 0) {
        result.outcome = OracleOutcome::Inapplicable;
        result.details = "pivot source is empty";
        return result;
    }

    // Deterministic pivot: a pure function of the query shape, so the
    // same check replays identically across workers and resumes.
    std::string predicate_text = printExpr(predicate);
    uint64_t salt = fnv1a(predicate_text, fnv1a(scan_text));
    auto pivot = selectPivot(base, scan.value(), salt);
    if (!pivot.has_value()) {
        result.outcome = OracleOutcome::Inapplicable;
        result.details = "pivot selection failed";
        return result;
    }

    const DialectProfile &profile = connection.profile();
    if (evalOnPivot(predicate, *pivot, profile.behavior) ==
        PivotTruth::Error) {
        result.details =
            "client-side predicate evaluation failed on the pivot";
        return result;
    }
    ExprPtr rectified = rectifyPredicate(predicate, *pivot, profile);
    if (rectified == nullptr) {
        result.outcome = OracleOutcome::Inapplicable;
        result.details =
            "dialect lacks the operators PQS rectification needs";
        return result;
    }
    // Rectification contract (the core_pqs_test property): the clean
    // evaluator must find p' TRUE on the pivot before we ask the
    // server anything.
    if (evalOnPivot(*rectified, *pivot, profile.behavior) !=
        PivotTruth::True) {
        result.details = "rectified predicate is not TRUE on the pivot";
        return result;
    }

    SelectPtr containment = base.cloneSelect();
    containment->where = std::move(rectified);
    std::string containment_text = printSelect(*containment);
    result.queries.push_back(containment_text);
    auto rows = connection.execute(containment_text);
    if (!rows.isOk()) {
        result.details =
            "containment query failed: " + rows.status().toString();
        return result;
    }

    for (RowView row : rows.value().rows()) {
        if (compareRows(row, pivot->row) == 0) {
            result.outcome = OracleOutcome::Passed;
            return result;
        }
    }

    std::vector<std::string> cells;
    cells.reserve(pivot->row.size());
    for (const Value &value : pivot->row)
        cells.push_back(value.literal());
    result.outcome = OracleOutcome::Bug;
    result.details = format(
        "PQS containment violation: pivot row %zu/%zu (%s) satisfies "
        "the rectified predicate client-side but is missing from the "
        "%zu returned rows",
        pivot->rowIndex + 1, pivot->tableRows,
        join(cells, ", ").c_str(), rows.value().rowCount());
    return result;
}

/** EET check body; the member wraps it with span/outcome metrics. */
OracleResult
runEet(Connection &connection, const SelectStmt &base,
       const Expr &predicate)
{
    OracleResult result;
    const DialectProfile &profile = connection.profile();

    // Deterministic rewrite choice: a pure function of the query shape,
    // so the same check replays identically across workers and resumes.
    std::string base_text = printSelect(base);
    std::string predicate_text = printExpr(predicate);
    uint64_t salt = fnv1a(predicate_text, fnv1a(base_text));

    // Data-aware lane: single-source bases get a statistics scan that
    // seeds the tautology-conjunct rewrites. Other shapes degrade to
    // the identity wrappers, not to Inapplicable.
    std::optional<EetTableStats> stats;
    if (eetStatsApplicable(base)) {
        std::string scan_text = eetStatsScanText(base);
        result.queries.push_back(scan_text);
        auto scan = connection.execute(scan_text);
        if (!scan.isOk()) {
            result.details =
                "stats scan failed: " + scan.status().toString();
            return result;
        }
        stats = computeTableStats(base, scan.value());
    }

    auto rewrite = chooseRewrite(predicate, salt, profile,
                                 stats ? &*stats : nullptr);
    if (!rewrite.has_value()) {
        result.outcome = OracleOutcome::Inapplicable;
        result.details = "dialect supports none of EET's 3VL-safe "
                         "wrapper operators for this predicate";
        return result;
    }

    // WHERE lane: truth-preservation is all the rewrite guarantees in
    // general, and all that WHERE membership can observe.
    SelectPtr query = base.cloneSelect();
    query->where = predicate.clone();
    std::string original_text = printSelect(*query);
    result.queries.push_back(original_text);
    auto lhs = connection.execute(original_text);
    if (!lhs.isOk()) {
        result.details =
            "original query failed: " + lhs.status().toString();
        return result;
    }
    query->where = rewrite->expr->clone();
    std::string rewritten_text = printSelect(*query);
    result.queries.push_back(rewritten_text);
    auto rhs = connection.execute(rewritten_text);
    if (!rhs.isOk()) {
        result.details =
            "rewritten query failed: " + rhs.status().toString();
        return result;
    }
    if (!lhs.value().sameRowMultiset(rhs.value())) {
        result.outcome = OracleOutcome::Bug;
        result.details = format(
            "EET WHERE mismatch (%s): original returned %zu rows, "
            "rewrite %zu rows",
            rewrite->kind, lhs.value().rowCount(),
            rhs.value().rowCount());
        return result;
    }

    // Projection lane: evaluate p and p' as *values*, where NULL and
    // FALSE stop being interchangeable. Only sound when the rewrite is
    // value-preserving, i.e. for boolean-rooted predicates; grouped
    // bases are out (a bare predicate is not a grouped expression).
    if (exprBooleanRooted(predicate) && base.groupBy.empty() &&
        base.having == nullptr && !exprContainsAggregate(predicate)) {
        // The same clone, back on the base's WHERE, projects p and
        // then p' as its only item.
        query->where = base.where ? base.where->clone() : nullptr;
        query->items.clear();
        query->items.emplace_back();
        query->items[0].alias = "eet";
        query->distinct = false;
        query->orderBy.clear();
        query->limit = -1;
        query->offset = -1;
        query->items[0].expr = predicate.clone();
        std::string p_text = printSelect(*query);
        result.queries.push_back(p_text);
        auto p_rows = connection.execute(p_text);
        if (!p_rows.isOk()) {
            result.details = "original projection failed: " +
                             p_rows.status().toString();
            return result;
        }
        query->items[0].expr = rewrite->expr->clone();
        std::string q_text = printSelect(*query);
        result.queries.push_back(q_text);
        auto q_rows = connection.execute(q_text);
        if (!q_rows.isOk()) {
            result.details = "rewritten projection failed: " +
                             q_rows.status().toString();
            return result;
        }
        if (!p_rows.value().sameRowMultiset(q_rows.value())) {
            result.outcome = OracleOutcome::Bug;
            result.details = format(
                "EET projection mismatch (%s): p and its rewrite "
                "disagree as projected values over %zu rows",
                rewrite->kind, p_rows.value().rowCount());
            return result;
        }
    }

    result.outcome = OracleOutcome::Passed;
    return result;
}

/** Interleaved schedules checked per ISO invocation (sub-salted). */
constexpr size_t kIsoSchedulesPerCheck = 4;

/** Per-session schedule facts the witness construction needs. */
struct IsoSessionMeta
{
    size_t beginTick = 0;
    bool committed = false;
    size_t commitTick = 0;
};

std::vector<IsoSessionMeta>
analyzeSchedule(const TxnSchedule &schedule)
{
    std::vector<IsoSessionMeta> meta(schedule.sessions);
    for (size_t tick = 0; tick < schedule.steps.size(); ++tick) {
        const TxnStep &step = schedule.steps[tick];
        if (step.sql == "BEGIN") {
            meta[step.session].beginTick = tick;
        } else if (step.sql == "COMMIT") {
            meta[step.session].committed = true;
            meta[step.session].commitTick = tick;
        }
    }
    return meta;
}

/** Ordered row rendering, the evidence of an ISO mismatch. */
std::string
renderRowsOrdered(const ResultSet &rows)
{
    std::string out;
    for (RowView row : rows.rows()) {
        if (!out.empty())
            out += " ";
        out += "(";
        for (size_t i = 0; i < row.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += row[i].literal();
        }
        out += ")";
    }
    return out;
}

/**
 * Sessions of `schedule` that committed before `beforeTick`, in commit
 * order — the serial prefix a snapshot taken at that tick must show.
 */
std::vector<size_t>
committedBefore(const std::vector<IsoSessionMeta> &meta,
                size_t beforeTick)
{
    std::vector<size_t> order;
    for (size_t session = 0; session < meta.size(); ++session) {
        if (meta[session].committed &&
            meta[session].commitTick < beforeTick)
            order.push_back(session);
    }
    std::sort(order.begin(), order.end(),
              [&meta](size_t a, size_t b) {
                  return meta[a].commitTick < meta[b].commitTick;
              });
    return order;
}

/**
 * Database::execute through a schedule's cache: the same parse, then
 * the same executeStmt, without parsing a text twice.
 */
StatusOr<ResultSet>
executeCached(Database &db, StatementCache &cache, const std::string &sql,
              SessionId session = Database::kDefaultSession)
{
    const StatusOr<StmtPtr> &parsed = cache.parse(sql);
    if (!parsed.isOk())
        return parsed.status();
    return db.executeStmt(*parsed.value(), ExecMode::Optimized, session);
}

/**
 * The serial-order witness for one read (or, with readTick ==
 * schedule.steps.size(), for the final committed state): a fault-free
 * engine replays setup, then every session committed before the
 * relevant tick serially in commit order, then — for a read — the
 * reading session's own statement prefix, and finally the probe query.
 */
StatusOr<ResultSet>
isoWitness(const EngineBehavior &behavior, const TxnSchedule &schedule,
           const std::vector<IsoSessionMeta> &meta, size_t readTick,
           StatementCache &cache)
{
    EngineConfig config;
    config.behavior = behavior;
    Database witness(config);
    for (const std::string &statement : schedule.setup) {
        auto r = executeCached(witness, cache, statement);
        if (!r.isOk())
            return r.status();
    }
    bool final_state = readTick >= schedule.steps.size();
    size_t reader =
        final_state ? 0 : schedule.steps[readTick].session;
    size_t horizon = final_state ? schedule.steps.size()
                                 : meta[reader].beginTick;
    for (size_t session : committedBefore(meta, horizon)) {
        if (!final_state && session == reader)
            continue;
        for (const TxnStep &step : schedule.steps) {
            if (step.session != session)
                continue;
            auto r = executeCached(witness, cache, step.sql);
            if (!r.isOk())
                return r.status();
        }
    }
    if (final_state)
        return executeCached(witness, cache, schedule.finalQuery);
    for (size_t tick = meta[reader].beginTick; tick < readTick; ++tick) {
        const TxnStep &step = schedule.steps[tick];
        if (step.session != reader)
            continue;
        auto r = executeCached(witness, cache, step.sql);
        if (!r.isOk())
            return r.status();
    }
    return executeCached(witness, cache,
                         schedule.steps[readTick].sql);
}

/** Run one schedule: observed (faulty) engine vs serial witnesses. */
OracleResult
runIsoSchedule(const DialectProfile &profile,
               const TxnSchedule &schedule)
{
    OracleResult result;
    result.queries = renderTxnSchedule(schedule);
    std::vector<IsoSessionMeta> meta = analyzeSchedule(schedule);
    // The observed engine and every witness replay the same texts:
    // parse each once for this schedule.
    StatementCache cache;

    EngineConfig observed_config;
    observed_config.behavior = profile.behavior;
    observed_config.faults = profile.faults;
    Database observed(observed_config);
    for (const std::string &statement : schedule.setup) {
        auto r = executeCached(observed, cache, statement);
        if (!r.isOk()) {
            result.details =
                "setup failed: " + r.status().toString();
            return result;
        }
    }
    std::vector<SessionId> sessions;
    for (size_t s = 0; s < schedule.sessions; ++s)
        sessions.push_back(observed.openSession());

    for (size_t tick = 0; tick < schedule.steps.size(); ++tick) {
        const TxnStep &step = schedule.steps[tick];
        auto r = executeCached(observed, cache, step.sql,
                               sessions[step.session]);
        if (!r.isOk()) {
            result.details = format("t%02zu failed: ", tick) +
                             r.status().toString();
            return result;
        }
        if (!step.isRead)
            continue;
        auto expected = isoWitness(profile.behavior, schedule, meta,
                                   tick, cache);
        if (!expected.isOk()) {
            result.details = "witness failed: " +
                             expected.status().toString();
            return result;
        }
        if (r.value().rows() != expected.value().rows()) {
            result.outcome = OracleOutcome::Bug;
            result.details = format(
                "isolation fault: t%02zu s%zu `%s` returned [%s] but "
                "the serial-order witness returns [%s]",
                tick, step.session, step.sql.c_str(),
                renderRowsOrdered(r.value()).c_str(),
                renderRowsOrdered(expected.value()).c_str());
            return result;
        }
    }

    // Final committed state vs serial replay of committed sessions.
    auto final_observed = executeCached(observed, cache,
                                        schedule.finalQuery);
    if (!final_observed.isOk()) {
        result.details = "final read failed: " +
                         final_observed.status().toString();
        return result;
    }
    auto final_expected = isoWitness(profile.behavior, schedule, meta,
                                     schedule.steps.size(), cache);
    if (!final_expected.isOk()) {
        result.details = "final witness failed: " +
                         final_expected.status().toString();
        return result;
    }
    if (final_observed.value().rows() != final_expected.value().rows()) {
        result.outcome = OracleOutcome::Bug;
        result.details = format(
            "isolation fault: final committed state `%s` returned "
            "[%s] but serial replay of the committed sessions "
            "returns [%s]",
            schedule.finalQuery.c_str(),
            renderRowsOrdered(final_observed.value()).c_str(),
            renderRowsOrdered(final_expected.value()).c_str());
        return result;
    }
    result.outcome = OracleOutcome::Passed;
    return result;
}

/** ISO check body; the member wraps it with span/outcome metrics. */
OracleResult
runIso(Connection &connection, const SelectStmt &base,
       const Expr &predicate)
{
    OracleResult result;
    const DialectProfile &profile = connection.profile();
    if (!profile.clauses.transactions ||
        profile.requiresRefreshAfterInsert) {
        result.outcome = OracleOutcome::Inapplicable;
        result.details =
            "dialect does not support interleaved transactions";
        return result;
    }
    // The salt idiom: the schedules are a pure function of the handed
    // query shape, so every replay path (reducer probes, dossier
    // replay, crash-resume) regenerates the identical interleavings.
    std::string base_text = printSelect(base);
    std::string predicate_text = printExpr(predicate);
    uint64_t salt = fnv1a(predicate_text, fnv1a(base_text));
    for (size_t round = 0; round < kIsoSchedulesPerCheck; ++round) {
        TxnSchedule schedule = generateTxnSchedule(
            salt + round * 0x9e3779b97f4a7c15ULL);
        OracleResult one = runIsoSchedule(profile, schedule);
        if (one.outcome != OracleOutcome::Passed)
            return one;
        if (round == 0)
            result.queries = std::move(one.queries);
    }
    result.outcome = OracleOutcome::Passed;
    return result;
}

using OracleRun = OracleResult (*)(Connection &, const SelectStmt &,
                                   const Expr &);

/**
 * One oracle's instrumentation, keyed by its lowercase name: a
 * wall-clock span, an OracleCheck trace event and an outcome counter
 * per check. The objects below live at namespace scope, so like the
 * SQLPP_* sites they register their metrics before main, whether or
 * not the oracle runs. TLP and NoREC always apply, so they never
 * register an `.inapplicable` counter (the metrics export lists every
 * registered metric).
 */
class OracleMetrics
{
  public:
    OracleMetrics(const char *name, bool may_be_inapplicable)
        : name_(name), wall_(id("wall_us", MetricKind::Timer)),
          outcomes_{id("pass"), id("bug"), id("skip"),
                    may_be_inapplicable ? id("inapplicable") : kNone}
    {
    }

    OracleResult
    check(OracleRun run, Connection &connection, const SelectStmt &base,
          const Expr &predicate) const
    {
        MetricsSpan span(wall_);
        OracleResult result = run(connection, base, predicate);
        SQLPP_TRACE_EVENT(OracleCheck, name_,
                          static_cast<uint64_t>(result.outcome), 0);
        size_t counter = outcomes_[static_cast<size_t>(result.outcome)];
        if (counter != kNone)
            MetricsRegistry::instance().add(counter);
        return result;
    }

  private:
    static constexpr size_t kNone = SIZE_MAX;

    size_t
    id(const char *suffix, MetricKind kind = MetricKind::Counter) const
    {
        return MetricsRegistry::instance().metricId(
            format("oracle.%s.%s", name_, suffix), kind);
    }

    const char *name_;
    size_t wall_;
    /** Counter per OracleOutcome, in enum order. */
    size_t outcomes_[4];
};

const OracleMetrics kTlpMetrics("tlp", /*may_be_inapplicable=*/false);
const OracleMetrics kNorecMetrics("norec", /*may_be_inapplicable=*/false);
const OracleMetrics kPqsMetrics("pqs", /*may_be_inapplicable=*/true);
const OracleMetrics kEetMetrics("eet", /*may_be_inapplicable=*/true);
const OracleMetrics kIsoMetrics("iso", /*may_be_inapplicable=*/true);

} // namespace

OracleResult
TlpOracle::check(Connection &connection, const SelectStmt &base,
                 const Expr &predicate)
{
    return kTlpMetrics.check(runTlp, connection, base, predicate);
}

OracleResult
NorecOracle::check(Connection &connection, const SelectStmt &base,
                   const Expr &predicate)
{
    return kNorecMetrics.check(runNorec, connection, base, predicate);
}

OracleResult
PqsOracle::check(Connection &connection, const SelectStmt &base,
                 const Expr &predicate)
{
    return kPqsMetrics.check(runPqs, connection, base, predicate);
}

OracleResult
EetOracle::check(Connection &connection, const SelectStmt &base,
                 const Expr &predicate)
{
    return kEetMetrics.check(runEet, connection, base, predicate);
}

OracleResult
IsolationOracle::check(Connection &connection, const SelectStmt &base,
                       const Expr &predicate)
{
    return kIsoMetrics.check(runIso, connection, base, predicate);
}

std::unique_ptr<Oracle>
makeOracle(const std::string &name)
{
    std::string upper = toUpper(name);
    if (upper == "TLP")
        return std::make_unique<TlpOracle>();
    if (upper == "NOREC")
        return std::make_unique<NorecOracle>();
    if (upper == "PQS")
        return std::make_unique<PqsOracle>();
    if (upper == "EET")
        return std::make_unique<EetOracle>();
    if (upper == "ISO")
        return std::make_unique<IsolationOracle>();
    return nullptr;
}

} // namespace sqlpp
