#include "core/reducer.h"

#include "parser/parser.h"
#include "sqlir/printer.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace sqlpp {

namespace {

/** A setup statement's part in transaction control. */
enum class TxnRole
{
    None,
    /** BEGIN [TRANSACTION]. */
    Opens,
    /** COMMIT or ROLLBACK; ROLLBACK TO [SAVEPOINT] is None. */
    Closes,
};

/**
 * Classify by the parsed statement, so every form the parser accepts
 * counts ("BEGIN;", "commit transaction", any whitespace between
 * words). A statement that does not parse never runs, so it is None.
 */
TxnRole
txnRole(const std::string &statement)
{
    auto parsed = parseStatement(statement);
    if (!parsed.isOk())
        return TxnRole::None;
    switch (parsed.value()->kind()) {
      case StmtKind::Begin:
        return TxnRole::Opens;
      case StmtKind::Commit:
      case StmtKind::Rollback:
        return TxnRole::Closes;
      default:
        return TxnRole::None;
    }
}

/**
 * Partition the setup into atomic elimination units: a
 * BEGIN … COMMIT/ROLLBACK block is one unit (removing only its BEGIN
 * or only its COMMIT would change the meaning of every following
 * statement — the rest of the block would silently join the
 * surrounding transaction state); everything else is a unit of one.
 * Returned as (start, length) pairs over the setup whose statements
 * have @p roles.
 */
std::vector<std::pair<size_t, size_t>>
eliminationUnits(const std::vector<TxnRole> &roles)
{
    std::vector<std::pair<size_t, size_t>> units;
    for (size_t i = 0; i < roles.size();) {
        if (roles[i] != TxnRole::Opens) {
            units.emplace_back(i, 1);
            ++i;
            continue;
        }
        size_t end = i + 1;
        while (end < roles.size() && roles[end] != TxnRole::Closes)
            ++end;
        if (end < roles.size())
            ++end; // include the COMMIT/ROLLBACK
        units.emplace_back(i, end - i);
        i = end;
    }
    return units;
}

size_t
countNodes(const Expr &expr)
{
    size_t count = 0;
    forEachExprNode(expr, [&](const Expr &) { ++count; });
    return count;
}

/**
 * Candidate one-step simplifications of an expression: each direct
 * child (hoisted), plus the constants TRUE, FALSE, and NULL.
 */
std::vector<ExprPtr>
simplifications(const Expr &expr)
{
    std::vector<ExprPtr> out;
    for (const Expr *child : expr.children())
        out.push_back(child->clone());
    if (expr.kind() != ExprKind::Literal) {
        out.push_back(
            std::make_unique<LiteralExpr>(Value::boolean(true)));
        out.push_back(
            std::make_unique<LiteralExpr>(Value::boolean(false)));
        out.push_back(std::make_unique<LiteralExpr>(Value::null()));
    }
    return out;
}

/**
 * Try to replace the root of `expr` with each simplification; on
 * success recurse. Returns true if anything was replaced.
 */
bool
shrinkExpr(ExprPtr &expr, BugCase &bug, const ReplayFn &replay,
           size_t &replays, size_t max_replays)
{
    bool changed = false;
    bool progress = true;
    while (progress && replays < max_replays) {
        progress = false;
        for (ExprPtr &candidate : simplifications(*expr)) {
            if (replays >= max_replays)
                break;
            std::string saved = bug.predicateText;
            bug.predicateText = printExpr(*candidate);
            ++replays;
            if (replay(bug)) {
                expr = std::move(candidate);
                changed = true;
                progress = true;
                break;
            }
            bug.predicateText = saved;
        }
    }
    return changed;
}

} // namespace

ReduceStats
reduceBugCase(BugCase &bug, const ReplayFn &replay, size_t max_replays)
{
    SQLPP_SPAN("reducer.reduce.wall_us");
    SQLPP_COUNT("reducer.cases");
    ReduceStats stats;
    stats.setupBefore = bug.setup.size();

    // Phase 1: greedy unit elimination to a fixed point. Units are
    // single statements, except BEGIN … COMMIT/ROLLBACK blocks, which
    // are removed (or kept) whole — see eliminationUnits(). After a
    // successful elimination the scan continues from the current unit
    // index (the next candidate just shifted into it) — restarting
    // from 0 would re-replay prefixes already proven necessary this
    // pass.
    std::vector<TxnRole> roles;
    for (const std::string &statement : bug.setup)
        roles.push_back(txnRole(statement));
    bool progress = true;
    while (progress && stats.replays < max_replays) {
        progress = false;
        for (size_t u = 0; stats.replays < max_replays;) {
            std::vector<std::pair<size_t, size_t>> units =
                eliminationUnits(roles);
            if (u >= units.size())
                break;
            auto [start, length] = units[u];
            auto first = static_cast<long>(start);
            auto last = static_cast<long>(start + length);
            std::vector<std::string> saved = bug.setup;
            bug.setup.erase(bug.setup.begin() + first,
                            bug.setup.begin() + last);
            ++stats.replays;
            if (replay(bug)) {
                roles.erase(roles.begin() + first, roles.begin() + last);
                progress = true;
            } else {
                bug.setup = std::move(saved);
                ++u;
            }
        }
    }
    stats.setupAfter = bug.setup.size();

    // Phase 2: predicate simplification.
    auto parsed = parseExpression(bug.predicateText);
    if (parsed.isOk()) {
        ExprPtr expr = parsed.takeValue();
        stats.predicateNodesBefore = countNodes(*expr);
        shrinkExpr(expr, bug, replay, stats.replays, max_replays);
        bug.predicateText = printExpr(*expr);
        stats.predicateNodesAfter = countNodes(*expr);
    }
    SQLPP_COUNT_N("reducer.replays", stats.replays);
    SQLPP_OBSERVE("reducer.setup.removed",
                  stats.setupBefore - stats.setupAfter);
    if (stats.predicateNodesBefore > 0) {
        // Shrink ratio: surviving predicate nodes as a percentage.
        SQLPP_OBSERVE("reducer.shrink.percent",
                      100 * stats.predicateNodesAfter /
                          stats.predicateNodesBefore);
    }
    SQLPP_TRACE_EVENT(ReduceDone, bug.oracle, stats.replays,
                      stats.setupAfter);
    return stats;
}

} // namespace sqlpp
