#include "core/rewrite.h"

#include "sqlir/printer.h"

namespace sqlpp {

const EetColumnStats *
EetTableStats::find(const std::string &column) const
{
    for (const EetColumnStats &stats : columns)
        if (stats.name == column)
            return &stats;
    return nullptr;
}

bool
eetStatsApplicable(const SelectStmt &base)
{
    return base.from.size() == 1 && base.joins.empty() &&
           base.from[0].subquery == nullptr;
}

std::string
eetStatsScanText(const SelectStmt &base)
{
    SelectPtr scan = base.cloneSelect();
    scan->distinct = false;
    scan->where = nullptr;
    scan->groupBy.clear();
    scan->having = nullptr;
    scan->orderBy.clear();
    scan->limit = -1;
    scan->offset = -1;
    scan->items.clear();
    SelectItem star;
    star.star = true;
    scan->items.push_back(std::move(star));
    return printSelect(*scan);
}

EetTableStats
computeTableStats(const SelectStmt &base, const ResultSet &scan)
{
    EetTableStats stats;
    if (base.from.empty())
        return stats;
    stats.binding = base.from[0].bindingName();
    stats.rowCount = scan.rowCount();

    // The executor names star-projected columns "binding.column"; stats
    // keep them unqualified under the single binding (as the rewritten
    // tautology conjunct will reference them).
    const std::string prefix = stats.binding + ".";
    for (const std::string &column : scan.columns()) {
        EetColumnStats cs;
        cs.name = column.compare(0, prefix.size(), prefix) == 0
                      ? column.substr(prefix.size())
                      : column;
        stats.columns.push_back(std::move(cs));
    }

    for (RowView row : scan.rows()) {
        for (size_t i = 0; i < row.size() && i < stats.columns.size();
             ++i) {
            EetColumnStats &cs = stats.columns[i];
            const Value &value = row[i];
            if (value.isNull()) {
                cs.hasNull = true;
                continue;
            }
            if (value.kind() != Value::Kind::Int) {
                cs.intOnly = false;
                ++cs.nonNullCount;
                continue;
            }
            int64_t v = value.asInt();
            if (cs.nonNullCount == 0 || !cs.intOnly) {
                cs.minInt = v;
                cs.maxInt = v;
            } else {
                if (v < cs.minInt)
                    cs.minInt = v;
                if (v > cs.maxInt)
                    cs.maxInt = v;
            }
            ++cs.nonNullCount;
        }
    }
    return stats;
}

bool
exprProvablyNullFree(const Expr &expr, const EetTableStats *stats)
{
    switch (expr.kind()) {
      case ExprKind::Literal:
        return !static_cast<const LiteralExpr &>(expr).value.isNull();
      case ExprKind::ColumnRef: {
        if (stats == nullptr)
            return false;
        const auto &ref = static_cast<const ColumnRefExpr &>(expr);
        if (!ref.table.empty() && ref.table != stats->binding)
            return false;
        const EetColumnStats *cs = stats->find(ref.column);
        return cs != nullptr && !cs->hasNull;
      }
      case ExprKind::Unary: {
        const auto &unary = static_cast<const UnaryExpr &>(expr);
        switch (unary.op) {
          // The IS family never returns NULL, whatever the operand.
          case UnaryOp::IsNull:
          case UnaryOp::IsNotNull:
          case UnaryOp::IsTrue:
          case UnaryOp::IsFalse:
          case UnaryOp::IsNotTrue:
          case UnaryOp::IsNotFalse:
            return true;
          case UnaryOp::Not:
          case UnaryOp::Neg:
          case UnaryOp::Plus:
          case UnaryOp::BitNot:
            return exprProvablyNullFree(*unary.operand, stats);
        }
        return false;
      }
      case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        switch (bin.op) {
          // Never NULL regardless of operands.
          case BinaryOp::NullSafeEq:
          case BinaryOp::IsDistinctFrom:
          case BinaryOp::IsNotDistinctFrom:
            return true;
          // NULL-strict: non-NULL operands give a non-NULL result.
          case BinaryOp::And:
          case BinaryOp::Or:
          case BinaryOp::Eq:
          case BinaryOp::NotEq:
          case BinaryOp::NotEqBang:
          case BinaryOp::Less:
          case BinaryOp::LessEq:
          case BinaryOp::Greater:
          case BinaryOp::GreaterEq:
          case BinaryOp::Like:
          case BinaryOp::NotLike:
          case BinaryOp::Glob:
          case BinaryOp::Add:
          case BinaryOp::Sub:
          case BinaryOp::Mul:
          case BinaryOp::BitAnd:
          case BinaryOp::BitOr:
          case BinaryOp::BitXor:
          case BinaryOp::Concat:
            return exprProvablyNullFree(*bin.lhs, stats) &&
                   exprProvablyNullFree(*bin.rhs, stats);
          // x / 0 and x % 0 can yield NULL under divZeroIsNull; shift
          // counts have engine-specific edge behaviour. Not provable.
          case BinaryOp::Div:
          case BinaryOp::Mod:
          case BinaryOp::ShiftLeft:
          case BinaryOp::ShiftRight:
            return false;
        }
        return false;
      }
      case ExprKind::Between: {
        const auto &between = static_cast<const BetweenExpr &>(expr);
        return exprProvablyNullFree(*between.operand, stats) &&
               exprProvablyNullFree(*between.low, stats) &&
               exprProvablyNullFree(*between.high, stats);
      }
      case ExprKind::InList: {
        // `x IN (a, b)` is NULL when x is non-NULL, unmatched, and the
        // list contains a NULL — so every element must be provable too.
        const auto &in = static_cast<const InListExpr &>(expr);
        if (!exprProvablyNullFree(*in.operand, stats))
            return false;
        for (const ExprPtr &item : in.items)
            if (!exprProvablyNullFree(*item, stats))
                return false;
        return true;
      }
      case ExprKind::Cast:
        // CAST propagates NULL and nothing else (coercion of a non-NULL
        // value is total in this engine).
        return exprProvablyNullFree(
            *static_cast<const CastExpr &>(expr).operand, stats);
      // Functions (NULLIF, aggregates over empty sets, ...), CASE
      // without a provable arm analysis, and subqueries stay unproven.
      case ExprKind::Case:
      case ExprKind::Function:
      case ExprKind::Exists:
      case ExprKind::InSubquery:
      case ExprKind::ScalarSubquery:
        return false;
    }
    return false;
}

bool
exprBooleanRooted(const Expr &expr)
{
    switch (expr.kind()) {
      case ExprKind::Literal:
        return static_cast<const LiteralExpr &>(expr).value.kind() ==
               Value::Kind::Bool;
      case ExprKind::Unary:
        switch (static_cast<const UnaryExpr &>(expr).op) {
          case UnaryOp::Not:
          case UnaryOp::IsNull:
          case UnaryOp::IsNotNull:
          case UnaryOp::IsTrue:
          case UnaryOp::IsFalse:
          case UnaryOp::IsNotTrue:
          case UnaryOp::IsNotFalse:
            return true;
          default:
            return false;
        }
      case ExprKind::Binary:
        switch (static_cast<const BinaryExpr &>(expr).op) {
          case BinaryOp::And:
          case BinaryOp::Or:
          case BinaryOp::Eq:
          case BinaryOp::NotEq:
          case BinaryOp::NotEqBang:
          case BinaryOp::Less:
          case BinaryOp::LessEq:
          case BinaryOp::Greater:
          case BinaryOp::GreaterEq:
          case BinaryOp::NullSafeEq:
          case BinaryOp::Like:
          case BinaryOp::NotLike:
          case BinaryOp::Glob:
          case BinaryOp::IsDistinctFrom:
          case BinaryOp::IsNotDistinctFrom:
            return true;
          default:
            return false;
        }
      case ExprKind::Between:
      case ExprKind::InList:
      case ExprKind::Exists:
      case ExprKind::InSubquery:
        return true;
      default:
        return false;
    }
}

namespace {

/** (c BETWEEN min AND max) OR (c IS NULL) — TRUE on every table row. */
ExprPtr
tautologyConjunct(const std::string &binding, const EetColumnStats &cs)
{
    auto column = [&]() {
        return std::make_unique<ColumnRefExpr>(binding, cs.name);
    };
    ExprPtr range = std::make_unique<BetweenExpr>(
        column(),
        std::make_unique<LiteralExpr>(Value::integer(cs.minInt)),
        std::make_unique<LiteralExpr>(Value::integer(cs.maxInt)),
        /*negated=*/false);
    return std::make_unique<BinaryExpr>(
        BinaryOp::Or, std::move(range),
        std::make_unique<UnaryExpr>(UnaryOp::IsNull, column()));
}

} // namespace

std::vector<RewriteCandidate>
enumerateRewrites(const Expr &predicate, const DialectProfile &profile,
                  const EetTableStats *stats)
{
    std::vector<RewriteCandidate> candidates;
    auto add = [&candidates](const char *kind, ExprPtr expr) {
        RewriteCandidate candidate;
        candidate.kind = kind;
        candidate.expr = std::move(expr);
        candidates.push_back(std::move(candidate));
    };

    const bool bool_literals = profile.supportsType(DataType::Bool);

    if (profile.supportsBinaryOp(BinaryOp::And) && bool_literals) {
        add("and_true",
            std::make_unique<BinaryExpr>(
                BinaryOp::And, predicate.clone(),
                std::make_unique<LiteralExpr>(Value::boolean(true))));
    }
    if (profile.supportsBinaryOp(BinaryOp::Or) && bool_literals) {
        add("or_false",
            std::make_unique<BinaryExpr>(
                BinaryOp::Or, predicate.clone(),
                std::make_unique<LiteralExpr>(Value::boolean(false))));
    }
    if (profile.supportsUnaryOp(UnaryOp::Not)) {
        add("not_not",
            std::make_unique<UnaryExpr>(
                UnaryOp::Not, std::make_unique<UnaryExpr>(
                                  UnaryOp::Not, predicate.clone())));
    }

    // The NULL-collapsing wrappers are only equivalences when p can be
    // proven never-NULL (and the proof doubles as a boolean-ness proof
    // requirement, since `5 IS TRUE` is TRUE, not 5).
    if (exprBooleanRooted(predicate) &&
        exprProvablyNullFree(predicate, stats)) {
        if (profile.supportsUnaryOp(UnaryOp::IsTrue))
            add("is_true", std::make_unique<UnaryExpr>(
                               UnaryOp::IsTrue, predicate.clone()));
        if (profile.supportsUnaryOp(UnaryOp::IsNotFalse))
            add("is_not_false",
                std::make_unique<UnaryExpr>(UnaryOp::IsNotFalse,
                                            predicate.clone()));
    }

    // Data-aware constant lane: append a per-column tautology built
    // from the scanned min/max/null facts.
    if (stats != nullptr && profile.supportsBinaryOp(BinaryOp::And) &&
        profile.supportsBinaryOp(BinaryOp::Or) &&
        profile.supportsUnaryOp(UnaryOp::IsNull)) {
        for (const EetColumnStats &cs : stats->columns) {
            if (!cs.intOnly || cs.nonNullCount == 0)
                continue;
            add("taut_range",
                std::make_unique<BinaryExpr>(
                    BinaryOp::And, predicate.clone(),
                    tautologyConjunct(stats->binding, cs)));
        }
    }
    return candidates;
}

std::optional<RewriteCandidate>
chooseRewrite(const Expr &predicate, uint64_t salt,
              const DialectProfile &profile, const EetTableStats *stats)
{
    std::vector<RewriteCandidate> candidates =
        enumerateRewrites(predicate, profile, stats);
    if (candidates.empty())
        return std::nullopt;
    return std::move(candidates[salt % candidates.size()]);
}

} // namespace sqlpp
