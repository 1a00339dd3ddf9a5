#include "core/pivot.h"

#include "sqlir/printer.h"

namespace sqlpp {

bool
pqsApplicable(const SelectStmt &base, const Expr &predicate)
{
    if (base.from.size() != 1 || !base.joins.empty())
        return false;
    if (base.from[0].subquery != nullptr)
        return false;
    if (base.items.size() != 1 || !base.items[0].star)
        return false;
    if (!base.groupBy.empty() || base.having != nullptr)
        return false;
    if (base.limit >= 0 || base.offset >= 0)
        return false;
    if (exprContainsAggregate(predicate))
        return false;
    bool plain = true;
    forEachExprNode(predicate, [&plain](const Expr &node) {
        switch (node.kind()) {
          case ExprKind::Exists:
          case ExprKind::InSubquery:
          case ExprKind::ScalarSubquery:
            plain = false;
            break;
          default:
            break;
        }
    });
    return plain;
}

std::string
pivotScanText(const SelectStmt &base)
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

std::optional<Pivot>
selectPivot(const SelectStmt &base, const ResultSet &scan, uint64_t salt)
{
    if (scan.rowCount() == 0 || base.from.empty())
        return std::nullopt;

    Pivot pivot;
    pivot.binding = base.from[0].bindingName();
    // The executor names star-projected columns "binding.column"; the
    // pivot scope wants them unqualified under its single binding.
    const std::string prefix = pivot.binding + ".";
    for (const std::string &column : scan.columns()) {
        if (column.compare(0, prefix.size(), prefix) == 0)
            pivot.columns.push_back(column.substr(prefix.size()));
        else
            pivot.columns.push_back(column);
    }
    pivot.tableRows = scan.rowCount();
    pivot.rowIndex = static_cast<size_t>(salt % scan.rowCount());
    RowView row = scan.rows()[pivot.rowIndex];
    pivot.row.assign(row.begin(), row.end());
    return pivot;
}

PivotTruth
evalOnPivot(const Expr &predicate, const Pivot &pivot,
            const EngineBehavior &behavior)
{
    Scope scope;
    scope.addBinding(pivot.binding, pivot.columns);

    RowView part = pivot.row;
    EvalContext ctx;
    ctx.scope = &scope;
    ctx.row = RowTuple(&part, 1);
    ctx.behavior = &behavior;
    // Reference semantics: no fault set, no subquery runner, unmetered.
    auto value = evalExpr(predicate, ctx);
    if (!value.isOk())
        return PivotTruth::Error;
    auto truth = valueTruth(value.value());
    if (!truth.has_value())
        return PivotTruth::Null;
    return *truth ? PivotTruth::True : PivotTruth::False;
}

ExprPtr
rectifyPredicate(const Expr &predicate, const Pivot &pivot,
                 const DialectProfile &profile)
{
    switch (evalOnPivot(predicate, pivot, profile.behavior)) {
      case PivotTruth::Error:
        return nullptr;
      case PivotTruth::True:
        return predicate.clone();
      case PivotTruth::False:
        if (profile.supportsUnaryOp(UnaryOp::Not))
            return std::make_unique<UnaryExpr>(UnaryOp::Not,
                                               predicate.clone());
        if (profile.supportsUnaryOp(UnaryOp::IsFalse))
            return std::make_unique<UnaryExpr>(UnaryOp::IsFalse,
                                               predicate.clone());
        return nullptr;
      case PivotTruth::Null:
        if (profile.supportsUnaryOp(UnaryOp::IsNull))
            return std::make_unique<UnaryExpr>(UnaryOp::IsNull,
                                               predicate.clone());
        return nullptr;
    }
    return nullptr;
}

} // namespace sqlpp
