#include "engine/executor.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <string_view>
#include <tuple>

#include "engine/functions.h"
#include "sqlir/printer.h"
#include "util/coverage.h"
#include "util/enum_table.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

/** Sort comparison: NULLs first, then SQL class ordering. */
int
compareForSort(const Value &lhs, const Value &rhs)
{
    if (lhs.isNull() && rhs.isNull())
        return 0;
    if (lhs.isNull())
        return -1;
    if (rhs.isNull())
        return 1;
    auto cmp = compareSql(lhs, rhs);
    return cmp.value_or(0);
}

/** The Value at @p slot of @p row; NULL when its part is NULL-extended. */
const Value &
valueAt(RowTuple row, ColumnSlot slot)
{
    static const Value null;
    RowView part = row[slot.binding];
    return part.empty() ? null : part[slot.column];
}

/** Append a plan-atom piece: text as it is, a count in decimal. */
void
appendPiece(std::string &out, std::string_view text)
{
    out += text;
}

void
appendPiece(std::string &out, size_t count)
{
    char digits[20];
    auto end = std::to_chars(digits, digits + sizeof digits, count).ptr;
    out.append(digits, end);
}

/** Collect column references of an expression, skipping subqueries. */
void
collectColumnRefs(const Expr &expr, std::vector<const ColumnRefExpr *> &out)
{
    if (expr.kind() == ExprKind::ColumnRef) {
        out.push_back(static_cast<const ColumnRefExpr *>(&expr));
        return;
    }
    for (const Expr *child : expr.children())
        collectColumnRefs(*child, out);
}

/** True if the expression contains any subquery node. */
bool
containsSubquery(const Expr &expr)
{
    switch (expr.kind()) {
      case ExprKind::Exists:
      case ExprKind::InSubquery:
      case ExprKind::ScalarSubquery:
        return true;
      default:
        break;
    }
    for (const Expr *child : expr.children()) {
        if (containsSubquery(*child))
            return true;
    }
    return false;
}

} // namespace

std::vector<const Expr *>
splitConjuncts(const Expr &predicate)
{
    std::vector<const Expr *> out;
    if (predicate.kind() == ExprKind::Binary) {
        const auto &bin = static_cast<const BinaryExpr &>(predicate);
        if (bin.op == BinaryOp::And) {
            auto lhs = splitConjuncts(*bin.lhs);
            auto rhs = splitConjuncts(*bin.rhs);
            out.insert(out.end(), lhs.begin(), lhs.end());
            out.insert(out.end(), rhs.begin(), rhs.end());
            return out;
        }
    }
    out.push_back(&predicate);
    return out;
}

namespace {

ExprPtr
foldChildren(const Expr &expr, const EngineBehavior &behavior,
             const FaultSet &faults);

} // namespace

ExprPtr
constantFold(const Expr &expr, const EngineBehavior &behavior,
             const FaultSet &faults)
{
    // The injected folding bug: NULLIF with syntactically identical
    // constant arguments is rewritten to its first argument.
    if (faults.isEnabled(FaultId::ConstFoldNullifIdentity) &&
        expr.kind() == ExprKind::Function) {
        const auto &fn = static_cast<const FunctionExpr &>(expr);
        if (fn.name == "NULLIF" && fn.args.size() == 2 &&
            isConstExpr(expr) &&
            printExpr(*fn.args[0]) == printExpr(*fn.args[1])) {
            SQLPP_COVER("planner.fold.nullif_fault");
            return constantFold(*fn.args[0], behavior, faults);
        }
    }
    if (expr.kind() != ExprKind::Literal && isConstExpr(expr)) {
        EvalContext ctx;
        ctx.behavior = &behavior;
        ctx.faults = &faults;
        auto value = evalExpr(expr, ctx);
        if (value.isOk()) {
            SQLPP_COVER("planner.fold.const");
            return std::make_unique<LiteralExpr>(value.takeValue());
        }
        // Evaluation failed (overflow, domain error): keep the original
        // subtree so the error is raised at run time, as it would be
        // without folding.
        return expr.clone();
    }
    return foldChildren(expr, behavior, faults);
}

namespace {

ExprPtr
foldChildren(const Expr &expr, const EngineBehavior &behavior,
             const FaultSet &faults)
{
    auto fold = [&](const ExprPtr &child) {
        return constantFold(*child, behavior, faults);
    };
    switch (expr.kind()) {
      case ExprKind::Unary: {
        const auto &unary = static_cast<const UnaryExpr &>(expr);
        return std::make_unique<UnaryExpr>(unary.op, fold(unary.operand));
      }
      case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        return std::make_unique<BinaryExpr>(bin.op, fold(bin.lhs),
                                            fold(bin.rhs));
      }
      case ExprKind::Between: {
        const auto &between = static_cast<const BetweenExpr &>(expr);
        return std::make_unique<BetweenExpr>(
            fold(between.operand), fold(between.low), fold(between.high),
            between.negated);
      }
      case ExprKind::InList: {
        const auto &in = static_cast<const InListExpr &>(expr);
        std::vector<ExprPtr> items;
        items.reserve(in.items.size());
        for (const ExprPtr &item : in.items)
            items.push_back(fold(item));
        return std::make_unique<InListExpr>(fold(in.operand),
                                            std::move(items), in.negated);
      }
      case ExprKind::Case: {
        const auto &case_expr = static_cast<const CaseExpr &>(expr);
        std::vector<CaseExpr::Arm> arms;
        arms.reserve(case_expr.arms.size());
        for (const CaseExpr::Arm &arm : case_expr.arms) {
            arms.push_back(
                CaseExpr::Arm{fold(arm.when), fold(arm.then)});
        }
        return std::make_unique<CaseExpr>(
            case_expr.operand ? fold(case_expr.operand) : nullptr,
            std::move(arms),
            case_expr.elseExpr ? fold(case_expr.elseExpr) : nullptr);
      }
      case ExprKind::Function: {
        const auto &fn = static_cast<const FunctionExpr &>(expr);
        std::vector<ExprPtr> args;
        args.reserve(fn.args.size());
        for (const ExprPtr &arg : fn.args)
            args.push_back(fold(arg));
        return std::make_unique<FunctionExpr>(fn.name, std::move(args),
                                              fn.star, fn.distinct);
      }
      default:
        // Leaves and subqueries: clone untouched (folding never enters
        // subqueries).
        return expr.clone();
    }
}

constexpr EnumName<ExecMode> kExecModes[] = {
    {ExecMode::Optimized, "optimized"},
    {ExecMode::Reference, "reference"},
};
static_assert(inEnumOrder(kExecModes, ExecMode::Reference),
              "kExecModes must list ExecMode in enum order");

} // namespace

const char *
execModeName(ExecMode mode)
{
    return enumRow(kExecModes, mode)->name;
}

bool
parseExecMode(const std::string &name, ExecMode &out)
{
    const auto *row = parseEnumRow(kExecModes, name);
    if (row != nullptr)
        out = row->value;
    return row != nullptr;
}

Executor::Executor(const Catalog &catalog, const EngineBehavior &behavior,
                   const FaultSet &faults, ExecMode mode,
                   BudgetMeter *budget)
    : catalog_(catalog), behavior_(behavior), faults_(faults), mode_(mode),
      budget_(budget != nullptr ? budget : &owned_budget_),
      state_(&owned_state_)
{
}

Executor::Executor(const Executor *parent)
    : catalog_(parent->catalog_), behavior_(parent->behavior_),
      faults_(parent->faults_), mode_(parent->mode_),
      budget_(parent->budget_), depth_(parent->depth_ + 1),
      state_(parent->state_)
{
}

void
Executor::Relation::append(RowTuple left, size_t left_arity, RowView right)
{
    if (left.empty())
        parts.resize(parts.size() + left_arity);
    else
        parts.insert(parts.end(), left.begin(), left.end());
    parts.push_back(right);
}

void
Executor::Relation::seal(size_t arity)
{
    rows.resize(parts.size() / arity);
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i] = RowTuple(parts.data() + i * arity, arity);
}

uint64_t
Executor::planFingerprint() const
{
    return fnv1a(plan_);
}

template <typename... Pieces>
void
Executor::note(const Pieces &...pieces)
{
    (appendPiece(plan_, pieces), ...);
    plan_ += ';';
}

namespace {

/** Collect correlation evidence for isUncorrelatedSelect. */
bool
exprRefsOutside(const Expr &expr, const std::set<std::string> &visible);

bool
selectRefsOutside(const SelectStmt &select,
                  std::set<std::string> visible)
{
    for (const TableRef &ref : select.from) {
        visible.insert(ref.bindingName());
        if (ref.subquery != nullptr &&
            selectRefsOutside(*ref.subquery, visible)) {
            return true;
        }
    }
    for (const JoinClause &join : select.joins) {
        visible.insert(join.table.bindingName());
        if (join.table.subquery != nullptr &&
            selectRefsOutside(*join.table.subquery, visible)) {
            return true;
        }
    }
    auto check = [&](const Expr *expr) {
        return expr != nullptr && exprRefsOutside(*expr, visible);
    };
    for (const SelectItem &item : select.items) {
        if (!item.star && check(item.expr.get()))
            return true;
    }
    for (const JoinClause &join : select.joins) {
        if (check(join.on.get()))
            return true;
    }
    if (check(select.where.get()) || check(select.having.get()))
        return true;
    for (const ExprPtr &key : select.groupBy) {
        if (check(key.get()))
            return true;
    }
    for (const OrderTerm &term : select.orderBy) {
        if (check(term.expr.get()))
            return true;
    }
    return false;
}

bool
exprRefsOutside(const Expr &expr, const std::set<std::string> &visible)
{
    switch (expr.kind()) {
      case ExprKind::ColumnRef: {
        const auto &ref = static_cast<const ColumnRefExpr &>(expr);
        // Unqualified references are conservatively correlated.
        return ref.table.empty() || visible.count(ref.table) == 0;
      }
      case ExprKind::Exists: {
        const auto &exists = static_cast<const ExistsExpr &>(expr);
        return selectRefsOutside(*exists.subquery,
                                 std::set<std::string>(visible));
      }
      case ExprKind::InSubquery: {
        const auto &in = static_cast<const InSubqueryExpr &>(expr);
        if (exprRefsOutside(*in.operand, visible))
            return true;
        return selectRefsOutside(*in.subquery,
                                 std::set<std::string>(visible));
      }
      case ExprKind::ScalarSubquery: {
        const auto &sub = static_cast<const ScalarSubqueryExpr &>(expr);
        return selectRefsOutside(*sub.subquery,
                                 std::set<std::string>(visible));
      }
      default:
        break;
    }
    for (const Expr *child : expr.children()) {
        if (exprRefsOutside(*child, visible))
            return true;
    }
    return false;
}

} // namespace

bool
isUncorrelatedSelect(const SelectStmt &select)
{
    return !selectRefsOutside(select, {});
}

StatusOr<std::shared_ptr<const ResultSet>>
Executor::runSubquery(const SelectStmt &select, const EvalContext *outer)
{
    if (depth_ > 12)
        return Status::runtimeError("subquery nesting too deep");
    // Uncorrelated subqueries are loop-invariant: evaluate once per
    // enclosing statement. Whether a SELECT node is correlated, and its
    // text, are worked out once per statement.
    auto [key, fresh] = state_->subqueryKeys.try_emplace(&select);
    if (fresh && isUncorrelatedSelect(select))
        key->second = printSelect(select);
    const std::string &cache_key = key->second;
    if (!cache_key.empty()) {
        auto hit = subquery_cache_.find(cache_key);
        if (hit != subquery_cache_.end())
            return hit->second;
    }
    Executor child(this);
    auto result = child.runSelectImpl(select, outer);
    // Correlated subqueries run once per row; dedupe their plan shape so
    // the parent plan stays data-independent.
    std::string atom = "SUB[" + child.plan_ + "]";
    if (plan_.find(atom) == std::string::npos)
        note(atom);
    if (!result.isOk())
        return result.status();
    auto rows = std::make_shared<const ResultSet>(result.takeValue());
    if (!cache_key.empty())
        subquery_cache_.emplace(cache_key, rows);
    return rows;
}

StatusOr<ResultSet>
Executor::runSelect(const SelectStmt &select, const EvalContext *outer)
{
    // The statement state is keyed by node address: start each
    // statement afresh so a reused executor never sees stale entries.
    *state_ = StatementState();
    note(mode_ == ExecMode::Reference ? "REF" : "OPT");
    return runSelectImpl(select, outer);
}

const Executor::StatementState::Folded &
Executor::folded(const SelectStmt &select)
{
    auto [entry, fresh] = state_->folded.try_emplace(&select);
    StatementState::Folded &trees = entry->second;
    if (fresh) {
        if (select.where != nullptr)
            trees.where = constantFold(*select.where, behavior_, faults_);
        trees.on.resize(select.joins.size());
        for (size_t j = 0; j < select.joins.size(); ++j) {
            if (select.joins[j].on != nullptr) {
                trees.on[j] =
                    constantFold(*select.joins[j].on, behavior_, faults_);
            }
        }
    }
    return trees;
}

StatusOr<Executor::Source>
Executor::prepareSource(const TableRef &ref, const EvalContext *outer)
{
    Source source;
    if (ref.subquery) {
        SQLPP_COVER("exec.source.derived");
        Executor child(this);
        auto result = child.runSelectImpl(*ref.subquery, outer);
        if (!result.isOk())
            return result.status();
        note("DRV[", child.plan_, "]");
        source.binding = ref.alias;
        source.columns = std::move(result.value().columns());
        source.owned = result.value().takeRows();
        source.rel.parts.assign(source.owned.begin(), source.owned.end());
        source.rel.seal(1);
        return source;
    }
    if (const StoredTable *table = catalog_.table(ref.name)) {
        SQLPP_COVER("exec.source.table");
        source.binding = ref.bindingName();
        for (const ColumnDef &col : table->columns)
            source.columns.push_back(col.name);
        source.table = table;
        return source;
    }
    if (const StoredView *view = catalog_.view(ref.name)) {
        SQLPP_COVER("exec.source.view");
        Executor child(this);
        auto result = child.runSelectImpl(*view->select, outer);
        if (!result.isOk())
            return result.status();
        note("VIEW(", view->name, ")[", child.plan_, "]");
        source.binding = ref.bindingName();
        source.columns = view->columnNames.empty()
                             ? result.value().columns()
                             : view->columnNames;
        if (source.columns.size() != result.value().columnCount()) {
            return Status::semanticError(
                "view column list does not match query: " + view->name);
        }
        source.owned = result.value().takeRows();
        source.rel.parts.assign(source.owned.begin(), source.owned.end());
        source.rel.seal(1);
        return source;
    }
    return Status::semanticError("no such table: " + ref.name);
}

Status
Executor::applySourceFilters(Source &source,
                             std::vector<const Expr *> conjuncts,
                             const EvalContext *outer)
{
    bool is_base = source.table != nullptr;
    const StoredTable *table = source.table;

    // Try to turn one conjunct into an index probe (base tables only).
    size_t probe_conjunct = static_cast<size_t>(-1);
    const StoredIndex *probe_index = nullptr;
    // The table rows a probe reads; a full scan reads all of them.
    std::vector<size_t> ordinals;
    enum class ProbeOp { Eq, Gt, Ge, Lt, Le, IsNull } probe_op = ProbeOp::Eq;
    Value probe_key;

    if (is_base && mode_ != ExecMode::Reference) {
        for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
            const Expr &conjunct = *conjuncts[ci];
            const ColumnRefExpr *col = nullptr;
            ProbeOp op = ProbeOp::Eq;
            Value key;
            if (conjunct.kind() == ExprKind::Binary) {
                const auto &bin =
                    static_cast<const BinaryExpr &>(conjunct);
                const Expr *lhs = bin.lhs.get();
                const Expr *rhs = bin.rhs.get();
                BinaryOp bop = bin.op;
                if (lhs->kind() == ExprKind::Literal &&
                    rhs->kind() == ExprKind::ColumnRef) {
                    // Flip literal op column into column op' literal.
                    std::swap(lhs, rhs);
                    switch (bop) {
                      case BinaryOp::Less: bop = BinaryOp::Greater; break;
                      case BinaryOp::LessEq:
                        bop = BinaryOp::GreaterEq;
                        break;
                      case BinaryOp::Greater: bop = BinaryOp::Less; break;
                      case BinaryOp::GreaterEq:
                        bop = BinaryOp::LessEq;
                        break;
                      default: break;
                    }
                }
                if (lhs->kind() != ExprKind::ColumnRef ||
                    rhs->kind() != ExprKind::Literal) {
                    continue;
                }
                switch (bop) {
                  case BinaryOp::Eq: op = ProbeOp::Eq; break;
                  case BinaryOp::Greater: op = ProbeOp::Gt; break;
                  case BinaryOp::GreaterEq: op = ProbeOp::Ge; break;
                  case BinaryOp::Less: op = ProbeOp::Lt; break;
                  case BinaryOp::LessEq: op = ProbeOp::Le; break;
                  default: continue;
                }
                col = static_cast<const ColumnRefExpr *>(lhs);
                key = static_cast<const LiteralExpr *>(rhs)->value;
                if (key.isNull())
                    continue; // comparison with NULL never matches
            } else if (conjunct.kind() == ExprKind::Unary) {
                const auto &unary =
                    static_cast<const UnaryExpr &>(conjunct);
                if (unary.op != UnaryOp::IsNull ||
                    unary.operand->kind() != ExprKind::ColumnRef) {
                    continue;
                }
                col = static_cast<const ColumnRefExpr *>(
                    unary.operand.get());
                op = ProbeOp::IsNull;
            } else {
                continue;
            }
            if (!col->table.empty() && col->table != source.binding)
                continue;
            size_t ordinal = table->columnOrdinal(col->column);
            if (ordinal == StoredTable::npos)
                continue;
            for (const StoredIndex &index : table->indexes) {
                if (index.columnOrdinals.empty() ||
                    index.columnOrdinals[0] != ordinal) {
                    continue;
                }
                if (index.predicate != nullptr &&
                    !faults_.isEnabled(
                        FaultId::PartialIndexIgnoresPredicate)) {
                    // A partial index is only usable when some other
                    // conjunct syntactically equals its predicate.
                    std::string pred_text = printExpr(*index.predicate);
                    bool implied = false;
                    for (size_t oi = 0; oi < conjuncts.size(); ++oi) {
                        if (oi != ci &&
                            printExpr(*conjuncts[oi]) == pred_text) {
                            implied = true;
                            break;
                        }
                    }
                    if (!implied)
                        continue;
                }
                probe_conjunct = ci;
                probe_index = &index;
                probe_op = op;
                probe_key = key;
                break;
            }
            if (probe_index != nullptr)
                break;
        }
    }

    if (probe_index != nullptr) {
        SQLPP_COVER("exec.access.index_scan");
        const char *op_name = "?";
        switch (probe_op) {
          case ProbeOp::Eq: op_name = "EQ"; break;
          case ProbeOp::Gt: op_name = "GT"; break;
          case ProbeOp::Ge: op_name = "GE"; break;
          case ProbeOp::Lt: op_name = "LT"; break;
          case ProbeOp::Le: op_name = "LE"; break;
          case ProbeOp::IsNull: op_name = "NULL"; break;
        }
        note("IDX(", source.binding, ",", probe_index->name, ",", op_name,
             ")");
        Value key = probe_key;
        if (probe_op == ProbeOp::Eq &&
            key.kind() == Value::Kind::Text &&
            faults_.isEnabled(FaultId::IndexEqTextCoerce)) {
            key = Value::integer(valueToNumeric(key).value_or(0));
        }
        if (Status s = budget_->chargeSteps(probe_index->entries.size());
            !s.isOk()) {
            return s;
        }
        for (const StoredIndex::Entry &entry : probe_index->entries) {
            const Value &entry_key = entry.key[0];
            bool match = false;
            if (probe_op == ProbeOp::IsNull) {
                if (faults_.isEnabled(FaultId::IndexSkipsNull))
                    match = false;
                else
                    match = entry_key.isNull();
            } else {
                auto cmp = compareSql(entry_key, key);
                if (cmp.has_value()) {
                    switch (probe_op) {
                      case ProbeOp::Eq: match = *cmp == 0; break;
                      case ProbeOp::Gt:
                        match = faults_.isEnabled(
                                    FaultId::IndexRangeGtIncludesEqual)
                                    ? *cmp >= 0
                                    : *cmp > 0;
                        break;
                      case ProbeOp::Ge: match = *cmp >= 0; break;
                      case ProbeOp::Lt:
                        match = faults_.isEnabled(
                                    FaultId::IndexRangeLtIncludesEqual)
                                    ? *cmp <= 0
                                    : *cmp < 0;
                        break;
                      case ProbeOp::Le: match = *cmp <= 0; break;
                      default: break;
                    }
                }
            }
            if (match)
                ordinals.push_back(entry.rowOrdinal);
        }
        std::sort(ordinals.begin(), ordinals.end());
        conjuncts.erase(conjuncts.begin() +
                        static_cast<long>(probe_conjunct));
    } else if (is_base) {
        SQLPP_COVER("exec.access.full_scan");
        note("SCAN(", source.binding, ")");
        if (Status s = budget_->chargeSteps(table->rows.size());
            !s.isOk()) {
            return s;
        }
    }

    if (!conjuncts.empty()) {
        SQLPP_COVER("exec.access.pushed_filter");
        note("PFILT(", source.binding, ",", conjuncts.size(), ")");
    }
    if (is_base) {
        // Base-table rows are read in place: the source views the rows
        // the scan or the probe selects, and the filter drops views.
        std::vector<RowView> &parts = source.rel.parts;
        if (probe_index == nullptr) {
            parts.assign(table->rows.begin(), table->rows.end());
        } else {
            parts.reserve(ordinals.size());
            for (size_t ordinal : ordinals)
                parts.emplace_back(table->rows[ordinal]);
        }
        source.rel.seal(1);
    }
    if (conjuncts.empty())
        return Status::ok();
    Scope scope;
    scope.addBinding(source.binding, source.columns);
    return filterRows(source.rel.rows, conjuncts, scope, outer);
}

StatusOr<bool>
Executor::conjunctsKeep(const std::vector<const Expr *> &conjuncts,
                        const Scope &scope, RowTuple row,
                        const EvalContext *outer)
{
    for (const Expr *conjunct : conjuncts) {
        auto result = predicateKeeps(*conjunct, scope, row, outer,
                                     /*where_clause=*/true);
        if (!result.isOk() || !result.value())
            return result;
    }
    return true;
}

Status
Executor::filterRows(std::vector<RowTuple> &rows,
                     const std::vector<const Expr *> &conjuncts,
                     const Scope &scope, const EvalContext *outer)
{
    if (conjuncts.empty())
        return Status::ok();
    size_t kept = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        auto keep = conjunctsKeep(conjuncts, scope, rows[i], outer);
        if (!keep.isOk())
            return keep.status();
        if (keep.value())
            rows[kept++] = rows[i];
    }
    rows.resize(kept);
    return Status::ok();
}

StatusOr<bool>
Executor::predicateKeeps(const Expr &predicate, const Scope &scope,
                         RowTuple row, const EvalContext *outer,
                         bool where_clause)
{
    EvalContext ctx;
    ctx.scope = &scope;
    ctx.row = row;
    ctx.outer = outer;
    ctx.behavior = &behavior_;
    ctx.faults = &faults_;
    ctx.subqueries = this;
    ctx.budget = budget_;
    auto value = evalExpr(predicate, ctx);
    if (!value.isOk())
        return value.status();
    auto truth = valueTruth(value.value());
    if (truth.has_value())
        return *truth;
    // NULL predicate: excluded, unless the WHERE fault is active.
    return where_clause && faults_.isEnabled(FaultId::WhereNullAsTrue);
}

StatusOr<ResultSet>
Executor::runSelectImpl(const SelectStmt &select, const EvalContext *outer)
{
    if (!select.joins.empty() && select.from.size() > 1) {
        return Status::semanticError(
            "comma-separated FROM cannot be combined with JOIN");
    }
    if (select.where != nullptr &&
        exprContainsAggregate(*select.where)) {
        return Status::semanticError(
            "aggregate functions are not allowed in WHERE");
    }
    for (const JoinClause &join : select.joins) {
        if (join.on != nullptr && exprContainsAggregate(*join.on)) {
            return Status::semanticError(
                "aggregate functions are not allowed in ON");
        }
    }

    // ------------------------------------------------------------------
    // Materialize sources and compute outer-join nullability.
    // ------------------------------------------------------------------
    std::vector<Source> sources;
    sources.reserve(select.from.size() + select.joins.size());
    auto add_source = [&](const TableRef &ref) -> Status {
        auto source = prepareSource(ref, outer);
        if (!source.isOk())
            return source.status();
        for (const Source &other : sources) {
            if (other.binding == source.value().binding) {
                return Status::semanticError("duplicate table binding: " +
                                             other.binding);
            }
        }
        sources.push_back(source.takeValue());
        return Status::ok();
    };
    for (const TableRef &ref : select.from) {
        if (Status s = add_source(ref); !s.isOk())
            return s;
    }
    for (const JoinClause &join : select.joins) {
        if (Status s = add_source(join.table); !s.isOk())
            return s;
    }
    for (size_t j = 0; j < select.joins.size(); ++j) {
        size_t right_index = select.from.size() + j;
        switch (select.joins[j].type) {
          case JoinType::Left:
            sources[right_index].nullable = true;
            break;
          case JoinType::Right:
            for (size_t i = 0; i < right_index; ++i)
                sources[i].nullable = true;
            break;
          case JoinType::Full:
            for (size_t i = 0; i <= right_index; ++i)
                sources[i].nullable = true;
            break;
          default:
            break;
        }
    }

    // ------------------------------------------------------------------
    // Optimized mode: fold WHERE/ON, apply the ON->WHERE fault, split
    // conjuncts, and push single-binding conjuncts down to sources.
    // ------------------------------------------------------------------
    // Reference mode evaluates the statement's own trees; optimized mode
    // evaluates folded copies, made once per SELECT node per statement
    // so a correlated subquery does not refold them for every outer row.
    const Expr *where = select.where.get();
    std::vector<const Expr *> on(select.joins.size());
    for (size_t j = 0; j < select.joins.size(); ++j)
        on[j] = select.joins[j].on.get();
    std::vector<const Expr *> where_conjuncts;
    LiteralExpr true_literal(Value::boolean(true));

    if (mode_ != ExecMode::Reference) {
        const StatementState::Folded &trees = folded(select);
        where = trees.where.get();
        for (size_t j = 0; j < select.joins.size(); ++j)
            on[j] = trees.on[j].get();
        // Absorbing-element confusion: a top-level `<x> AND TRUE` folds
        // to literal TRUE as if TRUE absorbed (rather than neutralized)
        // the conjunction. Only fires on the wrapper shape EET's
        // and_true rewrite emits, so plain predicates are unaffected.
        if (where != nullptr &&
            faults_.isEnabled(FaultId::ConstFoldTrueAbsorbsAnd) &&
            where->kind() == ExprKind::Binary) {
            const auto &top = static_cast<const BinaryExpr &>(*where);
            if (top.op == BinaryOp::And &&
                top.rhs->kind() == ExprKind::Literal) {
                const Value &rhs =
                    static_cast<const LiteralExpr &>(*top.rhs).value;
                if (rhs.kind() == Value::Kind::Bool && rhs.asBool()) {
                    SQLPP_COVER("planner.fault.true_absorbs_and");
                    note("ANDTRUE");
                    where = &true_literal;
                }
            }
        }
    }
    if (where != nullptr)
        where_conjuncts = splitConjuncts(*where);

    if (mode_ != ExecMode::Reference) {
        // Listing 4 fault: the "flattener" moves a RIGHT JOIN's ON term
        // into the WHERE clause, losing NULL-extended rows. The faulty
        // rewrite pass only runs when the query already has a WHERE
        // clause (as the real flattener path did), which is exactly why
        // oracles can see it: the predicate-free variant plans right.
        if (select.where != nullptr &&
            faults_.isEnabled(FaultId::OnToWhereRightJoin)) {
            for (size_t j = 0; j < select.joins.size(); ++j) {
                if (select.joins[j].type == JoinType::Right &&
                    on[j] != nullptr) {
                    SQLPP_COVER("planner.fault.on_to_where");
                    note("ON2WHERE");
                    where_conjuncts.push_back(on[j]);
                    on[j] = nullptr;
                }
            }
        }
    }

    if (mode_ != ExecMode::Reference && !sources.empty()) {
        // Predicate pushdown: route a conjunct to the one source it
        // references, when legal (or illegally, under the fault).
        std::vector<std::vector<const Expr *>> pushed(sources.size());
        std::vector<const Expr *> retained;
        for (const Expr *conjunct : where_conjuncts) {
            if (containsSubquery(*conjunct) ||
                exprContainsAggregate(*conjunct)) {
                retained.push_back(conjunct);
                continue;
            }
            std::vector<const ColumnRefExpr *> refs;
            collectColumnRefs(*conjunct, refs);
            size_t target = static_cast<size_t>(-1);
            bool pushable = !refs.empty();
            for (const ColumnRefExpr *ref : refs) {
                size_t found = static_cast<size_t>(-1);
                int matches = 0;
                for (size_t si = 0; si < sources.size(); ++si) {
                    const Source &source = sources[si];
                    if (!ref->table.empty() &&
                        ref->table != source.binding) {
                        continue;
                    }
                    for (const std::string &column : source.columns) {
                        if (column == ref->column) {
                            found = si;
                            ++matches;
                        }
                    }
                }
                if (matches != 1) {
                    pushable = false;
                    break;
                }
                if (target == static_cast<size_t>(-1))
                    target = found;
                else if (target != found)
                    pushable = false;
                if (!pushable)
                    break;
            }
            if (pushable && target != static_cast<size_t>(-1)) {
                bool legal =
                    !sources[target].nullable ||
                    faults_.isEnabled(FaultId::PushdownThroughOuterJoin);
                if (sources[target].nullable && legal)
                    SQLPP_COVER("planner.fault.pushdown_outer");
                if (legal) {
                    SQLPP_COVER("planner.pushdown");
                    pushed[target].push_back(conjunct);
                    continue;
                }
            }
            retained.push_back(conjunct);
        }
        where_conjuncts = std::move(retained);
        for (size_t si = 0; si < sources.size(); ++si) {
            Status status = applySourceFilters(sources[si],
                                               std::move(pushed[si]),
                                               outer);
            if (!status.isOk())
                return status;
        }
    } else {
        // Reference mode (or FROM-less): materialize base tables fully.
        for (Source &source : sources) {
            Status status = applySourceFilters(source, {}, outer);
            if (!status.isOk())
                return status;
        }
    }

    // ------------------------------------------------------------------
    // Join pipeline.
    // ------------------------------------------------------------------
    // Each step reads `current` and appends its joined tuples to the
    // parts of the next relation. A tuple's parts view source rows, so
    // the sources, not the relations, must outlive the pipeline. One
    // scope grows by a binding per step.
    Scope scope;
    Relation current;
    if (sources.empty()) {
        // A FROM-less SELECT reads one row of no bindings.
        current.rows.emplace_back();
    } else {
        scope.addBinding(sources[0].binding, sources[0].columns);
        current = std::move(sources[0].rel);
    }

    size_t next_source = 1;
    for (size_t j = 0; j < select.joins.size(); ++j) {
        const JoinClause &join = select.joins[j];
        Source &right = sources[next_source++];
        size_t left_arity = scope.bindings.size();

        const Expr *join_on = on[j];
        ExprPtr natural_on;
        if (join.type == JoinType::Natural) {
            // NATURAL JOIN: equality over all common column names.
            std::vector<ExprPtr> equalities;
            for (const Binding &binding : scope.bindings) {
                for (const std::string &column : binding.columns) {
                    for (const std::string &right_col : right.columns) {
                        if (column == right_col) {
                            equalities.push_back(
                                std::make_unique<BinaryExpr>(
                                    BinaryOp::Eq,
                                    std::make_unique<ColumnRefExpr>(
                                        binding.name, column),
                                    std::make_unique<ColumnRefExpr>(
                                        right.binding, right_col)));
                        }
                    }
                }
            }
            for (ExprPtr &equality : equalities) {
                natural_on = natural_on == nullptr
                                 ? std::move(equality)
                                 : std::make_unique<BinaryExpr>(
                                       BinaryOp::And,
                                       std::move(natural_on),
                                       std::move(equality));
            }
            join_on = natural_on.get();
        }

        // Hash join: optimized mode, INNER or LEFT, ON is col = col
        // across the two sides. The left key resolves against the left
        // bindings only, before the right one joins the scope.
        ColumnSlot left_key;
        size_t right_col = StoredTable::npos;
        if (mode_ != ExecMode::Reference && join_on != nullptr &&
            (join.type == JoinType::Inner ||
             join.type == JoinType::Left) &&
            join_on->kind() == ExprKind::Binary) {
            const auto &bin = static_cast<const BinaryExpr &>(*join_on);
            if (bin.op == BinaryOp::Eq &&
                bin.lhs->kind() == ExprKind::ColumnRef &&
                bin.rhs->kind() == ExprKind::ColumnRef) {
                const auto *lref =
                    static_cast<const ColumnRefExpr *>(bin.lhs.get());
                const auto *rref =
                    static_cast<const ColumnRefExpr *>(bin.rhs.get());
                auto right_in_new = [&](const ColumnRefExpr *ref) {
                    if (!ref->table.empty() &&
                        ref->table != right.binding) {
                        return StoredTable::npos;
                    }
                    for (size_t c = 0; c < right.columns.size(); ++c) {
                        if (right.columns[c] == ref->column)
                            return c;
                    }
                    return StoredTable::npos;
                };
                auto left_slot = scope.resolve(lref->table, lref->column);
                if (left_slot.isOk() &&
                    right_in_new(rref) != StoredTable::npos) {
                    left_key = left_slot.value();
                    right_col = right_in_new(rref);
                } else {
                    left_slot = scope.resolve(rref->table, rref->column);
                    if (left_slot.isOk() &&
                        right_in_new(lref) != StoredTable::npos) {
                        left_key = left_slot.value();
                        right_col = right_in_new(lref);
                    }
                }
            }
        }
        scope.addBinding(right.binding, right.columns);

        Relation joined;
        // Appends the joined row of @p left and @p right; an empty tuple
        // or view is the NULL-extended side of an outer join.
        auto emit = [&](RowTuple left, RowView right_row) -> Status {
            if (Status s = budget_->chargeIntermediateRows(1); !s.isOk())
                return s;
            joined.append(left, left_arity, right_row);
            return Status::ok();
        };
        const std::vector<RowTuple> &right_rows = right.rel.rows;

        if (right_col != StoredTable::npos) {
            SQLPP_COVER("exec.join.hash");
            note("HASHJ(", joinTypeName(join.type), ",", right.binding,
                 ")");
            bool null_match = faults_.isEnabled(FaultId::HashJoinNullMatch);
            // Class-normalized key so 1 and TRUE hash together, as SQL
            // equality dictates. A text key views the row's own string;
            // no key is built per row.
            using JoinKey = std::tuple<int, int64_t, std::string_view>;
            auto hash_key = [](const Value &value) -> JoinKey {
                if (value.isNull())
                    return {0, 0, {}};
                if (value.kind() == Value::Kind::Text)
                    return {1, 0, value.asText()};
                return {2, *valueToNumeric(value), {}};
            };
            std::map<JoinKey, std::vector<size_t>> buckets;
            if (Status s = budget_->chargeSteps(right_rows.size() +
                                                current.rows.size());
                !s.isOk()) {
                return s;
            }
            for (size_t ri = 0; ri < right_rows.size(); ++ri) {
                const Value &key = right_rows[ri][0][right_col];
                if (key.isNull() && !null_match)
                    continue;
                buckets[hash_key(key)].push_back(ri);
            }
            for (RowTuple left_row : current.rows) {
                const Value &key = valueAt(left_row, left_key);
                const std::vector<size_t> *matches = nullptr;
                if (!key.isNull() || null_match) {
                    auto it = buckets.find(hash_key(key));
                    if (it != buckets.end())
                        matches = &it->second;
                }
                if (matches != nullptr) {
                    for (size_t ri : *matches) {
                        if (Status s = emit(left_row, right_rows[ri][0]);
                            !s.isOk()) {
                            return s;
                        }
                    }
                } else if (join.type == JoinType::Left) {
                    if (Status s = emit(left_row, RowView()); !s.isOk())
                        return s;
                }
            }
        } else {
            SQLPP_COVER("exec.join.nested_loop");
            note("NLJ(", joinTypeName(join.type), ",", right.binding, ")");
            std::vector<bool> right_matched(right_rows.size(), false);
            // ON is evaluated on one candidate tuple: the left row's
            // parts, then the right row's view, set in place per pair.
            std::vector<RowView> candidate(left_arity + 1);
            for (RowTuple left_row : current.rows) {
                bool matched = false;
                std::copy(left_row.begin(), left_row.end(),
                          candidate.begin());
                for (size_t ri = 0; ri < right_rows.size(); ++ri) {
                    if (Status s = budget_->chargeSteps(1); !s.isOk())
                        return s;
                    bool keeps = true;
                    if (join_on != nullptr) {
                        candidate[left_arity] = right_rows[ri][0];
                        auto on_keeps =
                            predicateKeeps(*join_on, scope, candidate,
                                           outer, /*where_clause=*/false);
                        if (!on_keeps.isOk())
                            return on_keeps.status();
                        keeps = on_keeps.value();
                    }
                    if (keeps) {
                        matched = true;
                        right_matched[ri] = true;
                        if (Status s = emit(left_row, right_rows[ri][0]);
                            !s.isOk()) {
                            return s;
                        }
                    }
                }
                if (!matched &&
                    (join.type == JoinType::Left ||
                     join.type == JoinType::Full)) {
                    SQLPP_COVER("exec.join.null_extend_left");
                    if (Status s = emit(left_row, RowView()); !s.isOk())
                        return s;
                }
            }
            if (join.type == JoinType::Right ||
                join.type == JoinType::Full) {
                for (size_t ri = 0; ri < right_rows.size(); ++ri) {
                    if (right_matched[ri])
                        continue;
                    SQLPP_COVER("exec.join.null_extend_right");
                    if (Status s = emit(RowTuple(), right_rows[ri][0]);
                        !s.isOk()) {
                        return s;
                    }
                }
            }
        }

        joined.seal(left_arity + 1);
        current = std::move(joined);
    }

    // Remaining comma-separated FROM items: cross products.
    for (; next_source < sources.size(); ++next_source) {
        Source &right = sources[next_source];
        SQLPP_COVER("exec.join.cross_comma");
        note("CROSS(", right.binding, ")");
        size_t left_arity = scope.bindings.size();
        // The product's size is known: reserve it, up to what the
        // intermediate-row budget can still admit.
        size_t count = current.rows.size() * right.rel.rows.size();
        const StepBudget &limits = budget_->limits();
        if (limits.maxIntermediateRows != 0) {
            uint64_t used = budget_->intermediateRows();
            uint64_t admit = used < limits.maxIntermediateRows
                                ? limits.maxIntermediateRows - used
                                : 0;
            count = static_cast<size_t>(std::min<uint64_t>(count, admit));
        }
        Relation joined;
        joined.parts.reserve(count * (left_arity + 1));
        for (RowTuple left_row : current.rows) {
            for (RowTuple right_row : right.rel.rows) {
                if (Status s = budget_->chargeIntermediateRows(1);
                    !s.isOk()) {
                    return s;
                }
                joined.append(left_row, left_arity, right_row[0]);
            }
        }
        joined.seal(left_arity + 1);
        scope.addBinding(right.binding, right.columns);
        current = std::move(joined);
    }

    // ------------------------------------------------------------------
    // WHERE (whole predicate in reference mode; residue in optimized).
    // ------------------------------------------------------------------
    if (!where_conjuncts.empty()) {
        SQLPP_COVER("exec.filter.where");
        note("FILT(", where_conjuncts.size(), ")");
        if (Status s = filterRows(current.rows, where_conjuncts, scope,
                                  outer);
            !s.isOk()) {
            return s;
        }
    }

    // ------------------------------------------------------------------
    // Grouping / aggregation.
    // ------------------------------------------------------------------
    bool has_aggregate = false;
    for (const SelectItem &item : select.items) {
        if (item.expr != nullptr && exprContainsAggregate(*item.expr))
            has_aggregate = true;
    }
    if (select.having != nullptr &&
        exprContainsAggregate(*select.having)) {
        has_aggregate = true;
    }
    for (const OrderTerm &term : select.orderBy) {
        if (exprContainsAggregate(*term.expr))
            has_aggregate = true;
    }
    bool aggregate_path = has_aggregate || !select.groupBy.empty();

    // Output column names.
    std::vector<std::string> out_columns;
    for (const SelectItem &item : select.items) {
        if (item.star) {
            auto names = scope.allColumnNames();
            out_columns.insert(out_columns.end(), names.begin(),
                               names.end());
        } else if (!item.alias.empty()) {
            out_columns.push_back(item.alias);
        } else if (item.expr->kind() == ExprKind::ColumnRef) {
            out_columns.push_back(
                static_cast<const ColumnRefExpr *>(item.expr.get())
                    ->column);
        } else {
            // Printed once per item per statement, not once per run.
            auto [name, fresh] =
                state_->itemNames.try_emplace(item.expr.get());
            if (fresh)
                name->second = printExpr(*item.expr);
            out_columns.push_back(name->second);
        }
    }

    // The projection + optional sort-key evaluation shares this helper.
    auto project = [&](const EvalContext &ctx,
                       ResultSet &out) -> Status {
        Row out_row;
        out_row.reserve(out.columnCount());
        for (const SelectItem &item : select.items) {
            if (item.star) {
                if (scope.bindings.empty()) {
                    return Status::semanticError(
                        "SELECT * requires a FROM clause");
                }
                // The parts in binding order; a missing part (or row)
                // reads as its columns in NULLs.
                for (size_t b = 0; b < scope.bindings.size(); ++b) {
                    RowView part = ctx.row.empty() ? RowView() : ctx.row[b];
                    if (part.empty()) {
                        out_row.resize(out_row.size() +
                                       scope.bindings[b].columns.size());
                    } else {
                        out_row.insert(out_row.end(), part.begin(),
                                       part.end());
                    }
                }
                continue;
            }
            auto value = evalExpr(*item.expr, ctx);
            if (!value.isOk())
                return value.status();
            out_row.push_back(value.takeValue());
        }
        if (Status s = budget_->chargeRows(1); !s.isOk())
            return s;
        out.addRow(std::move(out_row));
        return Status::ok();
    };

    ResultSet result(std::move(out_columns));
    // Sort keys of the produced rows, evaluated in the same context:
    // select.orderBy.size() Values per row, row after row.
    std::vector<Value> sort_keys;

    auto base_ctx = [&]() {
        EvalContext ctx;
        ctx.scope = &scope;
        ctx.outer = outer;
        ctx.behavior = &behavior_;
        ctx.faults = &faults_;
        ctx.subqueries = this;
        ctx.budget = budget_;
        return ctx;
    };

    auto eval_sort_keys = [&](const EvalContext &ctx) -> Status {
        for (const OrderTerm &term : select.orderBy) {
            auto value = evalExpr(*term.expr, ctx);
            if (!value.isOk())
                return value.status();
            sort_keys.push_back(value.takeValue());
        }
        return Status::ok();
    };

    if (aggregate_path) {
        SQLPP_COVER("exec.aggregate");
        note("AGG(", select.groupBy.size(), ")");
        for (const ExprPtr &key : select.groupBy) {
            if (exprContainsAggregate(*key)) {
                return Status::semanticError(
                    "aggregate functions are not allowed in GROUP BY");
            }
        }
        // Build groups, in order of first appearance.
        std::vector<std::vector<RowTuple>> groups;
        auto row_less = [](const Row &a, const Row &b) {
            return compareRows(a, b) < 0;
        };
        std::map<Row, size_t, decltype(row_less)> group_index(row_less);
        bool null_separate =
            faults_.isEnabled(FaultId::GroupByNullSeparate);
        if (select.groupBy.empty()) {
            groups.push_back(std::move(current.rows));
        } else {
            // The key buffer is reused until a new group takes it over.
            Row key;
            for (RowTuple row : current.rows) {
                EvalContext ctx = base_ctx();
                ctx.row = row;
                key.clear();
                key.reserve(select.groupBy.size());
                bool separate = false;
                for (const ExprPtr &key_expr : select.groupBy) {
                    auto value = evalExpr(*key_expr, ctx);
                    if (!value.isOk())
                        return value.status();
                    if (value.value().isNull() && null_separate) {
                        SQLPP_COVER("exec.fault.group_null_separate");
                        separate = true;
                    }
                    key.push_back(value.takeValue());
                }
                // The fault gives every NULL-bearing row its own group.
                size_t group = groups.size();
                if (!separate)
                    group = group_index.try_emplace(std::move(key), group)
                                .first->second;
                if (group == groups.size())
                    groups.emplace_back();
                groups[group].push_back(row);
            }
        }
        for (const std::vector<RowTuple> &rows : groups) {
            EvalContext ctx = base_ctx();
            ctx.groupRows = &rows;
            ctx.row = rows.empty() ? RowTuple() : rows[0];
            if (select.having != nullptr) {
                auto value = evalExpr(*select.having, ctx);
                if (!value.isOk())
                    return value.status();
                auto truth = valueTruth(value.value());
                if (!truth.has_value() || !*truth)
                    continue;
            }
            if (Status s = project(ctx, result); !s.isOk())
                return s;
            if (Status s = eval_sort_keys(ctx); !s.isOk())
                return s;
        }
    } else {
        SQLPP_COVER("exec.project");
        note("PROJ(", select.items.size(), ")");
        if (select.having != nullptr) {
            return Status::semanticError(
                "HAVING requires GROUP BY or aggregates");
        }
        for (RowTuple row : current.rows) {
            EvalContext ctx = base_ctx();
            ctx.row = row;
            if (Status s = project(ctx, result); !s.isOk())
                return s;
            if (Status s = eval_sort_keys(ctx); !s.isOk())
                return s;
        }
    }

    // ------------------------------------------------------------------
    // DISTINCT, ORDER BY, LIMIT/OFFSET over the projected rows.
    // ------------------------------------------------------------------
    std::vector<size_t> order(result.rowCount());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    if (select.distinct) {
        SQLPP_COVER("exec.distinct");
        note("DISTINCT");
        bool null_collapse =
            faults_.isEnabled(FaultId::DistinctNullCollapse);
        auto row_less = [](const Row *a, const Row *b) {
            return compareRows(*a, *b) < 0;
        };
        std::set<const Row *, decltype(row_less)> seen(row_less);
        bool null_row_kept = false;
        std::vector<size_t> kept;
        for (size_t i : order) {
            if (Status s = budget_->chargeSteps(1); !s.isOk())
                return s;
            const Row &row = result.rows()[i];
            bool has_null = false;
            for (const Value &value : row)
                has_null |= value.isNull();
            // The fault keeps only the first NULL-bearing row.
            if (null_collapse && has_null) {
                SQLPP_COVER("exec.fault.distinct_null_collapse");
                if (!null_row_kept)
                    kept.push_back(i);
                null_row_kept = true;
            } else if (seen.insert(&row).second) {
                kept.push_back(i);
            }
        }
        order = std::move(kept);
    }

    if (!select.orderBy.empty()) {
        SQLPP_COVER("exec.sort");
        note("SORT(", select.orderBy.size(), ")");
        if (Status s = budget_->chargeSteps(order.size()); !s.isOk())
            return s;
        std::stable_sort(
            order.begin(), order.end(), [&](size_t a, size_t b) {
                size_t terms = select.orderBy.size();
                for (size_t k = 0; k < terms; ++k) {
                    int cmp = compareForSort(sort_keys[a * terms + k],
                                             sort_keys[b * terms + k]);
                    if (cmp != 0) {
                        return select.orderBy[k].ascending ? cmp < 0
                                                           : cmp > 0;
                    }
                }
                return false;
            });
    }

    size_t begin = 0;
    size_t end = order.size();
    if (select.offset >= 0) {
        note("OFFSET");
        begin = std::min<size_t>(static_cast<size_t>(select.offset),
                                 order.size());
    }
    if (select.limit >= 0) {
        note("LIMIT");
        end = std::min<size_t>(begin + static_cast<size_t>(select.limit),
                               order.size());
    }

    // When every projected row is kept in projection order, the
    // projection is the result.
    bool identity = end - begin == result.rowCount();
    for (size_t i = 0; identity && i < order.size(); ++i)
        identity = order[i] == i;
    if (identity)
        return result;
    // Each projected row appears in `order` at most once, so the final
    // rows can be moved out of the projection.
    std::vector<Row> projected = result.takeRows();
    ResultSet final_result(std::move(result.columns()));
    for (size_t i = begin; i < end; ++i)
        final_result.addRow(std::move(projected[order[i]]));
    return final_result;
}

} // namespace sqlpp
