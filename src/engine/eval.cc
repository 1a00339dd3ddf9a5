#include "engine/eval.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <functional>

#include "engine/functions.h"
#include "util/coverage.h"
#include "util/strutil.h"

namespace sqlpp {

StatusOr<ColumnSlot>
Scope::resolve(const std::string &table, const std::string &column) const
{
    ColumnSlot found;
    int matches = 0;
    for (size_t b = 0; b < bindings.size(); ++b) {
        const Binding &binding = bindings[b];
        if (!table.empty() && binding.name != table)
            continue;
        for (size_t i = 0; i < binding.columns.size(); ++i) {
            if (binding.columns[i] == column) {
                found = {static_cast<uint32_t>(b), static_cast<uint32_t>(i)};
                ++matches;
            }
        }
    }
    if (matches == 0) {
        std::string name = table.empty() ? column : table + "." + column;
        return Status::semanticError("no such column: " + name);
    }
    if (matches > 1) {
        return Status::semanticError("ambiguous column name: " + column);
    }
    return found;
}

std::vector<std::string>
Scope::allColumnNames() const
{
    std::vector<std::string> out;
    for (const Binding &binding : bindings) {
        for (const std::string &column : binding.columns)
            out.push_back(column);
    }
    return out;
}

void
Scope::addBinding(std::string name, std::vector<std::string> columns)
{
    bindings.push_back(Binding{std::move(name), std::move(columns)});
    bound_.clear();
}

std::optional<bool>
valueTruth(const Value &value)
{
    switch (value.kind()) {
      case Value::Kind::Null:
        return std::nullopt;
      case Value::Kind::Bool:
        return value.asBool();
      case Value::Kind::Int:
        return value.asInt() != 0;
      case Value::Kind::Text: {
        auto numeric = valueToNumeric(value);
        return numeric.has_value() && *numeric != 0;
      }
    }
    return std::nullopt;
}

std::optional<int64_t>
valueToNumeric(const Value &value)
{
    switch (value.kind()) {
      case Value::Kind::Null:
        return std::nullopt;
      case Value::Kind::Int:
        return value.asInt();
      case Value::Kind::Bool:
        return value.asBool() ? 1 : 0;
      case Value::Kind::Text: {
        // SQLite-style text-to-number affinity: parse a leading integer,
        // defaulting to 0 when there is none.
        const std::string &text = value.asText();
        size_t i = 0;
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        bool negative = false;
        if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
            negative = text[i] == '-';
            ++i;
        }
        int64_t out = 0;
        bool any = false;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i]))) {
            int digit = text[i] - '0';
            if (out > (INT64_MAX - digit) / 10) {
                // Saturate rather than error: affinity parsing is lossy
                // by design.
                return negative ? INT64_MIN : INT64_MAX;
            }
            out = out * 10 + digit;
            any = true;
            ++i;
        }
        if (!any)
            return 0;
        return negative ? -out : out;
      }
    }
    return std::nullopt;
}

std::optional<std::string>
valueToText(const Value &value)
{
    if (value.isNull())
        return std::nullopt;
    return value.toString();
}

namespace {

/** True if the value belongs to the numeric class (INT or BOOL). */
bool
isNumericClass(const Value &value)
{
    return value.kind() == Value::Kind::Int ||
           value.kind() == Value::Kind::Bool;
}

} // namespace

std::optional<int>
compareSql(const Value &lhs, const Value &rhs)
{
    if (lhs.isNull() || rhs.isNull())
        return std::nullopt;
    bool lhs_numeric = isNumericClass(lhs);
    bool rhs_numeric = isNumericClass(rhs);
    if (lhs_numeric && rhs_numeric) {
        int64_t a = *valueToNumeric(lhs);
        int64_t b = *valueToNumeric(rhs);
        return a < b ? -1 : (a > b ? 1 : 0);
    }
    if (!lhs_numeric && !rhs_numeric) {
        int c = lhs.asText().compare(rhs.asText());
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    // Mixed classes: the numeric class sorts first (SQLite rule).
    return lhs_numeric ? -1 : 1;
}

bool
isAggregateFunction(const std::string &name)
{
    return name == "COUNT" || name == "SUM" || name == "AVG" ||
           name == "MIN" || name == "MAX";
}

bool
exprContainsAggregate(const Expr &expr)
{
    if (expr.kind() == ExprKind::Function) {
        const auto &fn = static_cast<const FunctionExpr &>(expr);
        if (isAggregateFunction(fn.name))
            return true;
    }
    // Subqueries are opaque: aggregates inside them belong to the
    // subquery, not to this select.
    if (expr.kind() == ExprKind::Exists ||
        expr.kind() == ExprKind::ScalarSubquery) {
        return false;
    }
    if (expr.kind() == ExprKind::InSubquery) {
        const auto &in = static_cast<const InSubqueryExpr &>(expr);
        return exprContainsAggregate(*in.operand);
    }
    for (const Expr *child : expr.children()) {
        if (exprContainsAggregate(*child))
            return true;
    }
    return false;
}

bool
isConstExpr(const Expr &expr)
{
    switch (expr.kind()) {
      case ExprKind::ColumnRef:
      case ExprKind::Exists:
      case ExprKind::InSubquery:
      case ExprKind::ScalarSubquery:
        return false;
      case ExprKind::Function: {
        const auto &fn = static_cast<const FunctionExpr &>(expr);
        if (isAggregateFunction(fn.name))
            return false;
        break;
      }
      default:
        break;
    }
    for (const Expr *child : expr.children()) {
        if (!isConstExpr(*child))
            return false;
    }
    return true;
}

bool
likeMatch(const std::string &text, const std::string &pattern,
          bool case_insensitive, bool underscore_is_literal)
{
    // Recursive matcher with memo-free backtracking; patterns generated
    // by the platform are short so worst cases do not matter.
    std::function<bool(size_t, size_t)> match = [&](size_t ti,
                                                    size_t pi) -> bool {
        while (pi < pattern.size()) {
            char pc = pattern[pi];
            if (pc == '%') {
                // Collapse consecutive wildcards.
                while (pi < pattern.size() && pattern[pi] == '%')
                    ++pi;
                if (pi == pattern.size())
                    return true;
                for (size_t k = ti; k <= text.size(); ++k) {
                    if (match(k, pi))
                        return true;
                }
                return false;
            }
            if (ti >= text.size())
                return false;
            if (pc == '_' && !underscore_is_literal) {
                ++ti;
                ++pi;
                continue;
            }
            char tc = text[ti];
            if (case_insensitive) {
                tc = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(tc)));
                pc = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(pc)));
            }
            if (tc != pc)
                return false;
            ++ti;
            ++pi;
        }
        return ti == text.size();
    };
    return match(0, 0);
}

bool
globMatch(const std::string &text, const std::string &pattern)
{
    std::function<bool(size_t, size_t)> match = [&](size_t ti,
                                                    size_t pi) -> bool {
        while (pi < pattern.size()) {
            char pc = pattern[pi];
            if (pc == '*') {
                while (pi < pattern.size() && pattern[pi] == '*')
                    ++pi;
                if (pi == pattern.size())
                    return true;
                for (size_t k = ti; k <= text.size(); ++k) {
                    if (match(k, pi))
                        return true;
                }
                return false;
            }
            if (ti >= text.size())
                return false;
            if (pc != '?' && text[ti] != pc)
                return false;
            ++ti;
            ++pi;
        }
        return ti == text.size();
    };
    return match(0, 0);
}

namespace {

Value
triBool(std::optional<bool> value)
{
    if (!value.has_value())
        return Value::null();
    return Value::boolean(*value);
}

StatusOr<Value> evalExprImpl(const Expr &expr, const EvalContext &ctx);

StatusOr<Value>
evalArithmetic(BinaryOp op, const Value &lhs, const Value &rhs,
               const EvalContext &ctx)
{
    auto a = valueToNumeric(lhs);
    auto b = valueToNumeric(rhs);
    if (!a || !b)
        return Value::null();
    int64_t result = 0;
    switch (op) {
      case BinaryOp::Add:
        SQLPP_COVER("eval.op.add");
        if (__builtin_add_overflow(*a, *b, &result))
            return Status::runtimeError("integer overflow");
        return Value::integer(result);
      case BinaryOp::Sub:
        SQLPP_COVER("eval.op.sub");
        if (__builtin_sub_overflow(*a, *b, &result))
            return Status::runtimeError("integer overflow");
        return Value::integer(result);
      case BinaryOp::Mul:
        SQLPP_COVER("eval.op.mul");
        if (__builtin_mul_overflow(*a, *b, &result))
            return Status::runtimeError("integer overflow");
        return Value::integer(result);
      case BinaryOp::Div:
        SQLPP_COVER("eval.op.div");
        if (*b == 0) {
            if (ctx.behavior == nullptr || ctx.behavior->divZeroIsNull)
                return Value::null();
            return Status::runtimeError("division by zero");
        }
        if (*a == INT64_MIN && *b == -1)
            return Status::runtimeError("integer overflow");
        return Value::integer(*a / *b);
      case BinaryOp::Mod:
        SQLPP_COVER("eval.op.mod");
        if (*b == 0) {
            if (ctx.behavior == nullptr || ctx.behavior->divZeroIsNull)
                return Value::null();
            return Status::runtimeError("division by zero");
        }
        if (*a == INT64_MIN && *b == -1)
            return Value::integer(0);
        return Value::integer(*a % *b);
      default:
        return Status::internal("not an arithmetic op");
    }
}

StatusOr<Value>
evalBitwise(BinaryOp op, const Value &lhs, const Value &rhs)
{
    auto a = valueToNumeric(lhs);
    auto b = valueToNumeric(rhs);
    if (!a || !b)
        return Value::null();
    uint64_t ua = static_cast<uint64_t>(*a);
    uint64_t ub = static_cast<uint64_t>(*b);
    switch (op) {
      case BinaryOp::BitAnd:
        SQLPP_COVER("eval.op.bitand");
        return Value::integer(static_cast<int64_t>(ua & ub));
      case BinaryOp::BitOr:
        SQLPP_COVER("eval.op.bitor");
        return Value::integer(static_cast<int64_t>(ua | ub));
      case BinaryOp::BitXor:
        SQLPP_COVER("eval.op.bitxor");
        return Value::integer(static_cast<int64_t>(ua ^ ub));
      case BinaryOp::ShiftLeft:
        SQLPP_COVER("eval.op.shl");
        if (*b < 0 || *b > 63)
            return Value::integer(0);
        return Value::integer(static_cast<int64_t>(ua << ub));
      case BinaryOp::ShiftRight:
        SQLPP_COVER("eval.op.shr");
        if (*b < 0 || *b > 63)
            return Value::integer(0);
        return Value::integer(*a >> ub); // arithmetic shift
      default:
        return Status::internal("not a bitwise op");
    }
}

/**
 * Equality with class semantics. With the NegContextMixedEq fault and an
 * odd negation depth, mixed text/int comparisons coerce the text side to
 * a number — the context-dependent comparison behind Listing 3.
 */
std::optional<bool>
evalEquality(const Value &lhs, const Value &rhs, const EvalContext &ctx)
{
    if (lhs.isNull() || rhs.isNull())
        return std::nullopt;
    bool mixed = isNumericClass(lhs) != isNumericClass(rhs);
    if (mixed && ctx.faultEnabled(FaultId::NegContextMixedEq) &&
        (ctx.negationDepth % 2) == 1) {
        return *valueToNumeric(lhs) == *valueToNumeric(rhs);
    }
    auto cmp = compareSql(lhs, rhs);
    return cmp.has_value() ? std::optional<bool>(*cmp == 0) : std::nullopt;
}

StatusOr<Value>
evalComparison(BinaryOp op, const Value &lhs, const Value &rhs,
               const EvalContext &ctx)
{
    switch (op) {
      case BinaryOp::Eq:
        SQLPP_COVER("eval.op.eq");
        return triBool(evalEquality(lhs, rhs, ctx));
      case BinaryOp::NotEq:
      case BinaryOp::NotEqBang: {
        SQLPP_COVER("eval.op.noteq");
        auto eq = evalEquality(lhs, rhs, ctx);
        if (!eq)
            return Value::null();
        return Value::boolean(!*eq);
      }
      case BinaryOp::NullSafeEq: {
        SQLPP_COVER("eval.op.nullsafe_eq");
        if (lhs.isNull() && rhs.isNull()) {
            if (ctx.faultEnabled(FaultId::NullSafeEqBothNullFalse))
                return Value::boolean(false);
            return Value::boolean(true);
        }
        if (lhs.isNull() || rhs.isNull())
            return Value::boolean(false);
        auto eq = evalEquality(lhs, rhs, ctx);
        return Value::boolean(eq.value_or(false));
      }
      case BinaryOp::IsDistinctFrom:
      case BinaryOp::IsNotDistinctFrom: {
        SQLPP_COVER("eval.op.is_distinct");
        bool same;
        if (lhs.isNull() && rhs.isNull()) {
            same = true;
        } else if (lhs.isNull() || rhs.isNull()) {
            same = false;
        } else {
            auto eq = evalEquality(lhs, rhs, ctx);
            same = eq.value_or(false);
        }
        bool distinct = !same;
        return Value::boolean(op == BinaryOp::IsDistinctFrom ? distinct
                                                             : !distinct);
      }
      default: {
        SQLPP_COVER("eval.op.relational");
        auto cmp = compareSql(lhs, rhs);
        if (!cmp)
            return Value::null();
        switch (op) {
          case BinaryOp::Less: return Value::boolean(*cmp < 0);
          case BinaryOp::LessEq: return Value::boolean(*cmp <= 0);
          case BinaryOp::Greater: return Value::boolean(*cmp > 0);
          case BinaryOp::GreaterEq: return Value::boolean(*cmp >= 0);
          default:
            return Status::internal("not a relational op");
        }
      }
    }
}

StatusOr<Value>
evalBinary(const BinaryExpr &expr, const EvalContext &ctx)
{
    // AND/OR need lazy semantics over three-valued logic; everything
    // else evaluates both operands first.
    if (expr.op == BinaryOp::And || expr.op == BinaryOp::Or) {
        if (expr.op == BinaryOp::And)
            SQLPP_COVER("eval.op.and");
        else
            SQLPP_COVER("eval.op.or");
        auto lhs = evalExprImpl(*expr.lhs, ctx);
        if (!lhs.isOk())
            return lhs;
        std::optional<bool> a = valueTruth(lhs.value());
        // Short circuit: FALSE AND _, TRUE OR _.
        if (expr.op == BinaryOp::And && a.has_value() && !*a)
            return Value::boolean(false);
        if (expr.op == BinaryOp::Or && a.has_value() && *a)
            return Value::boolean(true);
        auto rhs = evalExprImpl(*expr.rhs, ctx);
        if (!rhs.isOk())
            return rhs;
        std::optional<bool> b = valueTruth(rhs.value());
        if (expr.op == BinaryOp::And) {
            if (b.has_value() && !*b)
                return Value::boolean(false);
            if (a.has_value() && b.has_value())
                return Value::boolean(*a && *b);
            return Value::null();
        }
        if (b.has_value() && *b)
            return Value::boolean(true);
        if (a.has_value() && b.has_value())
            return Value::boolean(*a || *b);
        return Value::null();
    }

    auto lhs_or = evalExprImpl(*expr.lhs, ctx);
    if (!lhs_or.isOk())
        return lhs_or;
    auto rhs_or = evalExprImpl(*expr.rhs, ctx);
    if (!rhs_or.isOk())
        return rhs_or;
    const Value &lhs = lhs_or.value();
    const Value &rhs = rhs_or.value();

    switch (expr.op) {
      case BinaryOp::Add:
      case BinaryOp::Sub:
      case BinaryOp::Mul:
      case BinaryOp::Div:
      case BinaryOp::Mod:
        return evalArithmetic(expr.op, lhs, rhs, ctx);
      case BinaryOp::BitAnd:
      case BinaryOp::BitOr:
      case BinaryOp::BitXor:
      case BinaryOp::ShiftLeft:
      case BinaryOp::ShiftRight:
        return evalBitwise(expr.op, lhs, rhs);
      case BinaryOp::Concat: {
        SQLPP_COVER("eval.op.concat");
        auto a = valueToText(lhs);
        auto b = valueToText(rhs);
        if (!a || !b)
            return Value::null();
        return Value::text(*a + *b);
      }
      case BinaryOp::Like:
      case BinaryOp::NotLike: {
        SQLPP_COVER("eval.op.like");
        auto text = valueToText(lhs);
        auto pattern = valueToText(rhs);
        if (!text || !pattern)
            return Value::null();
        bool ci = ctx.behavior == nullptr ||
                  ctx.behavior->caseInsensitiveLike;
        bool underscore_literal =
            ctx.faultEnabled(FaultId::LikeUnderscoreLiteral);
        bool matched = likeMatch(*text, *pattern, ci, underscore_literal);
        return Value::boolean(expr.op == BinaryOp::Like ? matched
                                                        : !matched);
      }
      case BinaryOp::Glob: {
        SQLPP_COVER("eval.op.glob");
        auto text = valueToText(lhs);
        auto pattern = valueToText(rhs);
        if (!text || !pattern)
            return Value::null();
        return Value::boolean(globMatch(*text, *pattern));
      }
      default:
        return evalComparison(expr.op, lhs, rhs, ctx);
    }
}

StatusOr<Value>
evalUnary(const UnaryExpr &expr, const EvalContext &ctx)
{
    if (expr.op == UnaryOp::Not) {
        SQLPP_COVER("eval.op.not");
        EvalContext inner = ctx;
        inner.negationDepth = ctx.negationDepth + 1;
        auto operand = evalExprImpl(*expr.operand, inner);
        if (!operand.isOk())
            return operand;
        std::optional<bool> truth = valueTruth(operand.value());
        if (!truth.has_value()) {
            if (ctx.faultEnabled(FaultId::NotNullTrue))
                return Value::boolean(true);
            // Root-keyed: only a doubly-negated tree delivered directly
            // as the evaluation result takes the faulty shortcut.
            if (ctx.faultEnabled(FaultId::DoubleNegNullFalse) &&
                ctx.rootExpr == static_cast<const Expr *>(&expr) &&
                expr.operand->kind() == ExprKind::Unary &&
                static_cast<const UnaryExpr &>(*expr.operand).op ==
                    UnaryOp::Not) {
                SQLPP_COVER("eval.fault.double_neg_null_false");
                return Value::boolean(false);
            }
            return Value::null();
        }
        return Value::boolean(!*truth);
    }

    auto operand_or = evalExprImpl(*expr.operand, ctx);
    if (!operand_or.isOk())
        return operand_or;
    const Value &operand = operand_or.value();

    switch (expr.op) {
      case UnaryOp::Neg: {
        SQLPP_COVER("eval.op.neg");
        auto numeric = valueToNumeric(operand);
        if (!numeric)
            return Value::null();
        if (*numeric == INT64_MIN)
            return Status::runtimeError("integer overflow");
        return Value::integer(-*numeric);
      }
      case UnaryOp::Plus: {
        SQLPP_COVER("eval.op.unary_plus");
        auto numeric = valueToNumeric(operand);
        if (!numeric)
            return Value::null();
        return Value::integer(*numeric);
      }
      case UnaryOp::BitNot: {
        SQLPP_COVER("eval.op.bitnot");
        auto numeric = valueToNumeric(operand);
        if (!numeric)
            return Value::null();
        return Value::integer(~*numeric);
      }
      case UnaryOp::IsNull: {
        SQLPP_COVER("eval.op.is_null");
        if (operand.isNull() &&
            ctx.faultEnabled(FaultId::IsNullFalseForBoolNull)) {
            // The fault misclassifies NULLs produced by boolean-yielding
            // expressions (comparisons, logic, IS forms).
            ExprKind kind = expr.operand->kind();
            bool boolean_producer = false;
            if (kind == ExprKind::Binary) {
                const auto &bin =
                    static_cast<const BinaryExpr &>(*expr.operand);
                boolean_producer =
                    isComparisonOp(bin.op) || isLogicalOp(bin.op) ||
                    bin.op == BinaryOp::Like ||
                    bin.op == BinaryOp::NotLike;
            } else if (kind == ExprKind::Unary) {
                boolean_producer =
                    static_cast<const UnaryExpr &>(*expr.operand).op ==
                    UnaryOp::Not;
            }
            if (boolean_producer)
                return Value::boolean(false);
        }
        return Value::boolean(operand.isNull());
      }
      case UnaryOp::IsNotNull:
        SQLPP_COVER("eval.op.is_not_null");
        return Value::boolean(!operand.isNull());
      case UnaryOp::IsTrue: {
        SQLPP_COVER("eval.op.is_true");
        std::optional<bool> truth = valueTruth(operand);
        bool is_true = truth.has_value() && *truth;
        if (!is_true && truth.has_value() &&
            ctx.faultEnabled(FaultId::IsTrueFalseTrue)) {
            return Value::boolean(true);
        }
        return Value::boolean(is_true);
      }
      case UnaryOp::IsFalse: {
        SQLPP_COVER("eval.op.is_false");
        std::optional<bool> truth = valueTruth(operand);
        return Value::boolean(truth.has_value() && !*truth);
      }
      case UnaryOp::IsNotTrue: {
        std::optional<bool> truth = valueTruth(operand);
        return Value::boolean(!(truth.has_value() && *truth));
      }
      case UnaryOp::IsNotFalse: {
        std::optional<bool> truth = valueTruth(operand);
        return Value::boolean(!(truth.has_value() && !*truth));
      }
      default:
        return Status::internal("unhandled unary op");
    }
}

StatusOr<Value>
evalAggregate(const FunctionExpr &fn, const EvalContext &ctx)
{
    const std::vector<RowTuple> &rows = *ctx.groupRows;
    if (fn.name == "COUNT")
        SQLPP_COVER("eval.agg.count");
    else if (fn.name == "SUM")
        SQLPP_COVER("eval.agg.sum");
    else if (fn.name == "AVG")
        SQLPP_COVER("eval.agg.avg");
    else if (fn.name == "MIN")
        SQLPP_COVER("eval.agg.min");
    else if (fn.name == "MAX")
        SQLPP_COVER("eval.agg.max");

    if (fn.name == "COUNT" && fn.star)
        return Value::integer(static_cast<int64_t>(rows.size()));
    if (fn.args.size() != 1) {
        return Status::semanticError("aggregate " + fn.name +
                                     " takes one argument");
    }

    // Evaluate the argument once per row of the group, in row context.
    std::vector<Value> values;
    values.reserve(rows.size());
    for (RowTuple row : rows) {
        EvalContext row_ctx = ctx;
        row_ctx.row = row;
        row_ctx.groupRows = nullptr;
        auto value = evalExprImpl(*fn.args[0], row_ctx);
        if (!value.isOk())
            return value;
        if (!value.value().isNull())
            values.push_back(value.takeValue());
    }
    if (fn.distinct) {
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()),
                     values.end());
    }

    if (fn.name == "COUNT")
        return Value::integer(static_cast<int64_t>(values.size()));
    if (values.empty()) {
        if (fn.name == "SUM" &&
            ctx.faultEnabled(FaultId::SumEmptyZero)) {
            return Value::integer(0);
        }
        return Value::null();
    }
    if (fn.name == "SUM" || fn.name == "AVG") {
        int64_t sum = 0;
        for (const Value &value : values) {
            auto numeric = valueToNumeric(value);
            int64_t term = numeric.value_or(0);
            if (__builtin_add_overflow(sum, term, &sum))
                return Status::runtimeError("integer overflow in SUM");
        }
        if (fn.name == "SUM")
            return Value::integer(sum);
        return Value::integer(sum / static_cast<int64_t>(values.size()));
    }
    // MIN / MAX.
    const Value *best = &values[0];
    for (const Value &value : values) {
        auto cmp = compareSql(value, *best);
        if (!cmp)
            continue;
        if ((fn.name == "MIN" && *cmp < 0) ||
            (fn.name == "MAX" && *cmp > 0)) {
            best = &value;
        }
    }
    return *best;
}

/**
 * Bind a scalar function call to its implementation: by name the first
 * time, from the scope's bind table after that. Aggregates and calls
 * that fail to bind are never recorded, so they take this path (and
 * report their error) every time.
 */
StatusOr<const FunctionImpl *>
bindFunction(const FunctionExpr &fn, const EvalContext &ctx)
{
    if (ctx.scope != nullptr) {
        if (const BoundNode *bound = ctx.scope->findBound(&fn))
            return bound->function;
    }
    if (fn.star) {
        return Status::semanticError("star argument only valid in COUNT");
    }
    const FunctionImpl *impl = FunctionRegistry::instance().find(fn.name);
    if (impl == nullptr)
        return Status::semanticError("no such function: " + fn.name);
    if (fn.args.size() < impl->sig.minimumArgs() ||
        fn.args.size() > impl->sig.maximumArgs()) {
        return Status::semanticError("wrong number of arguments to " +
                                     fn.name);
    }
    if (ctx.scope != nullptr) {
        BoundNode bound;
        bound.function = impl;
        ctx.scope->bind(&fn, bound);
    }
    return impl;
}

StatusOr<Value>
evalFunction(const FunctionExpr &fn, const EvalContext &ctx)
{
    if (isAggregateFunction(fn.name)) {
        if (ctx.groupRows == nullptr) {
            return Status::semanticError("misuse of aggregate function " +
                                         fn.name);
        }
        return evalAggregate(fn, ctx);
    }
    auto bound = bindFunction(fn, ctx);
    if (!bound.isOk())
        return bound.status();
    const FunctionImpl *impl = bound.value();
    // Arguments live on the stack for the common short call; only a
    // longer variadic call (CONCAT, COALESCE, ...) allocates.
    constexpr size_t kInlineArgs = 4;
    std::array<Value, kInlineArgs> inline_args;
    std::vector<Value> heap_args;
    Value *args = inline_args.data();
    if (fn.args.size() > kInlineArgs) {
        heap_args.resize(fn.args.size());
        args = heap_args.data();
    }
    for (size_t i = 0; i < fn.args.size(); ++i) {
        auto value = evalExprImpl(*fn.args[i], ctx);
        if (!value.isOk())
            return value;
        args[i] = value.takeValue();
    }
    CoverageCapture::hit(impl->probeSlot);
    return impl->eval(std::span<const Value>(args, fn.args.size()), ctx);
}

StatusOr<Value>
evalSubqueryScalar(const SelectStmt &select, const EvalContext &ctx)
{
    if (ctx.subqueries == nullptr)
        return Status::semanticError("subqueries are not allowed here");
    auto result = ctx.subqueries->runSubquery(select, &ctx);
    if (!result.isOk())
        return result.status();
    const ResultSet &rows = *result.value();
    if (rows.columnCount() != 1) {
        return Status::semanticError(
            "scalar subquery must return one column");
    }
    if (rows.rowCount() == 0)
        return Value::null();
    if (rows.rowCount() > 1) {
        return Status::runtimeError(
            "scalar subquery returned more than one row");
    }
    return rows.rows()[0][0];
}

/**
 * Resolve a column reference by name, walking lexical scopes
 * innermost-out for correlated references. A frame without the column
 * passes the search outward; an ambiguous match stops it.
 */
StatusOr<BoundNode>
bindColumn(const ColumnRefExpr &ref, const EvalContext &ctx)
{
    uint32_t depth = 0;
    for (const EvalContext *frame = &ctx; frame != nullptr;
         frame = frame->outer, ++depth) {
        if (frame->scope == nullptr)
            continue;
        auto slot = frame->scope->resolve(ref.table, ref.column);
        if (slot.isOk()) {
            BoundNode bound;
            bound.depth = depth;
            bound.slot = slot.value();
            return bound;
        }
        if (slot.status().message().find("ambiguous") !=
            std::string::npos) {
            return slot.status();
        }
    }
    std::string name =
        ref.table.empty() ? ref.column : ref.table + "." + ref.column;
    return Status::semanticError("no such column: " + name);
}

/** Read a bound column slot from the current row of its frame. */
Value
readColumn(const BoundNode &bound, const EvalContext &ctx)
{
    const EvalContext *frame = &ctx;
    for (uint32_t hop = 0; hop < bound.depth; ++hop)
        frame = frame->outer;
    if (frame->row.empty())
        return Value::null();
    RowView part = frame->row[bound.slot.binding];
    if (part.empty())
        return Value::null();
    return part[bound.slot.column];
}

StatusOr<Value>
evalExprImpl(const Expr &expr, const EvalContext &ctx)
{
    // One budget step per expression node per row: bounds runaway
    // recursive evaluation for the whole statement.
    if (ctx.budget != nullptr) {
        if (Status s = ctx.budget->chargeSteps(1); !s.isOk())
            return s;
    }
    switch (expr.kind()) {
      case ExprKind::Literal:
        return static_cast<const LiteralExpr &>(expr).value;
      case ExprKind::ColumnRef: {
        const BoundNode *bound =
            ctx.scope != nullptr ? ctx.scope->findBound(&expr) : nullptr;
        if (bound == nullptr) {
            auto resolved = bindColumn(
                static_cast<const ColumnRefExpr &>(expr), ctx);
            if (!resolved.isOk())
                return resolved.status();
            if (ctx.scope != nullptr)
                ctx.scope->bind(&expr, resolved.value());
            return readColumn(resolved.value(), ctx);
        }
        return readColumn(*bound, ctx);
      }
      case ExprKind::Unary:
        return evalUnary(static_cast<const UnaryExpr &>(expr), ctx);
      case ExprKind::Binary:
        return evalBinary(static_cast<const BinaryExpr &>(expr), ctx);
      case ExprKind::Between: {
        SQLPP_COVER("eval.op.between");
        const auto &between = static_cast<const BetweenExpr &>(expr);
        auto operand = evalExprImpl(*between.operand, ctx);
        if (!operand.isOk())
            return operand;
        auto low = evalExprImpl(*between.low, ctx);
        if (!low.isOk())
            return low;
        auto high = evalExprImpl(*between.high, ctx);
        if (!high.isOk())
            return high;
        auto low_cmp = compareSql(operand.value(), low.value());
        auto high_cmp = compareSql(operand.value(), high.value());
        // x BETWEEN lo AND hi == (x >= lo) AND (x <= hi), Kleene AND.
        std::optional<bool> ge_low =
            low_cmp ? std::optional<bool>(*low_cmp >= 0) : std::nullopt;
        std::optional<bool> le_high =
            high_cmp ? std::optional<bool>(*high_cmp <= 0) : std::nullopt;
        std::optional<bool> both;
        if ((ge_low && !*ge_low) || (le_high && !*le_high))
            both = false;
        else if (ge_low && le_high)
            both = *ge_low && *le_high;
        if (!both.has_value())
            return Value::null();
        return Value::boolean(between.negated ? !*both : *both);
      }
      case ExprKind::InList: {
        SQLPP_COVER("eval.op.in_list");
        const auto &in = static_cast<const InListExpr &>(expr);
        auto operand = evalExprImpl(*in.operand, ctx);
        if (!operand.isOk())
            return operand;
        bool saw_null = operand.value().isNull();
        bool matched = false;
        for (const ExprPtr &item : in.items) {
            auto value = evalExprImpl(*item, ctx);
            if (!value.isOk())
                return value;
            auto eq = evalEquality(operand.value(), value.value(), ctx);
            if (!eq.has_value())
                saw_null = true;
            else if (*eq)
                matched = true;
        }
        std::optional<bool> result;
        if (matched)
            result = true;
        else if (saw_null)
            result = std::nullopt;
        else
            result = false;
        if (!result.has_value())
            return Value::null();
        return Value::boolean(in.negated ? !*result : *result);
      }
      case ExprKind::Case: {
        SQLPP_COVER("eval.op.case");
        const auto &case_expr = static_cast<const CaseExpr &>(expr);
        std::optional<Value> operand;
        if (case_expr.operand) {
            auto value = evalExprImpl(*case_expr.operand, ctx);
            if (!value.isOk())
                return value;
            operand = value.takeValue();
        }
        for (const CaseExpr::Arm &arm : case_expr.arms) {
            auto when = evalExprImpl(*arm.when, ctx);
            if (!when.isOk())
                return when;
            bool taken;
            if (operand.has_value()) {
                auto eq = evalEquality(*operand, when.value(), ctx);
                taken = eq.has_value() && *eq;
            } else {
                auto truth = valueTruth(when.value());
                taken = truth.has_value() && *truth;
            }
            if (taken)
                return evalExprImpl(*arm.then, ctx);
        }
        if (case_expr.elseExpr)
            return evalExprImpl(*case_expr.elseExpr, ctx);
        return Value::null();
      }
      case ExprKind::Function:
        return evalFunction(static_cast<const FunctionExpr &>(expr), ctx);
      case ExprKind::Cast: {
        SQLPP_COVER("eval.op.cast");
        const auto &cast = static_cast<const CastExpr &>(expr);
        auto operand = evalExprImpl(*cast.operand, ctx);
        if (!operand.isOk())
            return operand;
        const Value &value = operand.value();
        if (value.isNull())
            return Value::null();
        switch (cast.target) {
          case DataType::Int:
            return Value::integer(*valueToNumeric(value));
          case DataType::Text:
            return Value::text(*valueToText(value));
          case DataType::Bool:
            return Value::boolean(valueTruth(value).value_or(false));
        }
        return Status::internal("bad cast target");
      }
      case ExprKind::Exists: {
        SQLPP_COVER("eval.op.exists");
        const auto &exists = static_cast<const ExistsExpr &>(expr);
        if (ctx.subqueries == nullptr)
            return Status::semanticError("subqueries are not allowed here");
        auto result = ctx.subqueries->runSubquery(*exists.subquery, &ctx);
        if (!result.isOk())
            return result.status();
        bool any = result.value()->rowCount() > 0;
        return Value::boolean(exists.negated ? !any : any);
      }
      case ExprKind::InSubquery: {
        SQLPP_COVER("eval.op.in_subquery");
        const auto &in = static_cast<const InSubqueryExpr &>(expr);
        if (ctx.subqueries == nullptr)
            return Status::semanticError("subqueries are not allowed here");
        auto operand = evalExprImpl(*in.operand, ctx);
        if (!operand.isOk())
            return operand;
        auto result = ctx.subqueries->runSubquery(*in.subquery, &ctx);
        if (!result.isOk())
            return result.status();
        const ResultSet &rows = *result.value();
        if (rows.columnCount() != 1) {
            return Status::semanticError(
                "IN subquery must return one column");
        }
        bool saw_null = operand.value().isNull();
        bool matched = false;
        for (const Row &row : rows.rows()) {
            auto eq = evalEquality(operand.value(), row[0], ctx);
            if (!eq.has_value())
                saw_null = true;
            else if (*eq)
                matched = true;
        }
        std::optional<bool> membership;
        if (matched)
            membership = true;
        else if (saw_null)
            membership = std::nullopt;
        else
            membership = false;
        if (!membership.has_value())
            return Value::null();
        return Value::boolean(in.negated ? !*membership : *membership);
      }
      case ExprKind::ScalarSubquery: {
        SQLPP_COVER("eval.op.scalar_subquery");
        const auto &sub = static_cast<const ScalarSubqueryExpr &>(expr);
        return evalSubqueryScalar(*sub.subquery, ctx);
      }
    }
    return Status::internal("unhandled expression kind");
}

} // namespace

StatusOr<Value>
evalExpr(const Expr &expr, const EvalContext &ctx)
{
    if (ctx.rootExpr == nullptr) {
        EvalContext rooted = ctx;
        rooted.rootExpr = &expr;
        return evalExprImpl(expr, rooted);
    }
    return evalExprImpl(expr, ctx);
}

} // namespace sqlpp
