/**
 * @file
 * Expression evaluation with SQL three-valued logic.
 *
 * The evaluator is shared by the optimized and the reference execution
 * paths (as in real systems), so evaluator faults affect both — which is
 * why they are invisible to NoREC and only caught by TLP when they break
 * the partition law. See engine/faults.h for the fault taxonomy.
 */
#ifndef SQLPP_ENGINE_EVAL_H
#define SQLPP_ENGINE_EVAL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/budget.h"
#include "engine/faults.h"
#include "sqlir/ast.h"
#include "sqlir/value.h"
#include "util/status.h"

namespace sqlpp {

/** Dialect-level behaviour knobs of the engine (not bugs — semantics). */
struct EngineBehavior
{
    /** x / 0 yields NULL (SQLite-style) instead of a runtime error. */
    bool divZeroIsNull = true;
    /** ASIN(2), LN(0), SQRT(-1) yield NULL instead of a runtime error. */
    bool domainErrorIsNull = false;
    /** Run the static type checker before execution. */
    bool staticTyping = false;
    /** LIKE matches case-insensitively (SQLite-style). */
    bool caseInsensitiveLike = true;
};

/** One named tuple source visible to column resolution. */
struct Binding
{
    /** Binding name (table name or alias). */
    std::string name;
    /** Column names in row order. */
    std::vector<std::string> columns;
};

struct FunctionImpl;

/**
 * Where a column sits in a row tuple: the part of its binding (the
 * binding's index in its Scope), then the column within that part.
 */
struct ColumnSlot
{
    uint32_t binding = 0;
    uint32_t column = 0;
};

/**
 * What a column reference or function call is bound to: a (frame,
 * binding, column) slot for a column, the implementation for a function.
 */
struct BoundNode
{
    /** Enclosing frames to walk outward from the evaluating context. */
    uint32_t depth = 0;
    /** The column's slot in that frame's row tuple. */
    ColumnSlot slot;
    /** Bound scalar function; nullptr for column references. */
    const FunctionImpl *function = nullptr;
};

/**
 * The set of bindings produced by a FROM clause, plus the bind table of
 * the expression nodes evaluated against it.
 *
 * The evaluator resolves a column reference or function call by name
 * the first time it meets the node under this scope and records the
 * result here; every later row reads the slot directly. The table is
 * keyed by node address, so it is only valid while the nodes it names
 * are alive: callers keep every tree they evaluate against a scope
 * alive until the next addBinding(), or for the scope's lifetime.
 * addBinding() clears the table, since a name may resolve differently,
 * or become ambiguous, once another binding is visible; a binding's
 * index never changes as later ones are added. A join grows one scope
 * in place, so a scope is neither copied nor moved. The table is a flat
 * list: a scope binds a few dozen nodes at most, and a linear scan of
 * addresses is cheaper there than hashing.
 */
class Scope
{
  public:
    Scope() = default;
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::vector<Binding> bindings;

    /**
     * Resolve a (possibly unqualified) column reference to its slot.
     * Fails with SemanticError for unknown or ambiguous names.
     */
    StatusOr<ColumnSlot> resolve(const std::string &table,
                                 const std::string &column) const;

    /** Column names of every binding, in binding then column order. */
    std::vector<std::string> allColumnNames() const;

    /** Append a binding as the last part of the row tuple. */
    void addBinding(std::string name, std::vector<std::string> columns);

    /** The node's binding under this scope; nullptr when not yet bound. */
    const BoundNode *
    findBound(const Expr *node) const
    {
        for (const auto &[key, bound] : bound_) {
            if (key == node)
                return &bound;
        }
        return nullptr;
    }

    /** Record a node's binding under this scope. */
    void bind(const Expr *node, const BoundNode &bound) const
    {
        bound_.emplace_back(node, bound);
    }

  private:
    mutable std::vector<std::pair<const Expr *, BoundNode>> bound_;
};

class EvalContext;

/**
 * One row of a FROM clause as the evaluator reads it: one RowView per
 * binding of its Scope, in binding order, so a joined row copies no
 * Value. An empty part stands for its binding's columns all NULL (the
 * missing side of an outer join); an empty tuple means there is no row,
 * and every column reads NULL. Spans rather than bare pointers: parts
 * and rows sit side by side in one buffer, and span's operator[] keeps
 * the out-of-range trap of _GLIBCXX_ASSERTIONS builds, where a pointer
 * would silently read the neighbouring row.
 */
using RowTuple = std::span<const RowView>;

/**
 * Callback used by the evaluator to execute expression subqueries.
 * Implemented by the executor; null in contexts without subquery support.
 */
class SubqueryRunner
{
  public:
    virtual ~SubqueryRunner() = default;

    /**
     * Run a subquery. @p outer provides the lexical environment for
     * correlated column references. The result is shared, not copied:
     * a cached uncorrelated subquery hands every caller the same rows.
     */
    virtual StatusOr<std::shared_ptr<const ResultSet>>
    runSubquery(const SelectStmt &select, const EvalContext *outer) = 0;
};

/** Everything an expression evaluation needs. */
class EvalContext
{
  public:
    const Scope *scope = nullptr;
    /** The current row, one part per binding of scope. */
    RowTuple row;
    /** Enclosing context for correlated subqueries. */
    const EvalContext *outer = nullptr;
    /** Non-null while evaluating aggregate select/having expressions. */
    const std::vector<RowTuple> *groupRows = nullptr;

    const EngineBehavior *behavior = nullptr;
    const FaultSet *faults = nullptr;
    SubqueryRunner *subqueries = nullptr;
    /**
     * Per-statement charge meter; the evaluator charges one step per
     * expression node evaluated. Null means unmetered (type checker,
     * constant folding).
     */
    BudgetMeter *budget = nullptr;

    /**
     * Number of enclosing NOT operators; the NegContextMixedEq fault
     * keys off its parity.
     */
    int negationDepth = 0;

    /**
     * The root of the expression tree this evaluation started from, set
     * once at evalExpr() entry. The DoubleNegNullFalse fault keys off
     * it: the deviation fires only when a NOT node *is* the evaluation
     * root, modelling a result-delivery shortcut that inner expression
     * positions never take.
     */
    const Expr *rootExpr = nullptr;

    bool
    faultEnabled(FaultId id) const
    {
        return faults != nullptr && faults->isEnabled(id);
    }
};

/** Evaluate an expression to a Value (or a runtime/semantic error). */
StatusOr<Value> evalExpr(const Expr &expr, const EvalContext &ctx);

/**
 * SQL truthiness of a value: NULL for SQL NULL, otherwise a bool after
 * dynamic coercion (numbers: non-zero; text: numeric prefix non-zero).
 */
std::optional<bool> valueTruth(const Value &value);

/**
 * Dynamic coercion to the numeric class. Text parses a leading integer
 * (SQLite affinity-style: "12abc" -> 12, "abc" -> 0); NULL -> nullopt.
 */
std::optional<int64_t> valueToNumeric(const Value &value);

/** Render any non-NULL value as text; NULL -> nullopt. */
std::optional<std::string> valueToText(const Value &value);

/**
 * SQL ordering comparison with class semantics: the numeric class
 * (INT, BOOL) sorts before the text class; values in the same class
 * compare naturally. Returns nullopt when either side is NULL.
 */
std::optional<int> compareSql(const Value &lhs, const Value &rhs);

/** True if the expression contains an aggregate call outside subqueries. */
bool exprContainsAggregate(const Expr &expr);

/** True if name is one of COUNT/SUM/AVG/MIN/MAX. */
bool isAggregateFunction(const std::string &name);

/**
 * True if the expression references no columns and no subqueries, i.e.
 * it can be constant-folded by the planner.
 */
bool isConstExpr(const Expr &expr);

/** SQL LIKE pattern match ('%', '_'), used by the evaluator and tests. */
bool likeMatch(const std::string &text, const std::string &pattern,
               bool case_insensitive, bool underscore_is_literal);

/** SQL GLOB pattern match ('*', '?'), case-sensitive. */
bool globMatch(const std::string &text, const std::string &pattern);

} // namespace sqlpp

#endif // SQLPP_ENGINE_EVAL_H
