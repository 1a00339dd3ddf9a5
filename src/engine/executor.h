/**
 * @file
 * Query planning and execution.
 *
 * One Executor instance runs one top-level SELECT (plus its subqueries)
 * in one of two modes:
 *
 *  - Optimized: constant folding of WHERE/ON trees, predicate pushdown
 *    below joins, index-scan selection for pushed conjuncts, and hash
 *    joins for equi-joins. All planner faults hook in here.
 *  - Reference: full scans, whole-predicate post-join filtering, nested
 *    loops only, no rewrites. This is the "non-optimizing reference"
 *    whose existence makes the NoREC oracle meaningful: projected
 *    expressions never enter the optimizer, so a query rewritten the
 *    NoREC way naturally takes this path for its predicate.
 *
 * The executor records a data-independent *plan description* string as
 * it makes planning decisions; its hash is the plan fingerprint used to
 * reproduce the paper's unique-query-plan metric (Fig. 8).
 *
 * Name-level work is done once, not once per row (the bind step):
 *
 *  - Each SELECT node is planned against per-statement state shared by
 *    the executor and its children: its folded WHERE/ON trees, its
 *    subquery cache key (SQL text if uncorrelated), whether it groups,
 *    and the printed names of its unaliased select items are computed
 *    on its first run and reused by every later run, such as a
 *    correlated subquery's run for each outer row.
 *  - Column references and function calls are bound by the evaluator
 *    the first time they are evaluated under a Scope (see Scope in
 *    engine/eval.h); later rows read the bound slot or implementation.
 *  - Intermediate rows are tuples of views, not copies (Relation): a
 *    base-table source is a selection of views into the stored rows, a
 *    derived table or view keeps its result rows and views them, and a
 *    joined row is one view per binding, appended by each join step
 *    into one flat buffer of views, so no join copies a Value. WHERE
 *    and GROUP BY partition the tuples, and the evaluator reads a
 *    column through its (binding, column) slot, in place when it is
 *    an operator's operand. Only projection copies Values, straight
 *    into the result's one buffer of cells (ResultSet); DISTINCT,
 *    ORDER BY and LIMIT move those cells into the final result, and a
 *    derived table or view takes its child's cells and views them.
 *    Cached subquery results are shared, not copied, per use.
 *
 * None of this changes what is charged to the BudgetMeter, in what
 * order, or the plan description.
 */
#ifndef SQLPP_ENGINE_EXECUTOR_H
#define SQLPP_ENGINE_EXECUTOR_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/budget.h"
#include "engine/catalog.h"
#include "engine/eval.h"
#include "sqlir/ast.h"
#include "util/status.h"

namespace sqlpp {

/**
 * Which execution pipeline to use. The ordinals are hashed into each
 * checkpointed shard's configuration fingerprint (describeShard), so
 * renumbering them would stop existing checkpoints from resuming.
 */
enum class ExecMode
{
    Optimized,
    Reference,
};

/** Stable lowercase name ("optimized", "reference"). */
const char *execModeName(ExecMode mode);

/**
 * Parse execModeName() output (case-insensitive); false (and *out
 * untouched) on junk.
 */
bool parseExecMode(const std::string &name, ExecMode &out);

/** Runs SELECT statements against a catalog. */
class Executor : public SubqueryRunner
{
  public:
    /**
     * @param budget Shared per-statement charge meter; nullptr uses an
     *     owned meter with default limits. Child executors spawned for
     *     subqueries, views, and derived tables inherit the pointer, so
     *     one budget bounds the whole statement.
     */
    Executor(const Catalog &catalog, const EngineBehavior &behavior,
             const FaultSet &faults, ExecMode mode,
             BudgetMeter *budget = nullptr);

    /** Execute a top-level SELECT. */
    StatusOr<ResultSet> runSelect(const SelectStmt &select,
                                  const EvalContext *outer = nullptr);

    /** SubqueryRunner hook used by the evaluator. */
    StatusOr<std::shared_ptr<const ResultSet>>
    runSubquery(const SelectStmt &select, const EvalContext *outer) override;

    /**
     * Data-independent description of the plan(s) executed so far,
     * including nested subquery plans in brackets.
     */
    const std::string &planDescription() const { return plan_; }

    /** FNV-1a hash of planDescription(). */
    uint64_t planFingerprint() const;

  private:
    /**
     * Planning results computed once per SELECT node per statement and
     * shared by an executor and all its children. Keys are node
     * addresses, which are stable for the whole statement: every SELECT
     * node and select item lives in the statement's AST, in a view body,
     * or inside a folded tree held here — never in a tree rebuilt per
     * run.
     */
    struct StatementState
    {
        /** Constant-folded WHERE and ON trees of one SELECT. */
        struct Folded
        {
            ExprPtr where;
            std::vector<ExprPtr> on;
        };
        std::unordered_map<const SelectStmt *, Folded> folded;
        /**
         * Result-cache key of an expression subquery: its SQL text when
         * it is uncorrelated, empty when it is not.
         */
        std::unordered_map<const SelectStmt *, std::string> subqueryKeys;
        /** Result column name of a select item without an alias. */
        std::unordered_map<const Expr *, std::string> itemNames;
        /**
         * Whether a SELECT groups: it has GROUP BY, or an aggregate in
         * its items, HAVING or ORDER BY.
         */
        std::unordered_map<const SelectStmt *, bool> aggregatePath;
    };

    /** Child executor for a nested SELECT; shares budget and state. */
    explicit Executor(const Executor *parent);

    /** Folded WHERE/ON trees of @p select (optimized mode), made once. */
    const StatementState::Folded &folded(const SelectStmt &select);

    /** Whether @p select takes the grouping path, worked out once. */
    bool aggregatePath(const SelectStmt &select);

    /**
     * An intermediate relation: a list of row tuples. Every row's parts
     * live side by side in parts, all of one arity, and view source rows
     * that live in a stored table or in a Source::owned. Moving a
     * Relation keeps its tuples valid; copying one would not, so it
     * cannot be copied.
     */
    struct Relation
    {
        Relation() = default;
        Relation(Relation &&) = default;
        Relation &operator=(Relation &&) = default;
        Relation(const Relation &) = delete;
        Relation &operator=(const Relation &) = delete;

        /**
         * Append the joined row of @p left's parts then the source row
         * @p right to parts. An empty tuple stands for @p left_arity
         * empty parts, and an empty view for one: the NULL-extended side
         * of an outer join. The row is viewed once seal() is called.
         */
        void append(RowTuple left, size_t left_arity, RowView right);
        /**
         * View every appended row, @p arity parts each, once the parts
         * stop growing. @p arity is never 0: every row has a binding.
         */
        void seal(size_t arity);

        std::vector<RowTuple> rows;
        std::vector<RowView> parts;
    };

    /** A materialized FROM source with its binding metadata. */
    struct Source
    {
        std::string binding;
        std::vector<std::string> columns;
        /** The rows the source reads, one part each. */
        Relation rel;
        /** Result cells of a derived table or view, viewed by rel. */
        std::vector<Value> owned;
        /** Non-null for base tables (enables index probes). */
        const StoredTable *table = nullptr;
        /** True when this binding may be NULL-extended by an outer join. */
        bool nullable = false;

        /**
         * Take @p result's cells as owned and view each of its rows as
         * one part of rel. The columns are left to the caller.
         */
        void own(ResultSet &result);
    };

    StatusOr<ResultSet> runSelectImpl(const SelectStmt &select,
                                      const EvalContext *outer);

    /** Materialize one FROM item (base table, view, derived table). */
    StatusOr<Source> prepareSource(const TableRef &ref,
                                   const EvalContext *outer);

    /**
     * Apply pushed-down conjuncts to a base-table source, choosing an
     * index probe when one matches; remaining conjuncts filter inline.
     */
    Status applySourceFilters(Source &source,
                              std::vector<const Expr *> conjuncts,
                              const EvalContext *outer);

    /** True when @p row passes every conjunct (WHERE semantics). */
    StatusOr<bool> conjunctsKeep(const std::vector<const Expr *> &conjuncts,
                                 const Scope &scope, RowTuple row,
                                 const EvalContext *outer);

    /** Keep, in place and in order, the rows that pass every conjunct. */
    Status filterRows(std::vector<RowTuple> &rows,
                      const std::vector<const Expr *> &conjuncts,
                      const Scope &scope, const EvalContext *outer);

    /** Evaluate a predicate as a WHERE-style filter condition. */
    StatusOr<bool> predicateKeeps(const Expr &predicate, const Scope &scope,
                                  RowTuple row, const EvalContext *outer,
                                  bool where_clause);

    /**
     * Append one plan atom, @p pieces concatenated (strings, or counts
     * in decimal), then its ';'.
     */
    template <typename... Pieces>
    void note(const Pieces &...pieces);

    const Catalog &catalog_;
    const EngineBehavior &behavior_;
    const FaultSet &faults_;
    ExecMode mode_;
    /** Fallback meter when the caller does not supply one. */
    BudgetMeter owned_budget_;
    /** The meter every loop and evaluator call charges against. */
    BudgetMeter *budget_;
    std::string plan_;
    /** Re-entrancy guard for runaway recursive subqueries. */
    int depth_ = 0;
    /** Statement state of a top-level executor. */
    StatementState owned_state_;
    /** The state this executor reads: its own, or its parent's. */
    StatementState *state_;
    /**
     * Results of uncorrelated expression subqueries run by this
     * executor, keyed by SQL text. An uncorrelated subquery is
     * loop-invariant across the rows of the enclosing SELECT, so two
     * textually identical ones share one execution (and one budget
     * charge); real engines perform the same "one-shot subquery"
     * optimization. The cache belongs to this executor only: the child
     * executor of a correlated subquery, made afresh per outer row,
     * starts with an empty one.
     */
    std::unordered_map<std::string, std::shared_ptr<const ResultSet>>
        subquery_cache_;
};

/**
 * True if every column reference inside the (sub)select resolves to one
 * of its own FROM bindings — i.e. the subquery is uncorrelated and can
 * be evaluated once. Conservative: unqualified references count as
 * potentially correlated.
 */
bool isUncorrelatedSelect(const SelectStmt &select);

/**
 * Split a predicate into top-level AND conjuncts (borrowed pointers into
 * the expression tree).
 */
std::vector<const Expr *> splitConjuncts(const Expr &predicate);

/**
 * Constant-fold an expression tree: any subtree without column
 * references or subqueries is evaluated once and replaced by a literal.
 * Folding uses the shared evaluator, so it is semantics-preserving —
 * except under the ConstFoldNullifIdentity fault, which rewrites
 * NULLIF(x, x) with syntactically identical arguments to x.
 * Returns a new tree (input untouched). Fold errors leave the subtree
 * unfolded so that runtime reporting is unchanged.
 */
ExprPtr constantFold(const Expr &expr, const EngineBehavior &behavior,
                     const FaultSet &faults);

} // namespace sqlpp

#endif // SQLPP_ENGINE_EXECUTOR_H
