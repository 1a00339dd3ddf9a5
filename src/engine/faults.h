/**
 * @file
 * Fault injection: the ground-truth logic bugs of the DBMS substrate.
 *
 * The paper finds unknown logic bugs in production DBMSs; our substrate
 * instead ships a library of *known* semantic faults that each dialect
 * profile enables a subset of. Every fault is a deliberate, localized
 * deviation from correct SQL semantics in the planner or evaluator —
 * the same classes of defects the paper reports (wrong three-valued
 * logic, bad index scans, illegal predicate movement around outer
 * joins, constant-folding slips, join-key coercion bugs).
 *
 * Ground-truth identities let the evaluation measure what the paper
 * could only approximate by bisecting CrateDB commits: how many of the
 * prioritized bug-inducing test cases map to distinct underlying bugs
 * (Table 5).
 *
 * Oracle visibility (by construction, mirroring the paper's findings):
 *  - Planner faults are visible to both NoREC and TLP (the optimized
 *    WHERE path diverges from reference evaluation).
 *  - Faults in NOT / IS NULL / WHERE NULL-handling break TLP's
 *    partition law (every row satisfies exactly one of p, NOT p,
 *    p IS NULL) and are TLP-only.
 *  - IsTrueFalseTrue corrupts the projected `(p) IS TRUE` reference
 *    side and is NoREC-only.
 *  - A few faults (marked "latent") are invisible to both oracles,
 *    modelling the paper's observation that bug-finding never saturates.
 */
#ifndef SQLPP_ENGINE_FAULTS_H
#define SQLPP_ENGINE_FAULTS_H

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace sqlpp {

/** Every injectable logic bug. Values are stable (used in reports). */
enum class FaultId : uint32_t
{
    /** Planner: index scan for `col > k` also returns rows with col = k. */
    IndexRangeGtIncludesEqual = 1,
    /** Planner: index scan for `col < k` also returns rows with col = k. */
    IndexRangeLtIncludesEqual = 2,
    /** Planner: `col IS NULL` via index misses rows (NULLs unindexed). */
    IndexSkipsNull = 3,
    /** Planner: index equality probe coerces a text key to an integer. */
    IndexEqTextCoerce = 4,
    /** Planner: a partial index is used without checking its predicate. */
    PartialIndexIgnoresPredicate = 5,
    /** Planner: single-table WHERE conjunct pushed below an outer join. */
    PushdownThroughOuterJoin = 6,
    /**
     * Planner: when a query has a WHERE clause, the "flattener" moves a
     * RIGHT JOIN's ON term into it (paper Listing 4's root cause). The
     * WHERE-conditionality is what makes the fault oracle-visible: a
     * predicate-free query plans correctly, a predicated one does not.
     */
    OnToWhereRightJoin = 7,
    /** Planner: hash join matches NULL keys as equal. */
    HashJoinNullMatch = 8,
    /** Planner: constant folding reduces NULLIF(x, x) to x, not NULL. */
    ConstFoldNullifIdentity = 9,
    /**
     * Planner: the constant folder treats a literal TRUE as the
     * *absorbing* element of AND instead of the identity — a top-level
     * WHERE of shape `<x> AND TRUE` folds to TRUE, keeping every row.
     * Only rewrite-shaped inputs (EET's `p AND TRUE` wrapper) ever
     * present this tree, so plain generated predicates sail past it.
     */
    ConstFoldTrueAbsorbsAnd = 10,

    /** Evaluator: NOT NULL evaluates to TRUE instead of NULL. */
    NotNullTrue = 20,
    /** Evaluator: (x IS NULL) returns FALSE for a NULL boolean operand. */
    IsNullFalseForBoolNull = 21,
    /** Executor: WHERE keeps rows whose predicate evaluates to NULL. */
    WhereNullAsTrue = 22,
    /**
     * Evaluator: mixed-type equality (TEXT vs INT) flips its result when
     * evaluated under an odd number of enclosing NOTs — the
     * context-dependent comparison mechanism behind the paper's
     * ten-year-old SQLite REPLACE bug (Listing 3).
     */
    NegContextMixedEq = 23,
    /** Evaluator: (FALSE IS TRUE) evaluates to TRUE. */
    IsTrueFalseTrue = 24,
    /** Executor: DISTINCT collapses any two rows that both contain NULL. */
    DistinctNullCollapse = 25,
    /**
     * Evaluator: REPLACE returns a numeric value (not TEXT) when its
     * subject is numeric — the direct cause of the paper's Listing 3
     * SQLite bug; observable through mixed-type comparisons, and
     * TLP-visible in combination with NegContextMixedEq.
     */
    ReplaceNumericSubject = 26,
    /**
     * Evaluator: a double negation evaluated as the *root* of a value
     * expression short-circuits its three-valued logic — `NOT (NOT p)`
     * at an evaluation root returns FALSE where p is NULL. In WHERE
     * position NULL and FALSE both exclude the row, so every WHERE-based
     * oracle is structurally blind; only an oracle that projects the
     * doubly-negated predicate as a *value* (EET's projection lane) can
     * observe the NULL -> FALSE collapse.
     */
    DoubleNegNullFalse = 27,

    /** Latent evaluator: <=> with two NULL operands yields FALSE. */
    NullSafeEqBothNullFalse = 40,
    /** Latent aggregate: SUM over zero rows yields 0 instead of NULL. */
    SumEmptyZero = 41,
    /** Latent executor: GROUP BY makes every NULL key its own group. */
    GroupByNullSeparate = 42,
    /** Latent evaluator: LIKE treats '_' as a literal underscore. */
    LikeUnderscoreLiteral = 43,

    /**
     * Isolation faults (60-block): multi-session transaction bugs.
     * Each is an exact no-op for single-session auto-commit use — only
     * interleaved sessions with open transactions can observe them, so
     * every single-session oracle is structurally blind and only the
     * interleaving-aware IsolationOracle ("ISO") detects them.
     */
    /** Reads see other sessions' uncommitted writes. */
    TxnDirtyRead = 60,
    /**
     * In-transaction reads track latest-committed state instead of the
     * BEGIN snapshot (read committed where snapshot was claimed).
     */
    TxnNonRepeatableRead = 61,
    /**
     * Only *predicated* reads (WHERE present) rescan latest-committed
     * state inside a transaction — the index-rescan phantom: full
     * scans honour the snapshot, filtered scans leak new rows.
     */
    TxnPhantomClaimedSnapshot = 62,
    /**
     * COMMIT publishes the session's private version of the database
     * wholesale instead of replaying its writes onto the latest
     * committed state — concurrent committers' rows are clobbered.
     */
    TxnLostUpdate = 63,
};

/** Where a fault lives and which oracles can see it. */
enum class FaultFamily
{
    /** The optimizing planner: NoREC and TLP both see it. */
    Planner,
    /** The evaluator or executor, visible to some oracle alone. */
    Evaluator,
    /**
     * Invisible to both shipped oracles on its own by design;
     * REPLACE_NUMERIC_SUBJECT shows only beside NEG_CONTEXT_MIXED_EQ.
     */
    Latent,
    /** Multi-session transactions: only ISO sees it. */
    Isolation,
};

/** One row of the fault table. */
struct FaultInfo
{
    FaultId value;
    /** Short stable name (e.g. "ON_TO_WHERE_RIGHT_JOIN"). */
    const char *name;
    /** One-line human description. */
    const char *description;
    FaultFamily family;
};

/** The fault table: every FaultId, in ascending value order. */
std::span<const FaultInfo> faultTable();

/** Short stable name of a fault (e.g. "ON_TO_WHERE_RIGHT_JOIN"). */
const char *faultName(FaultId id);

/** One-line human description. */
const char *faultDescription(FaultId id);

/**
 * An enabled subset of faults, owned by a Database configuration: one
 * bit per FaultId value (the fault table keeps every value below 64).
 */
class FaultSet
{
  public:
    FaultSet() = default;
    explicit FaultSet(std::initializer_list<FaultId> ids)
    {
        for (FaultId id : ids)
            enable(id);
    }

    void enable(FaultId id) { mask_ |= bit(id); }
    void disable(FaultId id) { mask_ &= ~bit(id); }
    bool isEnabled(FaultId id) const { return (mask_ & bit(id)) != 0; }
    bool empty() const { return mask_ == 0; }
    size_t size() const { return static_cast<size_t>(std::popcount(mask_)); }

    /** The enabled ids in ascending order. */
    std::vector<FaultId> ids() const;

  private:
    static uint64_t bit(FaultId id)
    {
        return uint64_t{1} << static_cast<uint32_t>(id);
    }

    uint64_t mask_ = 0;
};

} // namespace sqlpp

#endif // SQLPP_ENGINE_FAULTS_H
