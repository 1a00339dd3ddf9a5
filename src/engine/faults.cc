#include "engine/faults.h"

#include "util/enum_table.h"

namespace sqlpp {

namespace {

constexpr FaultFamily kPlanner = FaultFamily::Planner;
constexpr FaultFamily kEvaluator = FaultFamily::Evaluator;
constexpr FaultFamily kLatent = FaultFamily::Latent;
constexpr FaultFamily kIsolation = FaultFamily::Isolation;

constexpr FaultInfo kFaults[] = {
    {FaultId::IndexRangeGtIncludesEqual, "INDEX_RANGE_GT_INCLUDES_EQUAL",
     "index range scan for col > k also returns col = k", kPlanner},
    {FaultId::IndexRangeLtIncludesEqual, "INDEX_RANGE_LT_INCLUDES_EQUAL",
     "index range scan for col < k also returns col = k", kPlanner},
    {FaultId::IndexSkipsNull, "INDEX_SKIPS_NULL",
     "IS NULL index probe misses NULL rows", kPlanner},
    {FaultId::IndexEqTextCoerce, "INDEX_EQ_TEXT_COERCE",
     "index equality probe coerces text keys to integers", kPlanner},
    {FaultId::PartialIndexIgnoresPredicate,
     "PARTIAL_INDEX_IGNORES_PREDICATE",
     "partial index chosen without predicate implication check", kPlanner},
    {FaultId::PushdownThroughOuterJoin, "PUSHDOWN_THROUGH_OUTER_JOIN",
     "WHERE conjunct pushed below an outer join", kPlanner},
    {FaultId::OnToWhereRightJoin, "ON_TO_WHERE_RIGHT_JOIN",
     "RIGHT JOIN ON term moved into the WHERE clause", kPlanner},
    {FaultId::HashJoinNullMatch, "HASH_JOIN_NULL_MATCH",
     "hash join treats NULL join keys as equal", kPlanner},
    {FaultId::ConstFoldNullifIdentity, "CONST_FOLD_NULLIF_IDENTITY",
     "constant folding rewrites NULLIF(x, x) to x", kPlanner},
    {FaultId::ConstFoldTrueAbsorbsAnd, "CONST_FOLD_TRUE_ABSORBS_AND",
     "constant folding absorbs WHERE <x> AND TRUE into TRUE", kPlanner},
    {FaultId::NotNullTrue, "NOT_NULL_TRUE",
     "NOT NULL evaluates to TRUE instead of NULL", kEvaluator},
    {FaultId::IsNullFalseForBoolNull, "IS_NULL_FALSE_FOR_BOOL_NULL",
     "IS NULL returns FALSE for NULL boolean operands", kEvaluator},
    {FaultId::WhereNullAsTrue, "WHERE_NULL_AS_TRUE",
     "WHERE keeps rows whose predicate is NULL", kEvaluator},
    {FaultId::NegContextMixedEq, "NEG_CONTEXT_MIXED_EQ",
     "mixed-type equality flips under enclosing NOT", kEvaluator},
    {FaultId::IsTrueFalseTrue, "IS_TRUE_FALSE_TRUE",
     "FALSE IS TRUE evaluates to TRUE", kEvaluator},
    {FaultId::DistinctNullCollapse, "DISTINCT_NULL_COLLAPSE",
     "DISTINCT collapses distinct rows that contain NULL", kEvaluator},
    {FaultId::ReplaceNumericSubject, "REPLACE_NUMERIC_SUBJECT",
     "REPLACE returns a numeric value for numeric subjects", kLatent},
    {FaultId::DoubleNegNullFalse, "DOUBLE_NEG_NULL_FALSE",
     "root NOT (NOT p) collapses NULL to FALSE", kEvaluator},
    {FaultId::NullSafeEqBothNullFalse, "NULL_SAFE_EQ_BOTH_NULL_FALSE",
     "NULL <=> NULL evaluates to FALSE", kLatent},
    {FaultId::SumEmptyZero, "SUM_EMPTY_ZERO",
     "SUM over the empty set returns 0 instead of NULL", kLatent},
    {FaultId::GroupByNullSeparate, "GROUP_BY_NULL_SEPARATE",
     "GROUP BY separates NULL keys into distinct groups", kLatent},
    {FaultId::LikeUnderscoreLiteral, "LIKE_UNDERSCORE_LITERAL",
     "LIKE treats '_' as a literal character", kLatent},
    {FaultId::TxnDirtyRead, "TXN_DIRTY_READ",
     "reads see other sessions' uncommitted writes", kIsolation},
    {FaultId::TxnNonRepeatableRead, "TXN_NON_REPEATABLE_READ",
     "in-transaction reads follow latest-committed state", kIsolation},
    {FaultId::TxnPhantomClaimedSnapshot, "TXN_PHANTOM_CLAIMED_SNAPSHOT",
     "predicated reads leak committed phantoms into snapshots",
     kIsolation},
    {FaultId::TxnLostUpdate, "TXN_LOST_UPDATE",
     "COMMIT clobbers concurrently committed writes", kIsolation},
};
// FaultSet keeps one bit per value.
static_assert(strictlyIncreasing(kFaults, 64),
              "kFaults must list FaultId in ascending order below 64");

} // namespace

std::span<const FaultInfo>
faultTable()
{
    return kFaults;
}

const char *
faultName(FaultId id)
{
    return enumRow(kFaults, id)->name;
}

const char *
faultDescription(FaultId id)
{
    return enumRow(kFaults, id)->description;
}

std::vector<FaultId>
FaultSet::ids() const
{
    std::vector<FaultId> out;
    for (uint64_t rest = mask_; rest != 0; rest &= rest - 1)
        out.push_back(static_cast<FaultId>(std::countr_zero(rest)));
    return out;
}

} // namespace sqlpp
