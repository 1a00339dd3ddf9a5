/**
 * @file
 * The built-in dialect profiles.
 *
 * Every profile is derived from a fully-featured base by removing
 * capabilities and adding quirks and ground-truth faults. The matrices
 * are modelled on the real systems' public documentation where the
 * paper mentions a concrete fact (CrateDB lacks CREATE INDEX and needs
 * REFRESH; MySQL has <=> but no FULL JOIN or ||; SQLite is dynamically
 * typed with GLOB; Virtuoso's dialect diverges hardest — the paper
 * reports only 4% of foreign test cases run on it) and otherwise chosen
 * to produce a *diverse* matrix, which is the property the paper's
 * experiments actually exercise.
 *
 * Fault assignments are fixed (not seeded) so every experiment is
 * reproducible; counts are proportioned like Table 2 (Umbra and
 * CrateDB-like systems carry many bugs, MySQL-like few).
 */
#include "dialect/profile.h"

#include <algorithm>

namespace sqlpp {

namespace {

void
addFunctions(DialectProfile &profile,
             std::initializer_list<const char *> names)
{
    for (const char *name : names)
        profile.functions.insert(name);
}

void
removeFunctions(DialectProfile &profile,
                std::initializer_list<const char *> names)
{
    for (const char *name : names)
        profile.functions.erase(name);
}

/** Function groups of the registry's 58 functions. */
constexpr std::initializer_list<const char *> kMathBasic = {
    "ABS", "SIGN", "MOD", "POWER", "SQRT", "FLOOR", "CEIL", "ROUND"};
constexpr std::initializer_list<const char *> kTrig = {
    "SIN", "COS", "TAN", "ASIN", "ACOS", "ATAN", "ATAN2",
    "PI", "DEGREES", "RADIANS"};
constexpr std::initializer_list<const char *> kLogExp = {
    "EXP", "LN", "LOG10", "LOG2"};
constexpr std::initializer_list<const char *> kStringBasic = {
    "LENGTH", "LOWER", "UPPER", "TRIM", "LTRIM", "RTRIM",
    "SUBSTR", "INSTR", "REPLACE", "CONCAT"};
constexpr std::initializer_list<const char *> kStringExt = {
    "CONCAT_WS", "REVERSE", "REPEAT", "LEFT", "RIGHT", "ASCII",
    "CHR", "HEX", "QUOTE", "SPACE", "LPAD", "RPAD", "STARTS_WITH"};
constexpr std::initializer_list<const char *> kConditional = {
    "NULLIF", "COALESCE", "IFNULL", "NVL", "IIF", "GREATEST",
    "LEAST", "TYPEOF"};
constexpr std::initializer_list<const char *> kAggregates = {
    "COUNT", "SUM", "AVG", "MIN", "MAX"};

/** A dialect that understands everything the engine implements. */
DialectProfile
fullBase(const std::string &name)
{
    DialectProfile profile;
    profile.name = name;
    for (const EnumInfo<StmtKind> &row : stmtKindTable()) {
        if (!isTxnStmtKind(row.value))
            profile.statements.insert(row.value);
    }
    for (const EnumInfo<JoinType> &row : joinTypeTable())
        profile.joins.insert(row.value);
    for (const BinaryOpInfo &row : binaryOpTable())
        profile.binaryOps.insert(row.value);
    for (const EnumInfo<UnaryOp> &row : unaryOpTable())
        profile.unaryOps.insert(row.value);
    addFunctions(profile, kMathBasic);
    addFunctions(profile, kTrig);
    addFunctions(profile, kLogExp);
    addFunctions(profile, kStringBasic);
    addFunctions(profile, kStringExt);
    addFunctions(profile, kConditional);
    addFunctions(profile, kAggregates);
    for (const DataTypeInfo &row : dataTypeTable())
        profile.dataTypes.insert(row.value);
    return profile;
}

/** MySQL-family baseline: dynamic typing, <=>, no ||/GLOB/FULL JOIN. */
DialectProfile
mysqlFamily(const std::string &name)
{
    DialectProfile profile = fullBase(name);
    profile.behavior.staticTyping = false;
    profile.behavior.divZeroIsNull = true;
    profile.behavior.caseInsensitiveLike = true;
    profile.joins.erase(JoinType::Full);
    profile.binaryOps.erase(BinaryOp::Concat);
    profile.binaryOps.erase(BinaryOp::Glob);
    profile.binaryOps.erase(BinaryOp::IsDistinctFrom);
    profile.binaryOps.erase(BinaryOp::IsNotDistinctFrom);
    profile.clauses.partialIndex = false;
    removeFunctions(profile, {"TYPEOF", "IIF", "STARTS_WITH"});
    return profile;
}

/** PostgreSQL-family baseline: static typing, strict errors. */
DialectProfile
postgresFamily(const std::string &name)
{
    DialectProfile profile = fullBase(name);
    profile.behavior.staticTyping = true;
    profile.behavior.divZeroIsNull = false;
    profile.behavior.domainErrorIsNull = false;
    profile.behavior.caseInsensitiveLike = false;
    profile.binaryOps.erase(BinaryOp::NullSafeEq);
    profile.binaryOps.erase(BinaryOp::Glob);
    profile.binaryOps.erase(BinaryOp::NotEqBang); // spelled <> only? no:
    profile.binaryOps.insert(BinaryOp::NotEqBang); // pg accepts both
    profile.clauses.insertOrIgnore = false;
    removeFunctions(profile, {"IFNULL", "TYPEOF", "IIF", "INSTR"});
    return profile;
}

std::vector<DialectProfile>
buildProfiles()
{
    std::vector<DialectProfile> profiles;

    // ------------------------------------------------------------ //
    // cedardb-like: Umbra-derived start-up system; strict, modern.
    {
        DialectProfile p = postgresFamily("cedardb-like");
        removeFunctions(p, {"NVL", "RADIANS"});
        p.faults.enable(FaultId::OnToWhereRightJoin);
        p.faults.enable(FaultId::ConstFoldNullifIdentity);
        profiles.push_back(std::move(p));
    }
    // cratedb-like: PostgreSQL-compatible distributed store. No
    // CREATE INDEX (paper Section 4), REFRESH needed after INSERT
    // (paper Section 6), and the campaign's richest fault load
    // (Table 5 is measured on it).
    {
        DialectProfile p = postgresFamily("cratedb-like");
        p.statements.erase(StmtKind::CreateIndex);
        p.statements.erase(StmtKind::DropIndex);
        p.requiresRefreshAfterInsert = true;
        p.clauses.partialIndex = false;
        // Eventually-consistent distributed store: no interactive
        // transactions (BEGIN is rejected, like CrateDB).
        p.clauses.transactions = false;
        removeFunctions(p, {"REVERSE", "CHR", "SPACE"});
        p.faults.enable(FaultId::WhereNullAsTrue);
        p.faults.enable(FaultId::NotNullTrue);
        p.faults.enable(FaultId::IsNullFalseForBoolNull);
        p.faults.enable(FaultId::PushdownThroughOuterJoin);
        p.faults.enable(FaultId::HashJoinNullMatch);
        p.faults.enable(FaultId::ConstFoldNullifIdentity);
        p.faults.enable(FaultId::DistinctNullCollapse);
        p.faults.enable(FaultId::NegContextMixedEq);
        p.faults.enable(FaultId::IsTrueFalseTrue);
        p.faults.enable(FaultId::GroupByNullSeparate);
        profiles.push_back(std::move(p));
    }
    // cubrid-like: legacy system, reduced feature set, no booleans.
    {
        DialectProfile p = postgresFamily("cubrid-like");
        p.dataTypes.erase(DataType::Bool);
        p.joins.erase(JoinType::Full);
        p.joins.erase(JoinType::Natural);
        p.clauses.offset = false;
        p.unaryOps.erase(UnaryOp::IsTrue);
        p.unaryOps.erase(UnaryOp::IsFalse);
        p.unaryOps.erase(UnaryOp::IsNotTrue);
        p.unaryOps.erase(UnaryOp::IsNotFalse);
        removeFunctions(p, {"LOG2", "ATAN2", "CONCAT_WS", "LPAD",
                            "RPAD", "HEX"});
        p.faults.enable(FaultId::NotNullTrue);
        profiles.push_back(std::move(p));
    }
    // dolt-like: MySQL-compatible versioned database.
    {
        DialectProfile p = mysqlFamily("dolt-like");
        removeFunctions(p, {"HEX", "QUOTE"});
        p.faults.enable(FaultId::IndexRangeGtIncludesEqual);
        p.faults.enable(FaultId::IndexSkipsNull);
        p.faults.enable(FaultId::NotNullTrue);
        p.faults.enable(FaultId::NegContextMixedEq);
        p.faults.enable(FaultId::LikeUnderscoreLiteral);
        p.faults.enable(FaultId::GroupByNullSeparate);
        // Isolation fault: uncommitted writes of concurrent sessions
        // are visible to every read (dirty read).
        p.faults.enable(FaultId::TxnDirtyRead);
        profiles.push_back(std::move(p));
    }
    // duckdb-like: analytics engine, strict typing, friendly dialect.
    {
        DialectProfile p = postgresFamily("duckdb-like");
        p.behavior.divZeroIsNull = true; // DuckDB yields NULL (pre-1.0)
        p.binaryOps.insert(BinaryOp::Glob);
        addFunctions(p, {"IFNULL", "TYPEOF", "INSTR"});
        p.faults.enable(FaultId::ConstFoldNullifIdentity);
        p.faults.enable(FaultId::HashJoinNullMatch);
        p.faults.enable(FaultId::IsNullFalseForBoolNull);
        profiles.push_back(std::move(p));
    }
    // firebird-like: classic strict system, no NATURAL JOIN.
    {
        DialectProfile p = postgresFamily("firebird-like");
        p.joins.erase(JoinType::Natural);
        p.statements.erase(StmtKind::Analyze);
        p.clauses.partialIndex = false;
        p.clauses.multiRowInsert = false;
        removeFunctions(p, {"CONCAT_WS", "REPEAT", "STARTS_WITH",
                            "LOG2", "QUOTE"});
        p.faults.enable(FaultId::IndexRangeLtIncludesEqual);
        p.faults.enable(FaultId::WhereNullAsTrue);
        p.faults.enable(FaultId::PushdownThroughOuterJoin);
        p.faults.enable(FaultId::SumEmptyZero);
        profiles.push_back(std::move(p));
    }
    // h2-like: embedded Java SQL engine.
    {
        DialectProfile p = postgresFamily("h2-like");
        addFunctions(p, {"IFNULL", "INSTR"});
        p.faults.enable(FaultId::IsTrueFalseTrue);
        profiles.push_back(std::move(p));
    }
    // mariadb-like.
    {
        DialectProfile p = mysqlFamily("mariadb-like");
        removeFunctions(p, {"ATAN2"});
        p.faults.enable(FaultId::IsNullFalseForBoolNull);
        p.faults.enable(FaultId::GroupByNullSeparate);
        // Isolation fault: commits publish the session's private state
        // wholesale, clobbering concurrent committers (lost update).
        p.faults.enable(FaultId::TxnLostUpdate);
        profiles.push_back(std::move(p));
    }
    // monetdb-like: column store with a strict dialect.
    {
        DialectProfile p = postgresFamily("monetdb-like");
        p.joins.erase(JoinType::Natural);
        p.clauses.partialIndex = false;
        p.clauses.uniqueIndex = false;
        removeFunctions(p, {"GREATEST", "LEAST", "SPACE", "REPEAT"});
        p.faults.enable(FaultId::IndexEqTextCoerce);
        p.faults.enable(FaultId::PushdownThroughOuterJoin);
        p.faults.enable(FaultId::WhereNullAsTrue);
        p.faults.enable(FaultId::DistinctNullCollapse);
        p.faults.enable(FaultId::SumEmptyZero);
        p.faults.enable(FaultId::HashJoinNullMatch);
        // Isolation fault: predicated reads rescan latest-committed
        // state inside a claimed snapshot (phantoms).
        p.faults.enable(FaultId::TxnPhantomClaimedSnapshot);
        profiles.push_back(std::move(p));
    }
    // mysql-like.
    {
        DialectProfile p = mysqlFamily("mysql-like");
        p.faults.enable(FaultId::HashJoinNullMatch);
        p.faults.enable(FaultId::LikeUnderscoreLiteral);
        profiles.push_back(std::move(p));
    }
    // percona-like: MySQL fork.
    {
        DialectProfile p = mysqlFamily("percona-like");
        removeFunctions(p, {"LOG2"});
        p.faults.enable(FaultId::IndexRangeGtIncludesEqual);
        p.faults.enable(FaultId::NullSafeEqBothNullFalse);
        profiles.push_back(std::move(p));
    }
    // risingwave-like: streaming SQL engine; no indexes over streams.
    {
        DialectProfile p = postgresFamily("risingwave-like");
        p.statements.erase(StmtKind::CreateIndex);
        p.statements.erase(StmtKind::DropIndex);
        p.statements.erase(StmtKind::Analyze);
        p.joins.erase(JoinType::Natural);
        // Streaming materialization: no interactive transactions.
        p.clauses.transactions = false;
        removeFunctions(p, {"HEX", "QUOTE", "SPACE"});
        p.faults.enable(FaultId::PushdownThroughOuterJoin);
        p.faults.enable(FaultId::DistinctNullCollapse);
        profiles.push_back(std::move(p));
    }
    // sqlite-like: dynamic typing, GLOB, lax errors; carries the two
    // listing bugs the paper dissects plus one latent fault.
    {
        DialectProfile p = fullBase("sqlite-like");
        p.behavior.staticTyping = false;
        p.behavior.divZeroIsNull = true;
        p.behavior.domainErrorIsNull = true;
        p.behavior.caseInsensitiveLike = true;
        p.binaryOps.erase(BinaryOp::NullSafeEq);
        p.binaryOps.erase(BinaryOp::IsDistinctFrom);
        p.binaryOps.erase(BinaryOp::IsNotDistinctFrom);
        removeFunctions(p, {"CONCAT_WS", "LPAD", "RPAD", "SPACE",
                            "REPEAT", "STARTS_WITH", "CHR",
                            "GREATEST", "LEAST", "NVL"});
        p.faults.enable(FaultId::NegContextMixedEq);      // Listing 3
        p.faults.enable(FaultId::ReplaceNumericSubject);  // Listing 3
        p.faults.enable(FaultId::OnToWhereRightJoin);     // Listing 4
        p.faults.enable(FaultId::SumEmptyZero);           // latent
        profiles.push_back(std::move(p));
    }
    // tidb-like: distributed MySQL-compatible engine.
    {
        DialectProfile p = mysqlFamily("tidb-like");
        removeFunctions(p, {"SPACE", "CHR"});
        p.joins.erase(JoinType::Natural);
        p.faults.enable(FaultId::IndexEqTextCoerce);
        p.faults.enable(FaultId::NegContextMixedEq);
        p.faults.enable(FaultId::HashJoinNullMatch);
        // Isolation fault: in-transaction reads leak concurrently
        // committed rows (read committed under a claimed snapshot).
        p.faults.enable(FaultId::TxnNonRepeatableRead);
        profiles.push_back(std::move(p));
    }
    // umbra-like: research engine; the campaign's largest bug count
    // (Table 2: 47 reports) concentrated in its young optimizer.
    {
        DialectProfile p = postgresFamily("umbra-like");
        removeFunctions(p, {"QUOTE", "HEX", "NVL"});
        p.joins.erase(JoinType::Natural);
        p.faults.enable(FaultId::IndexRangeGtIncludesEqual);
        p.faults.enable(FaultId::IndexRangeLtIncludesEqual);
        p.faults.enable(FaultId::IndexSkipsNull);
        p.faults.enable(FaultId::PartialIndexIgnoresPredicate);
        p.faults.enable(FaultId::OnToWhereRightJoin);
        p.faults.enable(FaultId::NotNullTrue);
        p.faults.enable(FaultId::IsTrueFalseTrue);
        p.faults.enable(FaultId::ConstFoldNullifIdentity);
        profiles.push_back(std::move(p));
    }
    // virtuoso-like: the outlier dialect (SPARQL heritage): tiny
    // overlap with SQL dialects — no views, no booleans, no
    // subqueries, minimal operator and function sets.
    {
        DialectProfile p = fullBase("virtuoso-like");
        p.behavior.staticTyping = true;
        p.behavior.divZeroIsNull = false;
        p.statements.erase(StmtKind::CreateView);
        p.statements.erase(StmtKind::DropView);
        p.statements.erase(StmtKind::Analyze);
        p.dataTypes.erase(DataType::Bool);
        p.joins.erase(JoinType::Right);
        p.joins.erase(JoinType::Full);
        p.joins.erase(JoinType::Natural);
        p.clauses.subqueryInFrom = false;
        p.clauses.subqueryInExpr = false;
        p.clauses.partialIndex = false;
        p.clauses.offset = false;
        p.clauses.insertOrIgnore = false;
        p.clauses.ifNotExists = false;
        p.binaryOps.erase(BinaryOp::NullSafeEq);
        p.binaryOps.erase(BinaryOp::Glob);
        p.binaryOps.erase(BinaryOp::IsDistinctFrom);
        p.binaryOps.erase(BinaryOp::IsNotDistinctFrom);
        p.binaryOps.erase(BinaryOp::ShiftLeft);
        p.binaryOps.erase(BinaryOp::ShiftRight);
        p.binaryOps.erase(BinaryOp::BitXor);
        p.unaryOps.erase(UnaryOp::IsTrue);
        p.unaryOps.erase(UnaryOp::IsFalse);
        p.unaryOps.erase(UnaryOp::IsNotTrue);
        p.unaryOps.erase(UnaryOp::IsNotFalse);
        p.unaryOps.erase(UnaryOp::BitNot);
        p.functions.clear();
        addFunctions(p, {"ABS", "SIGN", "MOD", "LENGTH", "LOWER",
                         "UPPER", "SUBSTR", "COALESCE", "NULLIF",
                         "COUNT", "SUM", "AVG", "MIN", "MAX"});
        p.faults.enable(FaultId::WhereNullAsTrue);
        p.faults.enable(FaultId::IndexRangeGtIncludesEqual);
        p.faults.enable(FaultId::SumEmptyZero);
        profiles.push_back(std::move(p));
    }
    // vitess-like: sharding layer over MySQL.
    {
        DialectProfile p = mysqlFamily("vitess-like");
        removeFunctions(p, {"REPEAT", "REVERSE"});
        p.statements.erase(StmtKind::CreateView);
        p.statements.erase(StmtKind::DropView);
        p.faults.enable(FaultId::NotNullTrue);
        p.faults.enable(FaultId::LikeUnderscoreLiteral);
        profiles.push_back(std::move(p));
    }

    // ------------------------------------------------------------ //
    // postgres-like: fault-free strict reference dialect, used by the
    // validity and coverage experiments (Tables 3 and 4), not by the
    // bug campaign.
    profiles.push_back(postgresFamily("postgres-like"));

    return profiles;
}

} // namespace

const std::vector<DialectProfile> &
allDialectProfiles()
{
    static const std::vector<DialectProfile> profiles = buildProfiles();
    return profiles;
}

std::vector<const DialectProfile *>
campaignDialects()
{
    std::vector<const DialectProfile *> out;
    for (const DialectProfile &profile : allDialectProfiles()) {
        if (profile.name != "postgres-like")
            out.push_back(&profile);
    }
    return out;
}

const DialectProfile *
findDialect(const std::string &name)
{
    for (const DialectProfile &profile : allDialectProfiles()) {
        if (profile.name == name)
            return &profile;
    }
    return nullptr;
}

} // namespace sqlpp
