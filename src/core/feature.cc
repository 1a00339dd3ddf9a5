#include "core/feature.h"

#include <cassert>

#include "engine/functions.h"

namespace sqlpp {

FeatureRegistry::FeatureRegistry()
{
    features::registerAll(*this);
}

FeatureId
FeatureRegistry::intern(const std::string &name, FeatureKind kind)
{
    auto it = by_name_.find(name);
    if (it != by_name_.end())
        return it->second;
    FeatureId id = static_cast<FeatureId>(names_.size());
    names_.push_back(name);
    kinds_.push_back(kind);
    by_name_.emplace(name, id);
    return id;
}

FeatureId
FeatureRegistry::find(const std::string &name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? static_cast<FeatureId>(-1) : it->second;
}

const std::string &
FeatureRegistry::name(FeatureId id) const
{
    assert(id < names_.size());
    return names_[id];
}

FeatureKind
FeatureRegistry::kind(FeatureId id) const
{
    assert(id < kinds_.size());
    return kinds_[id];
}

std::vector<FeatureId>
FeatureRegistry::ofKind(FeatureKind kind) const
{
    std::vector<FeatureId> out;
    for (FeatureId id = 0; id < kinds_.size(); ++id) {
        if (kinds_[id] == kind)
            out.push_back(id);
    }
    return out;
}

std::string
FeatureRegistry::describe(const FeatureSet &set) const
{
    std::string out = "{";
    for (FeatureId id : set) {
        if (out.size() > 1)
            out += ", ";
        out += name(id);
    }
    out += '}';
    return out;
}

namespace features {

std::string
stmt(StmtKind kind)
{
    return stmtKindInfo(kind).feature;
}

std::string
join(JoinType type)
{
    return joinTypeInfo(type).feature;
}

std::string
binaryOp(BinaryOp op)
{
    return std::string("OP_") + binaryOpSymbol(op);
}

std::string
unaryOp(UnaryOp op)
{
    return unaryOpInfo(op).feature;
}

std::string
function(const std::string &upper_name)
{
    return "FN_" + upper_name;
}

std::string
functionArg(const std::string &upper_name, size_t arg_index, DataType type)
{
    // Paper Fig. 5 naming: SIN1INT = first argument of SIN is integer.
    return upper_name + std::to_string(arg_index + 1) +
           dataTypeInfo(type).argTag;
}

std::string
oracle(const std::string &oracle_name)
{
    return "ORACLE_" + oracle_name;
}

std::string
dataType(DataType type)
{
    return dataTypeInfo(type).feature;
}

void
registerAll(FeatureRegistry &registry)
{
    // Statements: the six generated kinds, CreateTable..Select. Drops
    // and transaction control are platform plumbing, not features.
    for (const EnumInfo<StmtKind> &row : stmtKindTable().first(
             static_cast<size_t>(StmtKind::Select) + 1)) {
        registry.intern(row.feature, FeatureKind::Statement);
    }
    // Clauses & keywords.
    for (const EnumInfo<JoinType> &row : joinTypeTable())
        registry.intern(row.feature, FeatureKind::Clause);
    for (const char *name :
         {kDistinct, kGroupBy, kHaving, kOrderBy, kLimit, kOffset,
          kSubqueryExpr, kSubqueryFrom, kPartialIndex, kUniqueIndex,
          kIfNotExists, kOrIgnore, kMultiRowInsert, kPrimaryKey,
          kNotNull, kUniqueColumn, kViewColumnList}) {
        registry.intern(name, FeatureKind::Clause);
    }
    // Operators.
    for (const BinaryOpInfo &row : binaryOpTable())
        registry.intern(binaryOp(row.value), FeatureKind::Operator);
    for (const EnumInfo<UnaryOp> &row : unaryOpTable())
        registry.intern(row.feature, FeatureKind::Operator);
    // Expression constructs counted as operators in Table 1.
    for (const char *name :
         {"OP_CASE_SIMPLE", "OP_CASE_SEARCHED", "OP_BETWEEN",
          "OP_NOT_BETWEEN", "OP_IN_LIST", "OP_NOT_IN_LIST",
          "OP_IN_SUBQUERY", "OP_NOT_IN_SUBQUERY", "OP_EXISTS",
          "OP_NOT_EXISTS", "OP_CAST"}) {
        registry.intern(name, FeatureKind::Operator);
    }
    // Functions.
    for (const std::string &fn : FunctionRegistry::instance().names())
        registry.intern(function(fn), FeatureKind::Function);
    // Data types.
    for (const DataTypeInfo &row : dataTypeTable())
        registry.intern(row.feature, FeatureKind::DataType);
    // Abstract properties.
    registry.intern(kUntypedExpr, FeatureKind::Property);
}

} // namespace features

} // namespace sqlpp
