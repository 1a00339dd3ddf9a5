#include "core/baseline.h"

#include <cctype>
#include <cstring>

#include "engine/eval.h"
#include "engine/functions.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

/** Parse a composite typed-argument feature like "SIN1INT". */
bool
parseCompositeArg(const std::string &name, std::string &fn_name,
                  size_t &arg_index, DataType &type)
{
    std::string suffix;
    for (const DataTypeInfo &row : dataTypeTable()) {
        size_t tag = std::strlen(row.argTag);
        if (name.size() > tag &&
            name.compare(name.size() - tag, tag, row.argTag) == 0) {
            type = row.value;
            suffix = name.substr(0, name.size() - tag);
            break;
        }
    }
    if (suffix.empty() ||
        !std::isdigit(static_cast<unsigned char>(suffix.back()))) {
        return false;
    }
    arg_index =
        static_cast<size_t>(suffix.back() - '0') - 1; // 1-based tag
    fn_name = suffix.substr(0, suffix.size() - 1);
    return !fn_name.empty() &&
           FunctionRegistry::instance().find(fn_name) != nullptr;
}

bool
typeMatchesSpec(DataType type, TypeSpec spec)
{
    switch (spec) {
      case TypeSpec::Any: return true;
      case TypeSpec::Int: return type == DataType::Int;
      case TypeSpec::Text: return type == DataType::Text;
      case TypeSpec::Bool: return type == DataType::Bool;
    }
    return true;
}

} // namespace

bool
ProfileGate::allowName(const std::string &name) const
{
    // Statements.
    if (startsWith(name, "STMT_")) {
        for (const EnumInfo<StmtKind> &row : stmtKindTable()) {
            if (!isTxnStmtKind(row.value) && name == row.feature)
                return profile_.supportsStatement(row.value);
        }
        return false;
    }
    // Joins.
    if (startsWith(name, "JOIN_")) {
        for (const EnumInfo<JoinType> &row : joinTypeTable()) {
            if (name == row.feature)
                return profile_.supportsJoin(row.value);
        }
        return false;
    }
    // Clauses & keywords.
    const ClauseSupport &clauses = profile_.clauses;
    if (name == features::kDistinct) return clauses.distinct;
    if (name == features::kGroupBy) return clauses.groupBy;
    if (name == features::kHaving) return clauses.having;
    if (name == features::kOrderBy) return clauses.orderBy;
    if (name == features::kLimit) return clauses.limit;
    if (name == features::kOffset) return clauses.offset;
    if (name == features::kWhere) return true;
    if (name == features::kSubqueryExpr) return clauses.subqueryInExpr;
    if (name == features::kSubqueryFrom) return clauses.subqueryInFrom;
    if (name == features::kPartialIndex) return clauses.partialIndex;
    if (name == features::kUniqueIndex) return clauses.uniqueIndex;
    if (name == features::kIfNotExists) return clauses.ifNotExists;
    if (name == features::kOrIgnore) return clauses.insertOrIgnore;
    if (name == features::kMultiRowInsert) return clauses.multiRowInsert;
    if (name == features::kPrimaryKey) return clauses.primaryKey;
    if (name == features::kNotNull) return clauses.notNull;
    if (name == features::kUniqueColumn) return clauses.uniqueColumn;
    if (name == features::kViewColumnList) return clauses.viewColumnList;
    // Abstract properties.
    if (name == features::kUntypedExpr)
        return !profile_.behavior.staticTyping;
    // Operators.
    if (startsWith(name, "OP_")) {
        for (const BinaryOpInfo &row : binaryOpTable()) {
            if (features::binaryOp(row.value) == name)
                return profile_.supportsBinaryOp(row.value);
        }
        for (const EnumInfo<UnaryOp> &row : unaryOpTable()) {
            if (name == row.feature)
                return profile_.supportsUnaryOp(row.value);
        }
        if (name == "OP_EXISTS" || name == "OP_NOT_EXISTS" ||
            name == "OP_IN_SUBQUERY" || name == "OP_NOT_IN_SUBQUERY") {
            return profile_.clauses.subqueryInExpr;
        }
        // CASE/BETWEEN/IN-list/CAST: universal engine constructs.
        return true;
    }
    // Functions.
    if (startsWith(name, "FN_"))
        return profile_.supportsFunction(name.substr(3));
    // Data types.
    for (const DataTypeInfo &row : dataTypeTable()) {
        if (name == row.feature)
            return profile_.supportsType(row.value);
    }
    // Composite typed-argument features: the baseline knows the exact
    // signatures, so a mismatching argument type is only allowed on
    // dynamically-typed dialects.
    {
        std::string fn_name;
        size_t arg_index = 0;
        DataType type = DataType::Int;
        if (parseCompositeArg(name, fn_name, arg_index, type)) {
            if (!profile_.supportsFunction(fn_name))
                return false;
            if (!profile_.supportsType(type))
                return false;
            if (!profile_.behavior.staticTyping)
                return true;
            const FunctionImpl *impl =
                FunctionRegistry::instance().find(fn_name);
            if (impl == nullptr)
                return false;
            size_t spec_index =
                impl->sig.args.empty()
                    ? 0
                    : std::min(arg_index, impl->sig.args.size() - 1);
            TypeSpec spec = impl->sig.args.empty()
                                ? TypeSpec::Any
                                : impl->sig.args[spec_index];
            return typeMatchesSpec(type, spec);
        }
    }
    return true;
}

bool
ProfileGate::allow(FeatureId id) const
{
    return allowName(registry_.name(id));
}

} // namespace sqlpp
