#include "util/status.h"

#include "util/enum_table.h"

namespace sqlpp {

namespace {

constexpr EnumName<ErrorCode> kErrorCodeNames[] = {
    {ErrorCode::Ok, "OK"},
    {ErrorCode::SyntaxError, "SYNTAX_ERROR"},
    {ErrorCode::SemanticError, "SEMANTIC_ERROR"},
    {ErrorCode::RuntimeError, "RUNTIME_ERROR"},
    {ErrorCode::Unsupported, "UNSUPPORTED"},
    {ErrorCode::Internal, "INTERNAL"},
    {ErrorCode::BudgetExhausted, "BUDGET_EXHAUSTED"},
};
static_assert(inEnumOrder(kErrorCodeNames, ErrorCode::BudgetExhausted),
              "kErrorCodeNames must list ErrorCode in enum order");

} // namespace

const char *
errorCodeName(ErrorCode code)
{
    return enumRow(kErrorCodeNames, code)->name;
}

std::string
Status::toString() const
{
    if (isOk())
        return "OK";
    std::string out = errorCodeName(code_);
    out += ": ";
    out += message_;
    return out;
}

} // namespace sqlpp
