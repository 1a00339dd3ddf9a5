#include "sqlir/ast.h"

namespace sqlpp {

namespace {

constexpr BinaryOpInfo kBinaryOps[] = {
    {BinaryOp::Add, "+", binding::Additive},
    {BinaryOp::Sub, "-", binding::Additive},
    {BinaryOp::Mul, "*", binding::Multiplicative},
    {BinaryOp::Div, "/", binding::Multiplicative},
    {BinaryOp::Mod, "%", binding::Multiplicative},
    {BinaryOp::Eq, "=", binding::Comparison},
    {BinaryOp::NotEq, "<>", binding::Comparison},
    {BinaryOp::NotEqBang, "!=", binding::Comparison},
    {BinaryOp::Less, "<", binding::Comparison},
    {BinaryOp::LessEq, "<=", binding::Comparison},
    {BinaryOp::Greater, ">", binding::Comparison},
    {BinaryOp::GreaterEq, ">=", binding::Comparison},
    {BinaryOp::NullSafeEq, "<=>", binding::Comparison},
    {BinaryOp::And, "AND", binding::And},
    {BinaryOp::Or, "OR", binding::Or},
    {BinaryOp::BitAnd, "&", binding::BitAnd},
    {BinaryOp::BitOr, "|", binding::BitOr},
    {BinaryOp::BitXor, "^", binding::BitOr},
    {BinaryOp::ShiftLeft, "<<", binding::Shift},
    {BinaryOp::ShiftRight, ">>", binding::Shift},
    {BinaryOp::Concat, "||", binding::Concat},
    {BinaryOp::Like, "LIKE", binding::Comparison},
    {BinaryOp::NotLike, "NOT LIKE", binding::Comparison},
    {BinaryOp::Glob, "GLOB", binding::Comparison},
    {BinaryOp::IsDistinctFrom, "IS DISTINCT FROM", binding::Comparison},
    {BinaryOp::IsNotDistinctFrom, "IS NOT DISTINCT FROM",
     binding::Comparison},
};

static_assert(inEnumOrder(kBinaryOps, BinaryOp::IsNotDistinctFrom),
              "kBinaryOps must list BinaryOp in enum order");

constexpr EnumInfo<UnaryOp> kUnaryOps[] = {
    {UnaryOp::Neg, "-", "OP_UNARY_MINUS"},
    {UnaryOp::Plus, "+", "OP_UNARY_PLUS"},
    {UnaryOp::BitNot, "~", "OP_~"},
    {UnaryOp::Not, "NOT", "OP_NOT"},
    {UnaryOp::IsNull, "IS NULL", "OP_IS_NULL"},
    {UnaryOp::IsNotNull, "IS NOT NULL", "OP_IS_NOT_NULL"},
    {UnaryOp::IsTrue, "IS TRUE", "OP_IS_TRUE"},
    {UnaryOp::IsFalse, "IS FALSE", "OP_IS_FALSE"},
    {UnaryOp::IsNotTrue, "IS NOT TRUE", "OP_IS_NOT_TRUE"},
    {UnaryOp::IsNotFalse, "IS NOT FALSE", "OP_IS_NOT_FALSE"},
};
static_assert(inEnumOrder(kUnaryOps, UnaryOp::IsNotFalse),
              "kUnaryOps must list UnaryOp in enum order");

constexpr EnumInfo<StmtKind> kStmtKinds[] = {
    {StmtKind::CreateTable, "CREATE TABLE", "STMT_CREATE_TABLE"},
    {StmtKind::CreateIndex, "CREATE INDEX", "STMT_CREATE_INDEX"},
    {StmtKind::CreateView, "CREATE VIEW", "STMT_CREATE_VIEW"},
    {StmtKind::Insert, "INSERT", "STMT_INSERT"},
    {StmtKind::Analyze, "ANALYZE", "STMT_ANALYZE"},
    {StmtKind::Select, "SELECT", "STMT_SELECT"},
    {StmtKind::DropTable, "DROP TABLE", "STMT_DROP_TABLE"},
    {StmtKind::DropView, "DROP VIEW", "STMT_DROP_VIEW"},
    {StmtKind::DropIndex, "DROP INDEX", "STMT_DROP_INDEX"},
    {StmtKind::Begin, "BEGIN", "STMT_BEGIN"},
    {StmtKind::Commit, "COMMIT", "STMT_COMMIT"},
    {StmtKind::Rollback, "ROLLBACK", "STMT_ROLLBACK"},
    {StmtKind::Savepoint, "SAVEPOINT", "STMT_SAVEPOINT"},
    {StmtKind::RollbackTo, "ROLLBACK TO", "STMT_ROLLBACK_TO"},
    {StmtKind::Release, "RELEASE", "STMT_RELEASE"},
};
static_assert(inEnumOrder(kStmtKinds, StmtKind::Release),
              "kStmtKinds must list StmtKind in enum order");

constexpr EnumInfo<JoinType> kJoinTypes[] = {
    {JoinType::Inner, "INNER JOIN", "JOIN_INNER"},
    {JoinType::Left, "LEFT JOIN", "JOIN_LEFT"},
    {JoinType::Right, "RIGHT JOIN", "JOIN_RIGHT"},
    {JoinType::Full, "FULL JOIN", "JOIN_FULL"},
    {JoinType::Cross, "CROSS JOIN", "JOIN_CROSS"},
    {JoinType::Natural, "NATURAL JOIN", "JOIN_NATURAL"},
};
static_assert(inEnumOrder(kJoinTypes, JoinType::Natural),
              "kJoinTypes must list JoinType in enum order");

} // namespace

std::span<const BinaryOpInfo>
binaryOpTable()
{
    return kBinaryOps;
}

const char *
binaryOpSymbol(BinaryOp op)
{
    return kBinaryOps[static_cast<size_t>(op)].symbol;
}

std::span<const EnumInfo<UnaryOp>>
unaryOpTable()
{
    return kUnaryOps;
}

const EnumInfo<UnaryOp> &
unaryOpInfo(UnaryOp op)
{
    return kUnaryOps[static_cast<size_t>(op)];
}

std::span<const EnumInfo<StmtKind>>
stmtKindTable()
{
    return kStmtKinds;
}

const EnumInfo<StmtKind> &
stmtKindInfo(StmtKind kind)
{
    return kStmtKinds[static_cast<size_t>(kind)];
}

std::span<const EnumInfo<JoinType>>
joinTypeTable()
{
    return kJoinTypes;
}

const EnumInfo<JoinType> &
joinTypeInfo(JoinType type)
{
    return kJoinTypes[static_cast<size_t>(type)];
}

bool
isComparisonOp(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Eq:
      case BinaryOp::NotEq:
      case BinaryOp::NotEqBang:
      case BinaryOp::Less:
      case BinaryOp::LessEq:
      case BinaryOp::Greater:
      case BinaryOp::GreaterEq:
      case BinaryOp::NullSafeEq:
      case BinaryOp::IsDistinctFrom:
      case BinaryOp::IsNotDistinctFrom:
        return true;
      default:
        return false;
    }
}

bool
isLogicalOp(BinaryOp op)
{
    return op == BinaryOp::And || op == BinaryOp::Or;
}

const char *
joinTypeName(JoinType type)
{
    return joinTypeInfo(type).sql;
}

ExprPtr
InListExpr::clone() const
{
    std::vector<ExprPtr> cloned;
    cloned.reserve(items.size());
    for (const ExprPtr &item : items)
        cloned.push_back(item->clone());
    return std::make_unique<InListExpr>(operand->clone(), std::move(cloned),
                                        negated);
}

std::vector<const Expr *>
InListExpr::children() const
{
    std::vector<const Expr *> out{operand.get()};
    for (const ExprPtr &item : items)
        out.push_back(item.get());
    return out;
}

ExprPtr
CaseExpr::clone() const
{
    std::vector<Arm> cloned_arms;
    cloned_arms.reserve(arms.size());
    for (const Arm &arm : arms)
        cloned_arms.push_back(Arm{arm.when->clone(), arm.then->clone()});
    return std::make_unique<CaseExpr>(
        operand ? operand->clone() : nullptr, std::move(cloned_arms),
        elseExpr ? elseExpr->clone() : nullptr);
}

std::vector<const Expr *>
CaseExpr::children() const
{
    std::vector<const Expr *> out;
    if (operand)
        out.push_back(operand.get());
    for (const Arm &arm : arms) {
        out.push_back(arm.when.get());
        out.push_back(arm.then.get());
    }
    if (elseExpr)
        out.push_back(elseExpr.get());
    return out;
}

ExprPtr
FunctionExpr::clone() const
{
    std::vector<ExprPtr> cloned;
    cloned.reserve(args.size());
    for (const ExprPtr &arg : args)
        cloned.push_back(arg->clone());
    return std::make_unique<FunctionExpr>(name, std::move(cloned), star,
                                          distinct);
}

std::vector<const Expr *>
FunctionExpr::children() const
{
    std::vector<const Expr *> out;
    for (const ExprPtr &arg : args)
        out.push_back(arg.get());
    return out;
}

ExistsExpr::ExistsExpr(SelectPtr subquery, bool negated)
    : Expr(ExprKind::Exists), subquery(std::move(subquery)), negated(negated)
{
}

ExistsExpr::~ExistsExpr() = default;

ExprPtr
ExistsExpr::clone() const
{
    return std::make_unique<ExistsExpr>(subquery->cloneSelect(), negated);
}

InSubqueryExpr::InSubqueryExpr(ExprPtr operand, SelectPtr subquery,
                               bool negated)
    : Expr(ExprKind::InSubquery), operand(std::move(operand)),
      subquery(std::move(subquery)), negated(negated)
{
}

InSubqueryExpr::~InSubqueryExpr() = default;

ExprPtr
InSubqueryExpr::clone() const
{
    return std::make_unique<InSubqueryExpr>(
        operand->clone(), subquery->cloneSelect(), negated);
}

ScalarSubqueryExpr::ScalarSubqueryExpr(SelectPtr subquery)
    : Expr(ExprKind::ScalarSubquery), subquery(std::move(subquery))
{
}

ScalarSubqueryExpr::~ScalarSubqueryExpr() = default;

ExprPtr
ScalarSubqueryExpr::clone() const
{
    return std::make_unique<ScalarSubqueryExpr>(subquery->cloneSelect());
}

CreateViewStmt::CreateViewStmt() : Stmt(StmtKind::CreateView)
{
}

CreateViewStmt::CreateViewStmt(const CreateViewStmt &other)
    : Stmt(StmtKind::CreateView), name(other.name),
      columnNames(other.columnNames),
      select(other.select ? other.select->cloneSelect() : nullptr)
{
}

CreateViewStmt::~CreateViewStmt() = default;

InsertStmt::InsertStmt(const InsertStmt &other)
    : Stmt(StmtKind::Insert), table(other.table), columns(other.columns),
      orIgnore(other.orIgnore)
{
    rows.reserve(other.rows.size());
    for (const auto &row : other.rows) {
        std::vector<ExprPtr> cloned;
        cloned.reserve(row.size());
        for (const ExprPtr &expr : row)
            cloned.push_back(expr->clone());
        rows.push_back(std::move(cloned));
    }
}

TableRef::TableRef(const TableRef &other)
    : name(other.name), alias(other.alias),
      subquery(other.subquery ? other.subquery->cloneSelect() : nullptr)
{
}

TableRef &
TableRef::operator=(const TableRef &other)
{
    if (this != &other) {
        name = other.name;
        alias = other.alias;
        subquery = other.subquery ? other.subquery->cloneSelect() : nullptr;
    }
    return *this;
}

TableRef::~TableRef() = default;

SelectStmt::SelectStmt(const SelectStmt &other)
    : Stmt(StmtKind::Select), distinct(other.distinct), items(other.items),
      from(other.from), joins(other.joins),
      where(other.where ? other.where->clone() : nullptr),
      having(other.having ? other.having->clone() : nullptr),
      orderBy(other.orderBy), limit(other.limit), offset(other.offset)
{
    groupBy.reserve(other.groupBy.size());
    for (const ExprPtr &expr : other.groupBy)
        groupBy.push_back(expr->clone());
}

void
forEachExprNode(const Expr &root,
                const std::function<void(const Expr &)> &fn)
{
    fn(root);
    for (const Expr *child : root.children())
        forEachExprNode(*child, fn);
}

} // namespace sqlpp
