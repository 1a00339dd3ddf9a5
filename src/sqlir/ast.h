/**
 * @file
 * Abstract syntax tree for the SQL subset shared by the parser, the
 * engine, and the adaptive generator.
 *
 * The generator builds ASTs and prints them to text; the engine parses
 * text back into ASTs. The two sides never share AST objects — the
 * round trip through text is what makes feature rejection behave like a
 * real DBMS pipeline (a feature can fail at lexing, parsing, type
 * checking, or execution).
 *
 * Every node supports clone(), which the delta-debugging reducer relies
 * on to mutate candidate test cases non-destructively.
 */
#ifndef SQLPP_SQLIR_AST_H
#define SQLPP_SQLIR_AST_H

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/enum_table.h"
#include "sqlir/value.h"

namespace sqlpp {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

class SelectStmt;
using SelectPtr = std::unique_ptr<SelectStmt>;

/** Binary operators (Table 1 "Operator" features). */
enum class BinaryOp
{
    // Arithmetic.
    Add, Sub, Mul, Div, Mod,
    // Comparison.
    Eq, NotEq, NotEqBang, Less, LessEq, Greater, GreaterEq, NullSafeEq,
    // Logical.
    And, Or,
    // Bitwise.
    BitAnd, BitOr, BitXor, ShiftLeft, ShiftRight,
    // String.
    Concat, Like, NotLike, Glob,
    // Membership against a literal value (IS DISTINCT FROM dual).
    IsDistinctFrom, IsNotDistinctFrom,
};

/** Unary operators: the prefix ones, then the postfix IS family. */
enum class UnaryOp
{
    Neg,
    Plus,
    BitNot,
    Not,
    IsNull,
    IsNotNull,
    IsTrue,
    IsFalse,
    IsNotTrue,
    IsNotFalse,
};

/** The unary table: every UnaryOp, in enum order. */
std::span<const EnumInfo<UnaryOp>> unaryOpTable();
const EnumInfo<UnaryOp> &unaryOpInfo(UnaryOp op);

/** Binding levels of the expression grammar, loosest first. */
namespace binding {
enum Level : int
{
    Or = 1,
    And,
    /** Prefix NOT; no binary operator binds here. */
    Not,
    Comparison,
    BitOr,
    BitAnd,
    Shift,
    Additive,
    Multiplicative,
    Concat,
};
} // namespace binding

/** One row of the operator table. */
struct BinaryOpInfo
{
    BinaryOp value;
    /** SQL spelling (e.g. "<=>", "IS NOT DISTINCT FROM"). */
    const char *symbol;
    /** binding::Level; higher binds tighter. */
    int level;
};

/**
 * The operator table: every BinaryOp, in enum order, with its spelling
 * and binding level. LIKE, GLOB, NOT LIKE and IS [NOT] DISTINCT FROM
 * sit at the comparison level but are not comparisons.
 */
std::span<const BinaryOpInfo> binaryOpTable();

/** SQL token text of a binary operator (e.g. "<=>"). */
const char *binaryOpSymbol(BinaryOp op);

/** True for Eq..NullSafeEq. */
bool isComparisonOp(BinaryOp op);

/** True for And/Or. */
bool isLogicalOp(BinaryOp op);

/** AST node kinds for expressions. */
enum class ExprKind
{
    Literal,
    ColumnRef,
    Unary,
    Binary,
    Between,
    InList,
    Case,
    Function,
    Cast,
    Exists,
    InSubquery,
    ScalarSubquery,
};

/**
 * Base class for all expression nodes.
 */
class Expr
{
  public:
    virtual ~Expr() = default;

    ExprKind kind() const { return kind_; }

    /** Deep copy. */
    virtual ExprPtr clone() const = 0;

    /** Direct children, for generic tree walks (reducer, feature scan). */
    virtual std::vector<const Expr *> children() const = 0;

  protected:
    explicit Expr(ExprKind kind) : kind_(kind) {}

  private:
    ExprKind kind_;
};

/** A constant value. */
class LiteralExpr : public Expr
{
  public:
    explicit LiteralExpr(Value value)
        : Expr(ExprKind::Literal), value(std::move(value)) {}

    ExprPtr clone() const override
    {
        return std::make_unique<LiteralExpr>(value);
    }
    std::vector<const Expr *> children() const override { return {}; }

    Value value;
};

/** Reference to a column, optionally qualified by a table alias. */
class ColumnRefExpr : public Expr
{
  public:
    ColumnRefExpr(std::string table, std::string column)
        : Expr(ExprKind::ColumnRef), table(std::move(table)),
          column(std::move(column)) {}

    ExprPtr clone() const override
    {
        return std::make_unique<ColumnRefExpr>(table, column);
    }
    std::vector<const Expr *> children() const override { return {}; }

    /** Empty when unqualified. */
    std::string table;
    std::string column;
};

/** Unary operator application (including IS NULL family postfixes). */
class UnaryExpr : public Expr
{
  public:
    UnaryExpr(UnaryOp op, ExprPtr operand)
        : Expr(ExprKind::Unary), op(op), operand(std::move(operand)) {}

    ExprPtr clone() const override
    {
        return std::make_unique<UnaryExpr>(op, operand->clone());
    }
    std::vector<const Expr *> children() const override
    {
        return {operand.get()};
    }

    UnaryOp op;
    ExprPtr operand;
};

/** Binary operator application. */
class BinaryExpr : public Expr
{
  public:
    BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
        : Expr(ExprKind::Binary), op(op), lhs(std::move(lhs)),
          rhs(std::move(rhs)) {}

    ExprPtr clone() const override
    {
        return std::make_unique<BinaryExpr>(op, lhs->clone(), rhs->clone());
    }
    std::vector<const Expr *> children() const override
    {
        return {lhs.get(), rhs.get()};
    }

    BinaryOp op;
    ExprPtr lhs;
    ExprPtr rhs;
};

/** expr [NOT] BETWEEN lo AND hi. */
class BetweenExpr : public Expr
{
  public:
    BetweenExpr(ExprPtr operand, ExprPtr low, ExprPtr high, bool negated)
        : Expr(ExprKind::Between), operand(std::move(operand)),
          low(std::move(low)), high(std::move(high)), negated(negated) {}

    ExprPtr clone() const override
    {
        return std::make_unique<BetweenExpr>(
            operand->clone(), low->clone(), high->clone(), negated);
    }
    std::vector<const Expr *> children() const override
    {
        return {operand.get(), low.get(), high.get()};
    }

    ExprPtr operand;
    ExprPtr low;
    ExprPtr high;
    bool negated;
};

/** expr [NOT] IN (item, item, ...). */
class InListExpr : public Expr
{
  public:
    InListExpr(ExprPtr operand, std::vector<ExprPtr> items, bool negated)
        : Expr(ExprKind::InList), operand(std::move(operand)),
          items(std::move(items)), negated(negated) {}

    ExprPtr clone() const override;
    std::vector<const Expr *> children() const override;

    ExprPtr operand;
    std::vector<ExprPtr> items;
    bool negated;
};

/** CASE [operand] WHEN ... THEN ... [ELSE ...] END. */
class CaseExpr : public Expr
{
  public:
    struct Arm
    {
        ExprPtr when;
        ExprPtr then;
    };

    CaseExpr(ExprPtr operand, std::vector<Arm> arms, ExprPtr else_expr)
        : Expr(ExprKind::Case), operand(std::move(operand)),
          arms(std::move(arms)), elseExpr(std::move(else_expr)) {}

    ExprPtr clone() const override;
    std::vector<const Expr *> children() const override;

    /** Null for searched CASE. */
    ExprPtr operand;
    std::vector<Arm> arms;
    /** Null when no ELSE. */
    ExprPtr elseExpr;
};

/** Function call; also models aggregates (COUNT, SUM, ...). */
class FunctionExpr : public Expr
{
  public:
    FunctionExpr(std::string name, std::vector<ExprPtr> args,
                 bool star = false, bool distinct = false)
        : Expr(ExprKind::Function), name(std::move(name)),
          args(std::move(args)), star(star), distinct(distinct) {}

    ExprPtr clone() const override;
    std::vector<const Expr *> children() const override;

    /** Uppercased function name. */
    std::string name;
    std::vector<ExprPtr> args;
    /** COUNT(*). */
    bool star;
    /** COUNT(DISTINCT x), SUM(DISTINCT x), ... */
    bool distinct;
};

/** CAST(expr AS type). */
class CastExpr : public Expr
{
  public:
    CastExpr(ExprPtr operand, DataType target)
        : Expr(ExprKind::Cast), operand(std::move(operand)), target(target) {}

    ExprPtr clone() const override
    {
        return std::make_unique<CastExpr>(operand->clone(), target);
    }
    std::vector<const Expr *> children() const override
    {
        return {operand.get()};
    }

    ExprPtr operand;
    DataType target;
};

/** [NOT] EXISTS (subquery). */
class ExistsExpr : public Expr
{
  public:
    ExistsExpr(SelectPtr subquery, bool negated);
    ~ExistsExpr() override;

    ExprPtr clone() const override;
    std::vector<const Expr *> children() const override { return {}; }

    SelectPtr subquery;
    bool negated;
};

/** expr [NOT] IN (subquery). */
class InSubqueryExpr : public Expr
{
  public:
    InSubqueryExpr(ExprPtr operand, SelectPtr subquery, bool negated);
    ~InSubqueryExpr() override;

    ExprPtr clone() const override;
    std::vector<const Expr *> children() const override
    {
        return {operand.get()};
    }

    ExprPtr operand;
    SelectPtr subquery;
    bool negated;
};

/** (SELECT single-column single-row ...). */
class ScalarSubqueryExpr : public Expr
{
  public:
    explicit ScalarSubqueryExpr(SelectPtr subquery);
    ~ScalarSubqueryExpr() override;

    ExprPtr clone() const override;
    std::vector<const Expr *> children() const override { return {}; }

    SelectPtr subquery;
};

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

/** Statement node kinds (Table 1 "Statement" features). */
enum class StmtKind
{
    CreateTable,
    CreateIndex,
    CreateView,
    Insert,
    Analyze,
    Select,
    DropTable,
    DropView,
    DropIndex,
    Begin,
    Commit,
    Rollback,
    Savepoint,
    RollbackTo,
    Release,
};

/** The statement table: every StmtKind, in enum order. */
std::span<const EnumInfo<StmtKind>> stmtKindTable();
const EnumInfo<StmtKind> &stmtKindInfo(StmtKind kind);

/** True for the transaction-control statement kinds. */
inline bool
isTxnStmtKind(StmtKind kind)
{
    switch (kind) {
      case StmtKind::Begin:
      case StmtKind::Commit:
      case StmtKind::Rollback:
      case StmtKind::Savepoint:
      case StmtKind::RollbackTo:
      case StmtKind::Release:
        return true;
      default:
        return false;
    }
}

/** Base class for all statements. */
class Stmt
{
  public:
    virtual ~Stmt() = default;

    StmtKind kind() const { return kind_; }

    virtual std::unique_ptr<Stmt> clone() const = 0;

  protected:
    explicit Stmt(StmtKind kind) : kind_(kind) {}

  private:
    StmtKind kind_;
};

using StmtPtr = std::unique_ptr<Stmt>;

/** One column definition inside CREATE TABLE. */
struct ColumnDef
{
    std::string name;
    DataType type = DataType::Int;
    bool notNull = false;
    bool unique = false;
    bool primaryKey = false;
};

/** CREATE TABLE [IF NOT EXISTS] name (col type [constraints], ...). */
class CreateTableStmt : public Stmt
{
  public:
    CreateTableStmt() : Stmt(StmtKind::CreateTable) {}

    StmtPtr clone() const override
    {
        return std::make_unique<CreateTableStmt>(*this);
    }

    std::string name;
    std::vector<ColumnDef> columns;
    bool ifNotExists = false;
};

/** CREATE [UNIQUE] INDEX name ON table (cols) [WHERE predicate]. */
class CreateIndexStmt : public Stmt
{
  public:
    CreateIndexStmt() : Stmt(StmtKind::CreateIndex) {}

    CreateIndexStmt(const CreateIndexStmt &other)
        : Stmt(StmtKind::CreateIndex), name(other.name), table(other.table),
          columns(other.columns), unique(other.unique),
          where(other.where ? other.where->clone() : nullptr) {}

    StmtPtr clone() const override
    {
        return std::make_unique<CreateIndexStmt>(*this);
    }

    std::string name;
    std::string table;
    std::vector<std::string> columns;
    bool unique = false;
    /** Partial-index predicate; null when absent. */
    ExprPtr where;
};

/** CREATE VIEW name [(cols)] AS select. */
class CreateViewStmt : public Stmt
{
  public:
    CreateViewStmt();
    CreateViewStmt(const CreateViewStmt &other);
    ~CreateViewStmt() override;

    StmtPtr clone() const override
    {
        return std::make_unique<CreateViewStmt>(*this);
    }

    std::string name;
    std::vector<std::string> columnNames;
    SelectPtr select;
};

/** INSERT INTO table [(cols)] VALUES (...), (...). */
class InsertStmt : public Stmt
{
  public:
    InsertStmt() : Stmt(StmtKind::Insert) {}
    InsertStmt(const InsertStmt &other);

    StmtPtr clone() const override
    {
        return std::make_unique<InsertStmt>(*this);
    }

    std::string table;
    std::vector<std::string> columns;
    std::vector<std::vector<ExprPtr>> rows;
    /** INSERT OR IGNORE (constraint violations skip the row). */
    bool orIgnore = false;
};

/** ANALYZE [table]. */
class AnalyzeStmt : public Stmt
{
  public:
    AnalyzeStmt() : Stmt(StmtKind::Analyze) {}

    StmtPtr clone() const override
    {
        return std::make_unique<AnalyzeStmt>(*this);
    }

    /** Empty = whole database. */
    std::string table;
};

/**
 * Transaction control: BEGIN / COMMIT / ROLLBACK [TO name] /
 * SAVEPOINT name / RELEASE name. One node class covers all six kinds;
 * `savepoint` is empty except for the savepoint-addressed kinds.
 */
class TxnStmt : public Stmt
{
  public:
    explicit TxnStmt(StmtKind kind) : Stmt(kind) {}

    StmtPtr clone() const override
    {
        return std::make_unique<TxnStmt>(*this);
    }

    /** Savepoint name (Savepoint / RollbackTo / Release only). */
    std::string savepoint;
};

/** DROP TABLE/VIEW/INDEX [IF EXISTS] name. */
class DropStmt : public Stmt
{
  public:
    explicit DropStmt(StmtKind kind) : Stmt(kind) {}

    StmtPtr clone() const override
    {
        return std::make_unique<DropStmt>(*this);
    }

    std::string name;
    bool ifExists = false;
};

/** Join types (paper: "We support six types of join"). */
enum class JoinType
{
    Inner,
    Left,
    Right,
    Full,
    Cross,
    Natural,
};

/** The join table: every JoinType, in enum order. */
std::span<const EnumInfo<JoinType>> joinTypeTable();
const EnumInfo<JoinType> &joinTypeInfo(JoinType type);

/** SQL keyword sequence of a join type. */
const char *joinTypeName(JoinType type);

/** A table source in FROM: base table/view or derived subquery. */
class TableRef
{
  public:
    TableRef() = default;
    TableRef(const TableRef &other);
    TableRef &operator=(const TableRef &other);
    TableRef(TableRef &&) = default;
    TableRef &operator=(TableRef &&) = default;
    ~TableRef();

    /** Non-empty for base tables/views; empty for derived tables. */
    std::string name;
    /** Optional alias; required by the engine for derived tables. */
    std::string alias;
    /** Non-null for derived tables: (SELECT ...) AS alias. */
    SelectPtr subquery;

    /** Alias if present else name. */
    const std::string &bindingName() const
    {
        return alias.empty() ? name : alias;
    }
};

/** One JOIN step chained after the first FROM item. */
struct JoinClause
{
    JoinClause() = default;
    JoinClause(const JoinClause &other)
        : type(other.type), table(other.table),
          on(other.on ? other.on->clone() : nullptr) {}
    JoinClause(JoinClause &&) = default;
    JoinClause &operator=(JoinClause &&) = default;

    JoinType type = JoinType::Inner;
    TableRef table;
    /** Null for CROSS and NATURAL joins. */
    ExprPtr on;
};

/** One ORDER BY term. */
struct OrderTerm
{
    OrderTerm() = default;
    OrderTerm(const OrderTerm &other)
        : expr(other.expr ? other.expr->clone() : nullptr),
          ascending(other.ascending) {}
    OrderTerm(OrderTerm &&) = default;
    OrderTerm &operator=(OrderTerm &&) = default;

    ExprPtr expr;
    bool ascending = true;
};

/** One item of the SELECT list. */
struct SelectItem
{
    SelectItem() = default;
    SelectItem(const SelectItem &other)
        : expr(other.expr ? other.expr->clone() : nullptr),
          alias(other.alias), star(other.star) {}
    SelectItem(SelectItem &&) = default;
    SelectItem &operator=(SelectItem &&) = default;

    /** Null when star is set. */
    ExprPtr expr;
    std::string alias;
    /** SELECT *. */
    bool star = false;
};

/** SELECT statement / subquery body. */
class SelectStmt : public Stmt
{
  public:
    SelectStmt() : Stmt(StmtKind::Select) {}
    SelectStmt(const SelectStmt &other);

    StmtPtr clone() const override
    {
        return std::make_unique<SelectStmt>(*this);
    }

    /** Typed clone, for embedding as a subquery. */
    SelectPtr cloneSelect() const
    {
        return std::make_unique<SelectStmt>(*this);
    }

    bool distinct = false;
    std::vector<SelectItem> items;
    /** Empty for FROM-less scalar selects (SELECT 1+1). */
    std::vector<TableRef> from;
    std::vector<JoinClause> joins;
    ExprPtr where;
    std::vector<ExprPtr> groupBy;
    ExprPtr having;
    std::vector<OrderTerm> orderBy;
    /** Negative = absent. */
    int64_t limit = -1;
    int64_t offset = -1;
};

/**
 * Walk an expression tree depth-first, visiting every node including
 * subquery internals' expressions are NOT followed (subqueries are opaque
 * at this level; callers that need them handle Exists/InSubquery/Scalar
 * kinds explicitly).
 */
void forEachExprNode(const Expr &root,
                     const std::function<void(const Expr &)> &fn);

} // namespace sqlpp

#endif // SQLPP_SQLIR_AST_H
