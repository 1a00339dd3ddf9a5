#include "sqlir/printer.h"

#include <cassert>

#include "util/strutil.h"

namespace sqlpp {

namespace {

std::string printExprInner(const Expr &expr);

std::string
printUnary(const UnaryExpr &expr)
{
    const std::string operand = printExprInner(*expr.operand);
    const char *sql = unaryOpInfo(expr.op).sql;
    // The IS family is postfix; the rest are prefix.
    if (expr.op >= UnaryOp::IsNull)
        return concat("(", operand, " ", sql, ")");
    // A space after a sign or NOT prevents "--" (line comment) and "++"
    // artifacts when the operand itself starts with a sign.
    return concat("(", sql, expr.op == UnaryOp::BitNot ? "" : " ",
                  operand, ")");
}

std::string
printCase(const CaseExpr &expr)
{
    std::string out = "CASE";
    if (expr.operand) {
        out += " ";
        out += printExprInner(*expr.operand);
    }
    for (const CaseExpr::Arm &arm : expr.arms) {
        out += " WHEN ";
        out += printExprInner(*arm.when);
        out += " THEN ";
        out += printExprInner(*arm.then);
    }
    if (expr.elseExpr) {
        out += " ELSE ";
        out += printExprInner(*expr.elseExpr);
    }
    out += " END";
    return "(" + out + ")";
}

std::string
printExprInner(const Expr &expr)
{
    switch (expr.kind()) {
      case ExprKind::Literal:
        return static_cast<const LiteralExpr &>(expr).value.literal();
      case ExprKind::ColumnRef: {
        const auto &ref = static_cast<const ColumnRefExpr &>(expr);
        if (ref.table.empty())
            return ref.column;
        return ref.table + "." + ref.column;
      }
      case ExprKind::Unary:
        return printUnary(static_cast<const UnaryExpr &>(expr));
      case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        return concat("(", printExprInner(*bin.lhs), " ",
                      binaryOpSymbol(bin.op), " ",
                      printExprInner(*bin.rhs), ")");
      }
      case ExprKind::Between: {
        const auto &between = static_cast<const BetweenExpr &>(expr);
        return concat("(", printExprInner(*between.operand),
                      between.negated ? " NOT BETWEEN " : " BETWEEN ",
                      printExprInner(*between.low), " AND ",
                      printExprInner(*between.high), ")");
      }
      case ExprKind::InList: {
        const auto &in = static_cast<const InListExpr &>(expr);
        std::vector<std::string> items;
        items.reserve(in.items.size());
        for (const ExprPtr &item : in.items)
            items.push_back(printExprInner(*item));
        return concat("(", printExprInner(*in.operand),
                      in.negated ? " NOT IN (" : " IN (", join(items, ", "),
                      "))");
      }
      case ExprKind::Case:
        return printCase(static_cast<const CaseExpr &>(expr));
      case ExprKind::Function: {
        const auto &fn = static_cast<const FunctionExpr &>(expr);
        if (fn.star)
            return fn.name + "(*)";
        std::vector<std::string> args;
        args.reserve(fn.args.size());
        for (const ExprPtr &arg : fn.args)
            args.push_back(printExprInner(*arg));
        return fn.name + "(" + (fn.distinct ? "DISTINCT " : "") +
               join(args, ", ") + ")";
      }
      case ExprKind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        return std::string("CAST(") + printExprInner(*cast.operand) +
               " AS " + dataTypeName(cast.target) + ")";
      }
      case ExprKind::Exists: {
        const auto &exists = static_cast<const ExistsExpr &>(expr);
        return std::string("(") + (exists.negated ? "NOT " : "") +
               "EXISTS (" + printSelect(*exists.subquery) + "))";
      }
      case ExprKind::InSubquery: {
        const auto &in = static_cast<const InSubqueryExpr &>(expr);
        return concat("(", printExprInner(*in.operand),
                      in.negated ? " NOT IN (" : " IN (",
                      printSelect(*in.subquery), "))");
      }
      case ExprKind::ScalarSubquery: {
        const auto &sub = static_cast<const ScalarSubqueryExpr &>(expr);
        return concat("(", printSelect(*sub.subquery), ")");
      }
    }
    return "?";
}

std::string
printTableRef(const TableRef &ref)
{
    if (ref.subquery) {
        std::string out = concat("(", printSelect(*ref.subquery), ")");
        if (!ref.alias.empty())
            out += " AS " + ref.alias;
        return out;
    }
    std::string out = ref.name;
    if (!ref.alias.empty())
        out += " AS " + ref.alias;
    return out;
}

std::string
printCreateTable(const CreateTableStmt &stmt)
{
    std::string out = "CREATE TABLE ";
    if (stmt.ifNotExists)
        out += "IF NOT EXISTS ";
    out += stmt.name;
    out += " (";
    std::vector<std::string> defs;
    defs.reserve(stmt.columns.size());
    for (const ColumnDef &col : stmt.columns) {
        std::string def = col.name;
        def += " ";
        def += dataTypeName(col.type);
        if (col.primaryKey)
            def += " PRIMARY KEY";
        if (col.unique)
            def += " UNIQUE";
        if (col.notNull)
            def += " NOT NULL";
        defs.push_back(std::move(def));
    }
    out += join(defs, ", ");
    out += ")";
    return out;
}

std::string
printCreateIndex(const CreateIndexStmt &stmt)
{
    std::string out = "CREATE ";
    if (stmt.unique)
        out += "UNIQUE ";
    out += "INDEX ";
    out += stmt.name;
    out += " ON ";
    out += stmt.table;
    out += concat("(", join(stmt.columns, ", "), ")");
    if (stmt.where) {
        out += " WHERE ";
        out += printExprInner(*stmt.where);
    }
    return out;
}

std::string
printInsert(const InsertStmt &stmt)
{
    std::string out = "INSERT ";
    if (stmt.orIgnore)
        out += "OR IGNORE ";
    out += "INTO ";
    out += stmt.table;
    if (!stmt.columns.empty())
        out += " (" + join(stmt.columns, ", ") + ")";
    out += " VALUES ";
    std::vector<std::string> tuples;
    tuples.reserve(stmt.rows.size());
    for (const auto &row : stmt.rows) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const ExprPtr &expr : row)
            cells.push_back(printExprInner(*expr));
        tuples.push_back(concat("(", join(cells, ", "), ")"));
    }
    out += join(tuples, ", ");
    return out;
}

} // namespace

std::string
printExpr(const Expr &expr)
{
    return printExprInner(expr);
}

std::string
printSelect(const SelectStmt &select)
{
    std::string out = "SELECT ";
    if (select.distinct)
        out += "DISTINCT ";
    std::vector<std::string> items;
    items.reserve(select.items.size());
    for (const SelectItem &item : select.items) {
        if (item.star) {
            items.push_back("*");
            continue;
        }
        std::string rendered = printExprInner(*item.expr);
        if (!item.alias.empty())
            rendered += " AS " + item.alias;
        items.push_back(std::move(rendered));
    }
    out += join(items, ", ");
    if (!select.from.empty()) {
        out += " FROM ";
        std::vector<std::string> sources;
        sources.reserve(select.from.size());
        for (const TableRef &ref : select.from)
            sources.push_back(printTableRef(ref));
        out += join(sources, ", ");
        for (const JoinClause &joined : select.joins) {
            out += " ";
            out += joinTypeName(joined.type);
            out += " ";
            out += printTableRef(joined.table);
            if (joined.on) {
                out += " ON ";
                out += printExprInner(*joined.on);
            }
        }
    }
    if (select.where) {
        out += " WHERE ";
        out += printExprInner(*select.where);
    }
    if (!select.groupBy.empty()) {
        out += " GROUP BY ";
        std::vector<std::string> keys;
        keys.reserve(select.groupBy.size());
        for (const ExprPtr &expr : select.groupBy)
            keys.push_back(printExprInner(*expr));
        out += join(keys, ", ");
    }
    if (select.having) {
        out += " HAVING ";
        out += printExprInner(*select.having);
    }
    if (!select.orderBy.empty()) {
        out += " ORDER BY ";
        std::vector<std::string> terms;
        terms.reserve(select.orderBy.size());
        for (const OrderTerm &term : select.orderBy) {
            terms.push_back(printExprInner(*term.expr) +
                            (term.ascending ? " ASC" : " DESC"));
        }
        out += join(terms, ", ");
    }
    if (select.limit >= 0)
        out += format(" LIMIT %lld", static_cast<long long>(select.limit));
    if (select.offset >= 0)
        out += format(" OFFSET %lld", static_cast<long long>(select.offset));
    return out;
}

std::string
printStmt(const Stmt &stmt)
{
    switch (stmt.kind()) {
      case StmtKind::CreateTable:
        return printCreateTable(static_cast<const CreateTableStmt &>(stmt));
      case StmtKind::CreateIndex:
        return printCreateIndex(static_cast<const CreateIndexStmt &>(stmt));
      case StmtKind::CreateView: {
        const auto &view = static_cast<const CreateViewStmt &>(stmt);
        std::string out = "CREATE VIEW " + view.name;
        if (!view.columnNames.empty())
            out += concat("(", join(view.columnNames, ", "), ")");
        out += " AS " + printSelect(*view.select);
        return out;
      }
      case StmtKind::Insert:
        return printInsert(static_cast<const InsertStmt &>(stmt));
      case StmtKind::Analyze: {
        const auto &analyze = static_cast<const AnalyzeStmt &>(stmt);
        if (analyze.table.empty())
            return "ANALYZE";
        return "ANALYZE " + analyze.table;
      }
      case StmtKind::Select:
        return printSelect(static_cast<const SelectStmt &>(stmt));
      case StmtKind::DropTable: {
        const auto &drop = static_cast<const DropStmt &>(stmt);
        return std::string("DROP TABLE ") +
               (drop.ifExists ? "IF EXISTS " : "") + drop.name;
      }
      case StmtKind::DropView: {
        const auto &drop = static_cast<const DropStmt &>(stmt);
        return std::string("DROP VIEW ") +
               (drop.ifExists ? "IF EXISTS " : "") + drop.name;
      }
      case StmtKind::DropIndex: {
        const auto &drop = static_cast<const DropStmt &>(stmt);
        return std::string("DROP INDEX ") +
               (drop.ifExists ? "IF EXISTS " : "") + drop.name;
      }
      case StmtKind::Begin:
        return "BEGIN";
      case StmtKind::Commit:
        return "COMMIT";
      case StmtKind::Rollback:
        return "ROLLBACK";
      case StmtKind::Savepoint:
        return "SAVEPOINT " +
               static_cast<const TxnStmt &>(stmt).savepoint;
      case StmtKind::RollbackTo:
        return "ROLLBACK TO " +
               static_cast<const TxnStmt &>(stmt).savepoint;
      case StmtKind::Release:
        return "RELEASE " +
               static_cast<const TxnStmt &>(stmt).savepoint;
    }
    return "?";
}

} // namespace sqlpp
