#include "dialect/profile.h"

#include "engine/eval.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

Status
unsupported(const std::string &what)
{
    // Real dialects answer with a parser error; we do the same so the
    // generator's feedback loop sees the authentic error class.
    return Status::syntaxError("syntax error near " + what);
}

} // namespace

std::string
describeProfile(const DialectProfile &profile)
{
    // Every container below is a std::set (ordered by enum value or
    // string), so the rendering is stable across platforms and runs.
    std::string out;
    out += "== " + profile.name + " ==\n";
    out += format("behavior: div_zero_is_null=%d domain_error_is_null=%d "
                  "static_typing=%d case_insensitive_like=%d\n",
                  profile.behavior.divZeroIsNull ? 1 : 0,
                  profile.behavior.domainErrorIsNull ? 1 : 0,
                  profile.behavior.staticTyping ? 1 : 0,
                  profile.behavior.caseInsensitiveLike ? 1 : 0);
    out += format("refresh_after_insert: %d\n",
                  profile.requiresRefreshAfterInsert ? 1 : 0);

    std::vector<std::string> names;
    for (StmtKind kind : profile.statements)
        names.push_back(stmtKindInfo(kind).sql);
    out += "statements: " + join(names, ", ") + "\n";

    names.clear();
    for (JoinType type : profile.joins)
        names.push_back(joinTypeName(type));
    out += "joins: " + join(names, ", ") + "\n";

    names.clear();
    for (BinaryOp op : profile.binaryOps)
        names.push_back(binaryOpSymbol(op));
    out += "binary_ops: " + join(names, " ") + "\n";

    names.clear();
    for (UnaryOp op : profile.unaryOps)
        names.push_back(unaryOpInfo(op).sql);
    out += "unary_ops: " + join(names, ", ") + "\n";

    names.clear();
    for (const std::string &fn : profile.functions)
        names.push_back(fn);
    out += "functions: " + join(names, ", ") + "\n";

    names.clear();
    for (DataType type : profile.dataTypes)
        names.push_back(dataTypeName(type));
    out += "types: " + join(names, ", ") + "\n";

    const ClauseSupport &c = profile.clauses;
    out += format(
        "clauses: distinct=%d group_by=%d having=%d order_by=%d "
        "limit=%d offset=%d subquery_in_from=%d subquery_in_expr=%d "
        "unique_index=%d partial_index=%d if_not_exists=%d "
        "insert_or_ignore=%d primary_key=%d not_null=%d "
        "unique_column=%d multi_row_insert=%d view_column_list=%d\n",
        c.distinct ? 1 : 0, c.groupBy ? 1 : 0, c.having ? 1 : 0,
        c.orderBy ? 1 : 0, c.limit ? 1 : 0, c.offset ? 1 : 0,
        c.subqueryInFrom ? 1 : 0, c.subqueryInExpr ? 1 : 0,
        c.uniqueIndex ? 1 : 0, c.partialIndex ? 1 : 0,
        c.ifNotExists ? 1 : 0, c.insertOrIgnore ? 1 : 0,
        c.primaryKey ? 1 : 0, c.notNull ? 1 : 0, c.uniqueColumn ? 1 : 0,
        c.multiRowInsert ? 1 : 0, c.viewColumnList ? 1 : 0);
    out += format("transactions: %d\n", c.transactions ? 1 : 0);

    names.clear();
    for (FaultId fault : profile.faults.ids())
        names.push_back(faultName(fault));
    out += "faults: " + join(names, ", ") + "\n";
    return out;
}

Status
DialectProfile::validateExpr(const Expr &expr) const
{
    switch (expr.kind()) {
      case ExprKind::Literal: {
        const Value &value =
            static_cast<const LiteralExpr &>(expr).value;
        if (value.kind() == Value::Kind::Bool &&
            !supportsType(DataType::Bool)) {
            return unsupported("boolean literal");
        }
        return Status::ok();
      }
      case ExprKind::ColumnRef:
        return Status::ok();
      case ExprKind::Unary: {
        const auto &unary = static_cast<const UnaryExpr &>(expr);
        if (!supportsUnaryOp(unary.op))
            return unsupported("unary operator");
        return validateExpr(*unary.operand);
      }
      case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        if (!supportsBinaryOp(bin.op))
            return unsupported(binaryOpSymbol(bin.op));
        if (Status s = validateExpr(*bin.lhs); !s.isOk())
            return s;
        return validateExpr(*bin.rhs);
      }
      case ExprKind::Between: {
        const auto &between = static_cast<const BetweenExpr &>(expr);
        if (Status s = validateExpr(*between.operand); !s.isOk())
            return s;
        if (Status s = validateExpr(*between.low); !s.isOk())
            return s;
        return validateExpr(*between.high);
      }
      case ExprKind::InList: {
        const auto &in = static_cast<const InListExpr &>(expr);
        if (Status s = validateExpr(*in.operand); !s.isOk())
            return s;
        for (const ExprPtr &item : in.items) {
            if (Status s = validateExpr(*item); !s.isOk())
                return s;
        }
        return Status::ok();
      }
      case ExprKind::Case: {
        const auto &case_expr = static_cast<const CaseExpr &>(expr);
        if (case_expr.operand != nullptr) {
            if (Status s = validateExpr(*case_expr.operand); !s.isOk())
                return s;
        }
        for (const CaseExpr::Arm &arm : case_expr.arms) {
            if (Status s = validateExpr(*arm.when); !s.isOk())
                return s;
            if (Status s = validateExpr(*arm.then); !s.isOk())
                return s;
        }
        if (case_expr.elseExpr != nullptr)
            return validateExpr(*case_expr.elseExpr);
        return Status::ok();
      }
      case ExprKind::Function: {
        const auto &fn = static_cast<const FunctionExpr &>(expr);
        if (!supportsFunction(fn.name))
            return unsupported(fn.name + "(");
        for (const ExprPtr &arg : fn.args) {
            if (Status s = validateExpr(*arg); !s.isOk())
                return s;
        }
        return Status::ok();
      }
      case ExprKind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        if (!supportsType(cast.target))
            return unsupported(dataTypeName(cast.target));
        return validateExpr(*cast.operand);
      }
      case ExprKind::Exists: {
        if (!clauses.subqueryInExpr)
            return unsupported("EXISTS");
        const auto &exists = static_cast<const ExistsExpr &>(expr);
        return validateSelect(*exists.subquery);
      }
      case ExprKind::InSubquery: {
        if (!clauses.subqueryInExpr)
            return unsupported("IN (SELECT");
        const auto &in = static_cast<const InSubqueryExpr &>(expr);
        if (Status s = validateExpr(*in.operand); !s.isOk())
            return s;
        return validateSelect(*in.subquery);
      }
      case ExprKind::ScalarSubquery: {
        if (!clauses.subqueryInExpr)
            return unsupported("(SELECT");
        const auto &sub = static_cast<const ScalarSubqueryExpr &>(expr);
        return validateSelect(*sub.subquery);
      }
    }
    return Status::internal("unhandled expression kind");
}

Status
DialectProfile::validateTableRef(const TableRef &ref) const
{
    if (ref.subquery != nullptr) {
        if (!clauses.subqueryInFrom)
            return unsupported("derived table");
        return validateSelect(*ref.subquery);
    }
    return Status::ok();
}

Status
DialectProfile::validateSelect(const SelectStmt &select) const
{
    if (select.distinct && !clauses.distinct)
        return unsupported("DISTINCT");
    if (!select.groupBy.empty() && !clauses.groupBy)
        return unsupported("GROUP BY");
    if (select.having != nullptr && !clauses.having)
        return unsupported("HAVING");
    if (!select.orderBy.empty() && !clauses.orderBy)
        return unsupported("ORDER BY");
    if (select.limit >= 0 && !clauses.limit)
        return unsupported("LIMIT");
    if (select.offset >= 0 && !clauses.offset)
        return unsupported("OFFSET");
    for (const TableRef &ref : select.from) {
        if (Status s = validateTableRef(ref); !s.isOk())
            return s;
    }
    for (const JoinClause &join : select.joins) {
        if (!supportsJoin(join.type))
            return unsupported(joinTypeName(join.type));
        if (Status s = validateTableRef(join.table); !s.isOk())
            return s;
        if (join.on != nullptr) {
            if (Status s = validateExpr(*join.on); !s.isOk())
                return s;
        }
    }
    for (const SelectItem &item : select.items) {
        if (item.star)
            continue;
        if (Status s = validateExpr(*item.expr); !s.isOk())
            return s;
    }
    if (select.where != nullptr) {
        if (Status s = validateExpr(*select.where); !s.isOk())
            return s;
    }
    for (const ExprPtr &key : select.groupBy) {
        if (Status s = validateExpr(*key); !s.isOk())
            return s;
    }
    if (select.having != nullptr) {
        if (Status s = validateExpr(*select.having); !s.isOk())
            return s;
    }
    for (const OrderTerm &term : select.orderBy) {
        if (Status s = validateExpr(*term.expr); !s.isOk())
            return s;
    }
    return Status::ok();
}

Status
DialectProfile::validate(const Stmt &stmt) const
{
    // Transaction control is a clause-level capability: it never
    // appears in the `statements` set (the adaptive generator does not
    // emit it), so gate it before the statement-kind check.
    if (isTxnStmtKind(stmt.kind())) {
        if (!clauses.transactions)
            return unsupported(stmtKindInfo(stmt.kind()).sql);
        return Status::ok();
    }
    if (!supportsStatement(stmt.kind())) {
        switch (stmt.kind()) {
          case StmtKind::CreateIndex:
            return unsupported("CREATE INDEX");
          case StmtKind::CreateView:
            return unsupported("CREATE VIEW");
          case StmtKind::Analyze:
            return unsupported("ANALYZE");
          default:
            return unsupported("statement");
        }
    }
    switch (stmt.kind()) {
      case StmtKind::CreateTable: {
        const auto &create = static_cast<const CreateTableStmt &>(stmt);
        if (create.ifNotExists && !clauses.ifNotExists)
            return unsupported("IF NOT EXISTS");
        for (const ColumnDef &col : create.columns) {
            if (!supportsType(col.type))
                return unsupported(dataTypeName(col.type));
            if (col.primaryKey && !clauses.primaryKey)
                return unsupported("PRIMARY KEY");
            if (col.unique && !clauses.uniqueColumn)
                return unsupported("UNIQUE");
            if (col.notNull && !clauses.notNull)
                return unsupported("NOT NULL");
        }
        return Status::ok();
      }
      case StmtKind::CreateIndex: {
        const auto &index = static_cast<const CreateIndexStmt &>(stmt);
        if (index.unique && !clauses.uniqueIndex)
            return unsupported("UNIQUE INDEX");
        if (index.where != nullptr) {
            if (!clauses.partialIndex)
                return unsupported("partial index WHERE");
            return validateExpr(*index.where);
        }
        return Status::ok();
      }
      case StmtKind::CreateView: {
        const auto &view = static_cast<const CreateViewStmt &>(stmt);
        if (!view.columnNames.empty() && !clauses.viewColumnList)
            return unsupported("view column list");
        return validateSelect(*view.select);
      }
      case StmtKind::Insert: {
        const auto &insert = static_cast<const InsertStmt &>(stmt);
        if (insert.orIgnore && !clauses.insertOrIgnore)
            return unsupported("OR IGNORE");
        if (insert.rows.size() > 1 && !clauses.multiRowInsert)
            return unsupported("multi-row VALUES");
        for (const auto &row : insert.rows) {
            for (const ExprPtr &expr : row) {
                if (Status s = validateExpr(*expr); !s.isOk())
                    return s;
            }
        }
        return Status::ok();
      }
      case StmtKind::Analyze:
        return Status::ok();
      case StmtKind::Select:
        return validateSelect(static_cast<const SelectStmt &>(stmt));
      case StmtKind::DropTable:
      case StmtKind::DropView:
      case StmtKind::DropIndex:
        return Status::ok();
      case StmtKind::Begin:
      case StmtKind::Commit:
      case StmtKind::Rollback:
      case StmtKind::Savepoint:
      case StmtKind::RollbackTo:
      case StmtKind::Release:
        // Handled by the capability gate above.
        return Status::ok();
    }
    return Status::internal("unhandled statement kind");
}

} // namespace sqlpp
