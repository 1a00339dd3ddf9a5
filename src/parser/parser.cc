#include "parser/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "parser/lexer.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

/**
 * Token-stream cursor with keyword matching helpers. All parse methods
 * return StatusOr and never throw; the first error aborts the parse.
 */
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

    StatusOr<StmtPtr> parseStatementTop();
    StatusOr<ExprPtr> parseExpressionTop();

  private:
    const Token &peek(size_t ahead = 0) const
    {
        size_t idx = pos_ + ahead;
        if (idx >= tokens_.size())
            idx = tokens_.size() - 1;
        return tokens_[idx];
    }

    const Token &advance() { return tokens_[pos_++]; }

    bool
    atKeyword(const char *keyword, size_t ahead = 0) const
    {
        const Token &token = peek(ahead);
        return token.kind == TokenKind::Identifier &&
               equalsIgnoreCase(token.text, keyword);
    }

    bool
    eatKeyword(const char *keyword)
    {
        if (!atKeyword(keyword))
            return false;
        ++pos_;
        return true;
    }

    bool
    atSymbol(const char *symbol) const
    {
        const Token &token = peek();
        return token.kind == TokenKind::Symbol && token.text == symbol;
    }

    bool
    eatSymbol(const char *symbol)
    {
        if (!atSymbol(symbol))
            return false;
        ++pos_;
        return true;
    }

    Status
    expectKeyword(const char *keyword)
    {
        if (eatKeyword(keyword))
            return Status::ok();
        return err(format("expected %s", keyword));
    }

    Status
    expectSymbol(const char *symbol)
    {
        if (eatSymbol(symbol))
            return Status::ok();
        return err(format("expected '%s'", symbol));
    }

    StatusOr<std::string>
    expectIdentifier(const char *what)
    {
        const Token &token = peek();
        if (token.kind != TokenKind::Identifier)
            return err(format("expected %s", what));
        ++pos_;
        return token.text;
    }

    Status
    err(const std::string &message) const
    {
        return Status::syntaxError(
            format("%s near offset %zu", message.c_str(), peek().offset));
    }

    // Statement parsers.
    StatusOr<StmtPtr> parseCreate();
    StatusOr<StmtPtr> parseCreateTable();
    StatusOr<StmtPtr> parseCreateIndex(bool unique);
    StatusOr<StmtPtr> parseCreateView();
    StatusOr<StmtPtr> parseInsert();
    StatusOr<StmtPtr> parseDrop();
    StatusOr<SelectPtr> parseSelect();
    StatusOr<TableRef> parseTableRef();

    /** `name` after SAVEPOINT, RELEASE [SAVEPOINT] or ROLLBACK TO. */
    StatusOr<StmtPtr> parseSavepoint(StmtKind kind);

    // Expressions: one precedence-climbing loop over binaryOpTable().
    StatusOr<ExprPtr> parseExpr() { return parseBinary(binding::Or); }
    /** A chain of operators binding at @p min_level or tighter. */
    StatusOr<ExprPtr> parseBinary(int min_level);
    StatusOr<ExprPtr> parseUnary();
    StatusOr<ExprPtr> parsePrimary();

    /** IS / IN / BETWEEN / NOT LIKE postfix chain applied after an operand. */
    StatusOr<ExprPtr> parsePostfix(ExprPtr operand);

    StatusOr<std::vector<ExprPtr>> parseExprList();

    /** The operator-table row of the token at the cursor, if any. */
    const BinaryOpInfo *
    peekBinaryOp()
    {
        // Chains nested inside one another all end at the same token;
        // look each token up once.
        if (op_pos_ == pos_)
            return op_;
        op_pos_ = pos_;
        op_ = nullptr;
        for (const BinaryOpInfo &info : binaryOpTable()) {
            bool keyword =
                std::isalpha(static_cast<unsigned char>(info.symbol[0]));
            if (keyword ? atKeyword(info.symbol) : atSymbol(info.symbol)) {
                op_ = &info;
                break;
            }
        }
        return op_;
    }

    /**
     * Holds one level of nesting for the scope of a nested parse: an
     * operand (so each parenthesis, function call, CASE, CAST and
     * prefix operator), a prefix NOT, or a SELECT.
     */
    struct Nested
    {
        explicit Nested(Parser &parser) : parser(parser)
        {
            ++parser.depth_;
            parser.peak_ = std::max(parser.peak_, parser.depth_);
        }
        ~Nested() { --parser.depth_; }
        Nested(const Nested &) = delete;
        Nested &operator=(const Nested &) = delete;
        Parser &parser;
    };

    /** SyntaxError once peak_ passes kMaxParseNesting. */
    Status
    checkNesting() const
    {
        if (peak_ > kMaxParseNesting)
            return err("statement nested too deeply");
        return Status::ok();
    }

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    /** peekBinaryOp()'s answer for the token at op_pos_. */
    size_t op_pos_ = SIZE_MAX;
    const BinaryOpInfo *op_ = nullptr;
    /**
     * The nesting bound. depth_ counts the Nested scopes open at the
     * cursor. peak_ is the deepest level reached by the operator chain
     * being built; each link of a chain pushes everything built so far
     * one level down, so it adds one to peak_. Keeping peak_ within
     * kMaxParseNesting bounds both the parser's recursion and the
     * height of every tree it returns.
     */
    size_t depth_ = 0;
    size_t peak_ = 0;
};

StatusOr<StmtPtr>
Parser::parseStatementTop()
{
    StatusOr<StmtPtr> result = Status::syntaxError("empty statement");
    if (atKeyword("CREATE")) {
        result = parseCreate();
    } else if (atKeyword("INSERT")) {
        result = parseInsert();
    } else if (atKeyword("ANALYZE")) {
        advance();
        auto stmt = std::make_unique<AnalyzeStmt>();
        if (peek().kind == TokenKind::Identifier)
            stmt->table = advance().text;
        result = StmtPtr(std::move(stmt));
    } else if (atKeyword("SELECT")) {
        auto select = parseSelect();
        if (!select.isOk())
            return select.status();
        result = StmtPtr(select.takeValue());
    } else if (atKeyword("DROP")) {
        result = parseDrop();
    } else if (atKeyword("BEGIN")) {
        advance();
        eatKeyword("TRANSACTION");
        result = StmtPtr(std::make_unique<TxnStmt>(StmtKind::Begin));
    } else if (atKeyword("COMMIT")) {
        advance();
        eatKeyword("TRANSACTION");
        result = StmtPtr(std::make_unique<TxnStmt>(StmtKind::Commit));
    } else if (atKeyword("ROLLBACK")) {
        advance();
        eatKeyword("TRANSACTION");
        if (eatKeyword("TO")) {
            eatKeyword("SAVEPOINT");
            result = parseSavepoint(StmtKind::RollbackTo);
        } else {
            result =
                StmtPtr(std::make_unique<TxnStmt>(StmtKind::Rollback));
        }
    } else if (atKeyword("SAVEPOINT")) {
        advance();
        result = parseSavepoint(StmtKind::Savepoint);
    } else if (atKeyword("RELEASE")) {
        advance();
        eatKeyword("SAVEPOINT");
        result = parseSavepoint(StmtKind::Release);
    } else if (peek().kind == TokenKind::EndOfInput) {
        return Status::syntaxError("empty statement");
    } else {
        return err("unrecognized statement keyword '" + peek().text + "'");
    }
    if (!result.isOk())
        return result;
    eatSymbol(";");
    if (peek().kind != TokenKind::EndOfInput)
        return err("trailing input after statement");
    return result;
}

StatusOr<StmtPtr>
Parser::parseSavepoint(StmtKind kind)
{
    auto stmt = std::make_unique<TxnStmt>(kind);
    auto name = expectIdentifier("savepoint name");
    if (!name.isOk())
        return name.status();
    stmt->savepoint = name.takeValue();
    return StmtPtr(std::move(stmt));
}

StatusOr<ExprPtr>
Parser::parseExpressionTop()
{
    auto expr = parseExpr();
    if (!expr.isOk())
        return expr;
    if (peek().kind != TokenKind::EndOfInput)
        return err("trailing input after expression");
    return expr;
}

StatusOr<StmtPtr>
Parser::parseCreate()
{
    advance(); // CREATE
    if (eatKeyword("TABLE"))
        return parseCreateTable();
    if (eatKeyword("UNIQUE")) {
        if (Status s = expectKeyword("INDEX"); !s.isOk())
            return s;
        return parseCreateIndex(/*unique=*/true);
    }
    if (eatKeyword("INDEX"))
        return parseCreateIndex(/*unique=*/false);
    if (eatKeyword("VIEW"))
        return parseCreateView();
    return err("expected TABLE, INDEX, UNIQUE INDEX, or VIEW");
}

StatusOr<StmtPtr>
Parser::parseCreateTable()
{
    auto stmt = std::make_unique<CreateTableStmt>();
    if (eatKeyword("IF")) {
        if (Status s = expectKeyword("NOT"); !s.isOk())
            return s;
        if (Status s = expectKeyword("EXISTS"); !s.isOk())
            return s;
        stmt->ifNotExists = true;
    }
    auto name = expectIdentifier("table name");
    if (!name.isOk())
        return name.status();
    stmt->name = name.takeValue();
    if (Status s = expectSymbol("("); !s.isOk())
        return s;
    for (;;) {
        ColumnDef col;
        auto col_name = expectIdentifier("column name");
        if (!col_name.isOk())
            return col_name.status();
        col.name = col_name.takeValue();
        auto type_name = expectIdentifier("column type");
        if (!type_name.isOk())
            return type_name.status();
        if (!parseDataType(type_name.value(), col.type))
            return err("unknown type '" + type_name.value() + "'");
        for (;;) {
            if (eatKeyword("PRIMARY")) {
                if (Status s = expectKeyword("KEY"); !s.isOk())
                    return s;
                col.primaryKey = true;
            } else if (eatKeyword("UNIQUE")) {
                col.unique = true;
            } else if (eatKeyword("NOT")) {
                if (Status s = expectKeyword("NULL"); !s.isOk())
                    return s;
                col.notNull = true;
            } else {
                break;
            }
        }
        stmt->columns.push_back(std::move(col));
        if (eatSymbol(","))
            continue;
        break;
    }
    if (Status s = expectSymbol(")"); !s.isOk())
        return s;
    return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr>
Parser::parseCreateIndex(bool unique)
{
    auto stmt = std::make_unique<CreateIndexStmt>();
    stmt->unique = unique;
    auto name = expectIdentifier("index name");
    if (!name.isOk())
        return name.status();
    stmt->name = name.takeValue();
    if (Status s = expectKeyword("ON"); !s.isOk())
        return s;
    auto table = expectIdentifier("table name");
    if (!table.isOk())
        return table.status();
    stmt->table = table.takeValue();
    if (Status s = expectSymbol("("); !s.isOk())
        return s;
    for (;;) {
        auto col = expectIdentifier("column name");
        if (!col.isOk())
            return col.status();
        stmt->columns.push_back(col.takeValue());
        if (eatSymbol(","))
            continue;
        break;
    }
    if (Status s = expectSymbol(")"); !s.isOk())
        return s;
    if (eatKeyword("WHERE")) {
        auto where = parseExpr();
        if (!where.isOk())
            return where.status();
        stmt->where = where.takeValue();
    }
    return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr>
Parser::parseCreateView()
{
    auto stmt = std::make_unique<CreateViewStmt>();
    auto name = expectIdentifier("view name");
    if (!name.isOk())
        return name.status();
    stmt->name = name.takeValue();
    if (eatSymbol("(")) {
        for (;;) {
            auto col = expectIdentifier("column name");
            if (!col.isOk())
                return col.status();
            stmt->columnNames.push_back(col.takeValue());
            if (eatSymbol(","))
                continue;
            break;
        }
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
    }
    if (Status s = expectKeyword("AS"); !s.isOk())
        return s;
    if (!atKeyword("SELECT"))
        return err("expected SELECT after AS");
    auto select = parseSelect();
    if (!select.isOk())
        return select.status();
    stmt->select = select.takeValue();
    return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr>
Parser::parseInsert()
{
    advance(); // INSERT
    auto stmt = std::make_unique<InsertStmt>();
    if (eatKeyword("OR")) {
        if (Status s = expectKeyword("IGNORE"); !s.isOk())
            return s;
        stmt->orIgnore = true;
    }
    if (Status s = expectKeyword("INTO"); !s.isOk())
        return s;
    auto table = expectIdentifier("table name");
    if (!table.isOk())
        return table.status();
    stmt->table = table.takeValue();
    if (eatSymbol("(")) {
        for (;;) {
            auto col = expectIdentifier("column name");
            if (!col.isOk())
                return col.status();
            stmt->columns.push_back(col.takeValue());
            if (eatSymbol(","))
                continue;
            break;
        }
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
    }
    if (Status s = expectKeyword("VALUES"); !s.isOk())
        return s;
    for (;;) {
        if (Status s = expectSymbol("("); !s.isOk())
            return s;
        auto row = parseExprList();
        if (!row.isOk())
            return row.status();
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
        stmt->rows.push_back(row.takeValue());
        if (eatSymbol(","))
            continue;
        break;
    }
    return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr>
Parser::parseDrop()
{
    advance(); // DROP
    StmtKind kind;
    if (eatKeyword("TABLE")) {
        kind = StmtKind::DropTable;
    } else if (eatKeyword("VIEW")) {
        kind = StmtKind::DropView;
    } else if (eatKeyword("INDEX")) {
        kind = StmtKind::DropIndex;
    } else {
        return err("expected TABLE, VIEW, or INDEX after DROP");
    }
    auto stmt = std::make_unique<DropStmt>(kind);
    if (eatKeyword("IF")) {
        if (Status s = expectKeyword("EXISTS"); !s.isOk())
            return s;
        stmt->ifExists = true;
    }
    auto name = expectIdentifier("object name");
    if (!name.isOk())
        return name.status();
    stmt->name = name.takeValue();
    return StmtPtr(std::move(stmt));
}

StatusOr<TableRef>
Parser::parseTableRef()
{
    TableRef ref;
    if (eatSymbol("(")) {
        if (!atKeyword("SELECT"))
            return err("expected SELECT in derived table");
        auto select = parseSelect();
        if (!select.isOk())
            return select.status();
        ref.subquery = select.takeValue();
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
    } else {
        auto name = expectIdentifier("table name");
        if (!name.isOk())
            return name.status();
        ref.name = name.takeValue();
    }
    if (eatKeyword("AS")) {
        auto alias = expectIdentifier("alias");
        if (!alias.isOk())
            return alias.status();
        ref.alias = alias.takeValue();
    } else if (peek().kind == TokenKind::Identifier && !atKeyword("ON") &&
               !atKeyword("WHERE") && !atKeyword("GROUP") &&
               !atKeyword("HAVING") && !atKeyword("ORDER") &&
               !atKeyword("LIMIT") && !atKeyword("OFFSET") &&
               !atKeyword("INNER") && !atKeyword("LEFT") &&
               !atKeyword("RIGHT") && !atKeyword("FULL") &&
               !atKeyword("CROSS") && !atKeyword("NATURAL") &&
               !atKeyword("JOIN")) {
        ref.alias = advance().text;
    }
    if (ref.subquery && ref.alias.empty())
        return err("derived table requires an alias");
    return ref;
}

StatusOr<SelectPtr>
Parser::parseSelect()
{
    Nested nested(*this);
    if (Status s = checkNesting(); !s.isOk())
        return s;
    if (Status s = expectKeyword("SELECT"); !s.isOk())
        return s;
    auto select = std::make_unique<SelectStmt>();
    if (eatKeyword("DISTINCT"))
        select->distinct = true;
    else
        eatKeyword("ALL");
    // Select list.
    for (;;) {
        SelectItem item;
        if (eatSymbol("*")) {
            item.star = true;
        } else {
            auto expr = parseExpr();
            if (!expr.isOk())
                return expr.status();
            item.expr = expr.takeValue();
            if (eatKeyword("AS")) {
                auto alias = expectIdentifier("alias");
                if (!alias.isOk())
                    return alias.status();
                item.alias = alias.takeValue();
            }
        }
        select->items.push_back(std::move(item));
        if (eatSymbol(","))
            continue;
        break;
    }
    if (eatKeyword("FROM")) {
        for (;;) {
            auto ref = parseTableRef();
            if (!ref.isOk())
                return ref.status();
            select->from.push_back(ref.takeValue());
            // Join chain attached to the most recent source.
            for (;;) {
                JoinClause join;
                bool has_join = false;
                if (eatKeyword("INNER")) {
                    if (Status s = expectKeyword("JOIN"); !s.isOk())
                        return s;
                    join.type = JoinType::Inner;
                    has_join = true;
                } else if (eatKeyword("LEFT")) {
                    eatKeyword("OUTER");
                    if (Status s = expectKeyword("JOIN"); !s.isOk())
                        return s;
                    join.type = JoinType::Left;
                    has_join = true;
                } else if (eatKeyword("RIGHT")) {
                    eatKeyword("OUTER");
                    if (Status s = expectKeyword("JOIN"); !s.isOk())
                        return s;
                    join.type = JoinType::Right;
                    has_join = true;
                } else if (eatKeyword("FULL")) {
                    eatKeyword("OUTER");
                    if (Status s = expectKeyword("JOIN"); !s.isOk())
                        return s;
                    join.type = JoinType::Full;
                    has_join = true;
                } else if (eatKeyword("CROSS")) {
                    if (Status s = expectKeyword("JOIN"); !s.isOk())
                        return s;
                    join.type = JoinType::Cross;
                    has_join = true;
                } else if (eatKeyword("NATURAL")) {
                    if (Status s = expectKeyword("JOIN"); !s.isOk())
                        return s;
                    join.type = JoinType::Natural;
                    has_join = true;
                } else if (eatKeyword("JOIN")) {
                    join.type = JoinType::Inner;
                    has_join = true;
                }
                if (!has_join)
                    break;
                auto table = parseTableRef();
                if (!table.isOk())
                    return table.status();
                join.table = table.takeValue();
                if (join.type != JoinType::Cross &&
                    join.type != JoinType::Natural) {
                    if (Status s = expectKeyword("ON"); !s.isOk())
                        return s;
                    auto on = parseExpr();
                    if (!on.isOk())
                        return on.status();
                    join.on = on.takeValue();
                }
                select->joins.push_back(std::move(join));
            }
            if (eatSymbol(","))
                continue;
            break;
        }
    }
    if (eatKeyword("WHERE")) {
        auto where = parseExpr();
        if (!where.isOk())
            return where.status();
        select->where = where.takeValue();
    }
    if (eatKeyword("GROUP")) {
        if (Status s = expectKeyword("BY"); !s.isOk())
            return s;
        for (;;) {
            auto key = parseExpr();
            if (!key.isOk())
                return key.status();
            select->groupBy.push_back(key.takeValue());
            if (eatSymbol(","))
                continue;
            break;
        }
    }
    // HAVING is accepted without GROUP BY; the engine decides whether
    // the combination is legal (it requires aggregation).
    if (eatKeyword("HAVING")) {
        auto having = parseExpr();
        if (!having.isOk())
            return having.status();
        select->having = having.takeValue();
    }
    if (eatKeyword("ORDER")) {
        if (Status s = expectKeyword("BY"); !s.isOk())
            return s;
        for (;;) {
            OrderTerm term;
            auto expr = parseExpr();
            if (!expr.isOk())
                return expr.status();
            term.expr = expr.takeValue();
            if (eatKeyword("DESC"))
                term.ascending = false;
            else
                eatKeyword("ASC");
            select->orderBy.push_back(std::move(term));
            if (eatSymbol(","))
                continue;
            break;
        }
    }
    if (eatKeyword("LIMIT")) {
        if (peek().kind != TokenKind::Integer || peek().outOfRange)
            return err("expected integer after LIMIT");
        select->limit = advance().intValue;
    }
    if (eatKeyword("OFFSET")) {
        if (peek().kind != TokenKind::Integer || peek().outOfRange)
            return err("expected integer after OFFSET");
        select->offset = advance().intValue;
    }
    return select;
}

StatusOr<std::vector<ExprPtr>>
Parser::parseExprList()
{
    std::vector<ExprPtr> out;
    for (;;) {
        auto expr = parseExpr();
        if (!expr.isOk())
            return expr.status();
        out.push_back(expr.takeValue());
        if (eatSymbol(","))
            continue;
        break;
    }
    return out;
}

StatusOr<ExprPtr>
Parser::parseBinary(int min_level)
{
    // The chain measures its own height; the caller keeps the deeper.
    const size_t outer_peak = peak_;
    peak_ = depth_;
    // A chain at comparison level or looser ends in the postfix family;
    // after that, and after a prefix NOT, only AND and OR may follow.
    bool postfix_pending = min_level <= binding::Comparison;
    int max_level = binding::Concat;
    ExprPtr lhs;
    if (min_level <= binding::Not && atKeyword("NOT") &&
        !atKeyword("EXISTS", 1)) {
        advance();
        Nested nested(*this);
        if (Status s = checkNesting(); !s.isOk())
            return s;
        auto operand = parseBinary(binding::Not);
        if (!operand.isOk())
            return operand;
        lhs = std::make_unique<UnaryExpr>(UnaryOp::Not, operand.takeValue());
        postfix_pending = false;
        max_level = binding::Not;
    } else {
        auto operand = parseUnary();
        if (!operand.isOk())
            return operand;
        lhs = operand.takeValue();
    }
    for (;;) {
        const BinaryOpInfo *op = peekBinaryOp();
        if (postfix_pending &&
            (op == nullptr || op->level < binding::Comparison)) {
            auto post = parsePostfix(std::move(lhs));
            if (!post.isOk())
                return post;
            lhs = post.takeValue();
            postfix_pending = false;
            max_level = binding::Not;
            op = peekBinaryOp();
        }
        if (op == nullptr || op->level < min_level || op->level > max_level)
            break;
        advance();
        ++peak_; // the chain so far becomes the new node's left operand
        if (Status s = checkNesting(); !s.isOk())
            return s;
        auto rhs = parseBinary(op->level + 1);
        if (!rhs.isOk())
            return rhs;
        lhs = std::make_unique<BinaryExpr>(op->value, std::move(lhs),
                                           rhs.takeValue());
    }
    peak_ = std::max(outer_peak, peak_);
    return lhs;
}

StatusOr<ExprPtr>
Parser::parsePostfix(ExprPtr operand)
{
    for (;;) {
        bool negated = atKeyword("NOT") &&
                       (atKeyword("IN", 1) || atKeyword("BETWEEN", 1) ||
                        atKeyword("LIKE", 1));
        if (!negated && !atKeyword("IS") && !atKeyword("BETWEEN") &&
            !atKeyword("IN"))
            return operand;
        ++peak_; // the operand so far moves one level down
        if (Status s = checkNesting(); !s.isOk())
            return s;
        if (negated)
            advance(); // NOT
        if (eatKeyword("IS")) {
            bool is_not = eatKeyword("NOT");
            if (eatKeyword("DISTINCT")) {
                if (Status s = expectKeyword("FROM"); !s.isOk())
                    return s;
                auto rhs = parseBinary(binding::BitOr);
                if (!rhs.isOk())
                    return rhs;
                operand = std::make_unique<BinaryExpr>(
                    is_not ? BinaryOp::IsNotDistinctFrom
                           : BinaryOp::IsDistinctFrom,
                    std::move(operand), rhs.takeValue());
                continue;
            }
            UnaryOp op;
            if (eatKeyword("NULL"))
                op = is_not ? UnaryOp::IsNotNull : UnaryOp::IsNull;
            else if (eatKeyword("TRUE"))
                op = is_not ? UnaryOp::IsNotTrue : UnaryOp::IsTrue;
            else if (eatKeyword("FALSE"))
                op = is_not ? UnaryOp::IsNotFalse : UnaryOp::IsFalse;
            else
                return err("expected NULL, TRUE, FALSE, or DISTINCT after IS");
            operand = std::make_unique<UnaryExpr>(op, std::move(operand));
            continue;
        }
        if (negated && eatKeyword("LIKE")) {
            auto rhs = parseBinary(binding::BitOr);
            if (!rhs.isOk())
                return rhs;
            operand = std::make_unique<BinaryExpr>(
                BinaryOp::NotLike, std::move(operand), rhs.takeValue());
            continue;
        }
        if (eatKeyword("BETWEEN")) {
            auto low = parseBinary(binding::BitOr);
            if (!low.isOk())
                return low;
            if (Status s = expectKeyword("AND"); !s.isOk())
                return s;
            auto high = parseBinary(binding::BitOr);
            if (!high.isOk())
                return high;
            operand = std::make_unique<BetweenExpr>(
                std::move(operand), low.takeValue(), high.takeValue(),
                negated);
            continue;
        }
        advance(); // IN
        if (Status s = expectSymbol("("); !s.isOk())
            return s;
        if (atKeyword("SELECT")) {
            auto select = parseSelect();
            if (!select.isOk())
                return select.status();
            if (Status s = expectSymbol(")"); !s.isOk())
                return s;
            operand = std::make_unique<InSubqueryExpr>(
                std::move(operand), select.takeValue(), negated);
        } else {
            auto items = parseExprList();
            if (!items.isOk())
                return items.status();
            if (Status s = expectSymbol(")"); !s.isOk())
                return s;
            operand = std::make_unique<InListExpr>(
                std::move(operand), items.takeValue(), negated);
        }
    }
}

StatusOr<ExprPtr>
Parser::parseUnary()
{
    Nested nested(*this);
    if (Status s = checkNesting(); !s.isOk())
        return s;
    if (eatSymbol("-")) {
        // `-9223372036854775808` (the printed INT64_MIN literal) is the
        // one place an out-of-range magnitude is legal: the pair folds
        // into a single negative literal. stoll would need the sign it
        // cannot see from inside the integer token.
        if (peek().kind == TokenKind::Integer && peek().outOfRange &&
            peek().text == "9223372036854775808") {
            advance();
            return ExprPtr(std::make_unique<LiteralExpr>(
                Value::integer(INT64_MIN)));
        }
        auto operand = parseUnary();
        if (!operand.isOk())
            return operand;
        ExprPtr inner = operand.takeValue();
        // Fold "-<int literal>" into a negative literal so that
        // print/parse round trips are idempotent and negative constants
        // stay literal (index probes match "col > -3").
        if (inner->kind() == ExprKind::Literal) {
            const Value &value =
                static_cast<const LiteralExpr &>(*inner).value;
            if (value.kind() == Value::Kind::Int &&
                value.asInt() != INT64_MIN) {
                return ExprPtr(std::make_unique<LiteralExpr>(
                    Value::integer(-value.asInt())));
            }
        }
        return ExprPtr(
            std::make_unique<UnaryExpr>(UnaryOp::Neg, std::move(inner)));
    }
    if (eatSymbol("+")) {
        auto operand = parseUnary();
        if (!operand.isOk())
            return operand;
        return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::Plus,
                                                   operand.takeValue()));
    }
    if (eatSymbol("~")) {
        auto operand = parseUnary();
        if (!operand.isOk())
            return operand;
        return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::BitNot,
                                                   operand.takeValue()));
    }
    return parsePrimary();
}

StatusOr<ExprPtr>
Parser::parsePrimary()
{
    const Token &token = peek();
    if (token.kind == TokenKind::Integer) {
        if (token.outOfRange)
            return err("integer literal out of range");
        advance();
        return ExprPtr(
            std::make_unique<LiteralExpr>(Value::integer(token.intValue)));
    }
    if (token.kind == TokenKind::String) {
        advance();
        return ExprPtr(
            std::make_unique<LiteralExpr>(Value::text(token.text)));
    }
    if (eatSymbol("(")) {
        if (atKeyword("SELECT")) {
            auto select = parseSelect();
            if (!select.isOk())
                return select.status();
            if (Status s = expectSymbol(")"); !s.isOk())
                return s;
            return ExprPtr(
                std::make_unique<ScalarSubqueryExpr>(select.takeValue()));
        }
        auto inner = parseExpr();
        if (!inner.isOk())
            return inner;
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
        // Parenthesised operands can still take postfix forms:
        // (a) IS NULL, (a) IN (...), etc.
        return parsePostfix(inner.takeValue());
    }
    if (token.kind != TokenKind::Identifier)
        return err("expected expression");
    // Keyword-led primaries.
    if (atKeyword("NULL")) {
        advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::null()));
    }
    if (atKeyword("TRUE")) {
        advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::boolean(true)));
    }
    if (atKeyword("FALSE")) {
        advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::boolean(false)));
    }
    if (atKeyword("CAST")) {
        advance();
        if (Status s = expectSymbol("("); !s.isOk())
            return s;
        auto operand = parseExpr();
        if (!operand.isOk())
            return operand;
        if (Status s = expectKeyword("AS"); !s.isOk())
            return s;
        auto type_name = expectIdentifier("type name");
        if (!type_name.isOk())
            return type_name.status();
        DataType target;
        if (!parseDataType(type_name.value(), target))
            return err("unknown type '" + type_name.value() + "'");
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
        return ExprPtr(std::make_unique<CastExpr>(operand.takeValue(),
                                                  target));
    }
    if (atKeyword("CASE")) {
        advance();
        ExprPtr case_operand;
        if (!atKeyword("WHEN")) {
            auto operand = parseExpr();
            if (!operand.isOk())
                return operand;
            case_operand = operand.takeValue();
        }
        std::vector<CaseExpr::Arm> arms;
        while (eatKeyword("WHEN")) {
            auto when = parseExpr();
            if (!when.isOk())
                return when;
            if (Status s = expectKeyword("THEN"); !s.isOk())
                return s;
            auto then = parseExpr();
            if (!then.isOk())
                return then;
            arms.push_back(
                CaseExpr::Arm{when.takeValue(), then.takeValue()});
        }
        if (arms.empty())
            return err("CASE requires at least one WHEN arm");
        ExprPtr else_expr;
        if (eatKeyword("ELSE")) {
            auto inner = parseExpr();
            if (!inner.isOk())
                return inner;
            else_expr = inner.takeValue();
        }
        if (Status s = expectKeyword("END"); !s.isOk())
            return s;
        return ExprPtr(std::make_unique<CaseExpr>(std::move(case_operand),
                                                  std::move(arms),
                                                  std::move(else_expr)));
    }
    if (atKeyword("EXISTS") ||
        (atKeyword("NOT") && atKeyword("EXISTS", 1))) {
        bool negated = eatKeyword("NOT");
        advance(); // EXISTS
        if (Status s = expectSymbol("("); !s.isOk())
            return s;
        auto select = parseSelect();
        if (!select.isOk())
            return select.status();
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
        return ExprPtr(std::make_unique<ExistsExpr>(select.takeValue(),
                                                    negated));
    }
    // Function call or column reference.
    std::string first = advance().text;
    if (atSymbol("(")) {
        advance();
        std::string fn_name = toUpper(first);
        if (eatSymbol("*")) {
            if (Status s = expectSymbol(")"); !s.isOk())
                return s;
            return ExprPtr(std::make_unique<FunctionExpr>(
                fn_name, std::vector<ExprPtr>{}, /*star=*/true));
        }
        bool distinct = eatKeyword("DISTINCT");
        std::vector<ExprPtr> args;
        if (!atSymbol(")")) {
            auto list = parseExprList();
            if (!list.isOk())
                return list.status();
            args = list.takeValue();
        }
        if (Status s = expectSymbol(")"); !s.isOk())
            return s;
        return ExprPtr(std::make_unique<FunctionExpr>(
            fn_name, std::move(args), /*star=*/false, distinct));
    }
    if (eatSymbol(".")) {
        auto column = expectIdentifier("column name");
        if (!column.isOk())
            return column.status();
        return ExprPtr(
            std::make_unique<ColumnRefExpr>(first, column.takeValue()));
    }
    return ExprPtr(std::make_unique<ColumnRefExpr>("", std::move(first)));
}

} // namespace

StatusOr<StmtPtr>
parseStatement(const std::string &sql)
{
    auto tokens = tokenize(sql);
    if (!tokens.isOk())
        return tokens.status();
    Parser parser(tokens.takeValue());
    return parser.parseStatementTop();
}

StatusOr<ExprPtr>
parseExpression(const std::string &sql)
{
    auto tokens = tokenize(sql);
    if (!tokens.isOk())
        return tokens.status();
    Parser parser(tokens.takeValue());
    return parser.parseExpressionTop();
}

} // namespace sqlpp
