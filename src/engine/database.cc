#include "engine/database.h"

#include <set>

#include "engine/typecheck.h"
#include "parser/parser.h"
#include "util/coverage.h"

namespace sqlpp {

namespace {

/** Maximum columns per table / rows per insert, engine sanity limits. */
constexpr size_t kMaxColumns = 64;
constexpr size_t kMaxRowsPerTable = 1u << 18;

ResultSet
emptyResult()
{
    return ResultSet(std::vector<std::string>{});
}

} // namespace

StatusOr<ResultSet>
Database::execute(const std::string &sql)
{
    return execute(sql, kDefaultSession);
}

StatusOr<ResultSet>
Database::execute(const std::string &sql, SessionId session)
{
    auto parsed = parseStatement(sql);
    if (!parsed.isOk())
        return parsed.status();
    return executeStmt(*parsed.value(), ExecMode::Optimized, session);
}

StatusOr<ResultSet>
Database::executeReference(const std::string &sql)
{
    auto parsed = parseStatement(sql);
    if (!parsed.isOk())
        return parsed.status();
    return executeStmt(*parsed.value(), ExecMode::Reference);
}

StatusOr<ResultSet>
Database::executeStmt(const Stmt &stmt, ExecMode mode)
{
    return executeStmt(stmt, mode, kDefaultSession);
}

StatusOr<ResultSet>
Database::executeStmt(const Stmt &stmt, ExecMode mode, SessionId session)
{
    ++statements_;
    if (isTxnStmtKind(stmt.kind()))
        return runTxnStmt(static_cast<const TxnStmt &>(stmt), session);

    auto txn = txns_.find(session);
    bool in_txn = txn != txns_.end();
    Catalog &target = in_txn ? *txn->second.view : catalog_;

    if (config_.behavior.staticTyping) {
        Status status = typeCheckStatement(stmt, target);
        if (!status.isOk())
            return status;
    }
    if (stmt.kind() == StmtKind::Select) {
        SQLPP_COVER("db.select");
        const auto &select = static_cast<const SelectStmt &>(stmt);
        std::unique_ptr<Catalog> scratch;
        const Catalog &view =
            readCatalog(session, select.where != nullptr, scratch);
        BudgetMeter meter(config_.budget);
        Executor executor(view, config_.behavior, config_.faults,
                          mode, &meter);
        auto result = executor.runSelect(select);
        last_plan_ = executor.planDescription();
        last_fingerprint_ = executor.planFingerprint();
        return result;
    }

    // Writes: DDL and INSERT apply to the session's private version
    // inside a transaction (and are logged for COMMIT replay), or to
    // the shared committed catalog when auto-committing. Failures are
    // logged too — statements are not atomic, so a failed multi-row
    // INSERT's partial effect must survive the commit replay.
    auto result = applyWrite(target, stmt);
    if (in_txn)
        txn->second.log.push_back(LogEntry{stmt.clone(), result.isOk()});
    else if (result.isOk())
        ++commit_version_;
    return result;
}

StatusOr<ResultSet>
Database::applyWrite(Catalog &catalog, const Stmt &stmt)
{
    switch (stmt.kind()) {
      case StmtKind::CreateTable:
        SQLPP_COVER("db.create_table");
        return runCreateTable(catalog,
                              static_cast<const CreateTableStmt &>(stmt));
      case StmtKind::CreateIndex:
        SQLPP_COVER("db.create_index");
        return runCreateIndex(catalog,
                              static_cast<const CreateIndexStmt &>(stmt));
      case StmtKind::CreateView:
        SQLPP_COVER("db.create_view");
        return runCreateView(catalog,
                             static_cast<const CreateViewStmt &>(stmt));
      case StmtKind::Insert:
        SQLPP_COVER("db.insert");
        return runInsert(catalog, static_cast<const InsertStmt &>(stmt));
      case StmtKind::Analyze:
        SQLPP_COVER("db.analyze");
        return runAnalyze(catalog, static_cast<const AnalyzeStmt &>(stmt));
      case StmtKind::DropTable:
      case StmtKind::DropView:
      case StmtKind::DropIndex:
        SQLPP_COVER("db.drop");
        return runDrop(catalog, static_cast<const DropStmt &>(stmt));
      default:
        return Status::internal("unhandled statement kind");
    }
}

void
Database::overlayLog(Catalog &catalog, const std::vector<LogEntry> &log)
{
    // Best-effort: a fault view merges another session's uncommitted
    // writes; statements that no longer apply (duplicate DDL, rows
    // past limits) are silently dropped, as a buggy engine would.
    for (const LogEntry &entry : log)
        (void)applyWrite(catalog, *entry.stmt);
}

const Catalog &
Database::readCatalog(SessionId session, bool predicated,
                      std::unique_ptr<Catalog> &scratch)
{
    auto it = txns_.find(session);
    SessionTxn *txn = it == txns_.end() ? nullptr : &it->second;
    const Catalog *base = txn ? txn->view.get() : &catalog_;

    if (txn != nullptr) {
        // Snapshot leaks: the read follows latest-committed state
        // instead of the BEGIN snapshot — for every read under
        // TxnNonRepeatableRead, for predicated reads only under
        // TxnPhantomClaimedSnapshot (the index-rescan phantom).
        bool follow_committed =
            config_.faults.isEnabled(FaultId::TxnNonRepeatableRead) ||
            (predicated &&
             config_.faults.isEnabled(
                 FaultId::TxnPhantomClaimedSnapshot));
        if (follow_committed && commit_version_ != txn->baseVersion) {
            SQLPP_COVER("db.txn.fault.snapshot_leak");
            scratch = std::make_unique<Catalog>(catalog_);
            overlayLog(*scratch, txn->log);
            base = scratch.get();
        }
    }

    if (config_.faults.isEnabled(FaultId::TxnDirtyRead)) {
        // Reads additionally see every other session's uncommitted
        // writes, merged over whatever base the rules above chose.
        bool any_other = false;
        for (const auto &[sid, other] : txns_) {
            if (sid != session && !other.log.empty())
                any_other = true;
        }
        if (any_other) {
            SQLPP_COVER("db.txn.fault.dirty_read");
            if (scratch == nullptr || scratch.get() != base)
                scratch = std::make_unique<Catalog>(*base);
            for (const auto &[sid, other] : txns_) {
                if (sid != session)
                    overlayLog(*scratch, other.log);
            }
            base = scratch.get();
        }
    }
    return *base;
}

StatusOr<ResultSet>
Database::runTxnStmt(const TxnStmt &stmt, SessionId session)
{
    auto it = txns_.find(session);
    SessionTxn *txn = it == txns_.end() ? nullptr : &it->second;
    switch (stmt.kind()) {
      case StmtKind::Begin: {
        if (txn != nullptr) {
            return Status::semanticError(
                "cannot BEGIN: a transaction is already active");
        }
        SQLPP_COVER("db.txn.begin");
        SessionTxn fresh;
        fresh.view = std::make_unique<Catalog>(catalog_);
        fresh.baseVersion = commit_version_;
        txns_.emplace(session, std::move(fresh));
        return emptyResult();
      }
      case StmtKind::Commit: {
        if (txn == nullptr) {
            return Status::semanticError(
                "cannot COMMIT: no transaction is active");
        }
        SQLPP_COVER("db.txn.commit");
        if (config_.faults.isEnabled(FaultId::TxnLostUpdate)) {
            // The bug: publish the session's private version wholesale
            // instead of replaying its writes onto the latest committed
            // state — anything committed since BEGIN is clobbered.
            SQLPP_COVER("db.txn.fault.lost_update");
            catalog_ = std::move(*txn->view);
            ++commit_version_;
            txns_.erase(it);
            return emptyResult();
        }
        // First-committer-wins: replay the write log onto the latest
        // committed catalog. A replay failure of a statement that
        // succeeded in the transaction (e.g. a unique key a concurrent
        // commit claimed) aborts the whole transaction; statements
        // that already failed in the transaction replay best-effort to
        // reproduce their partial effects.
        auto staging = std::make_unique<Catalog>(catalog_);
        for (const LogEntry &entry : txn->log) {
            auto replayed = applyWrite(*staging, *entry.stmt);
            if (!replayed.isOk() && entry.ok) {
                SQLPP_COVER("db.txn.commit_conflict");
                Status aborted = Status::runtimeError(
                    "COMMIT aborted: " + replayed.status().message());
                txns_.erase(it);
                return aborted;
            }
        }
        catalog_ = std::move(*staging);
        ++commit_version_;
        txns_.erase(it);
        return emptyResult();
      }
      case StmtKind::Rollback: {
        if (txn == nullptr) {
            return Status::semanticError(
                "cannot ROLLBACK: no transaction is active");
        }
        SQLPP_COVER("db.txn.rollback");
        txns_.erase(it);
        return emptyResult();
      }
      case StmtKind::Savepoint: {
        if (txn == nullptr) {
            return Status::semanticError(
                "SAVEPOINT outside a transaction");
        }
        SQLPP_COVER("db.txn.savepoint");
        TxnSavepoint savepoint;
        savepoint.name = stmt.savepoint;
        savepoint.snapshot = std::make_unique<Catalog>(*txn->view);
        savepoint.logSize = txn->log.size();
        txn->savepoints.push_back(std::move(savepoint));
        return emptyResult();
      }
      case StmtKind::RollbackTo: {
        if (txn == nullptr) {
            return Status::semanticError(
                "ROLLBACK TO outside a transaction");
        }
        for (size_t i = txn->savepoints.size(); i-- > 0;) {
            if (txn->savepoints[i].name != stmt.savepoint)
                continue;
            SQLPP_COVER("db.txn.rollback_to");
            TxnSavepoint &savepoint = txn->savepoints[i];
            txn->view =
                std::make_unique<Catalog>(*savepoint.snapshot);
            txn->log.resize(savepoint.logSize);
            // The savepoint itself survives (SQL semantics); only
            // younger savepoints are discarded.
            txn->savepoints.resize(i + 1);
            return emptyResult();
        }
        return Status::semanticError("no such savepoint: " +
                                     stmt.savepoint);
      }
      case StmtKind::Release: {
        if (txn == nullptr) {
            return Status::semanticError(
                "RELEASE outside a transaction");
        }
        for (size_t i = txn->savepoints.size(); i-- > 0;) {
            if (txn->savepoints[i].name != stmt.savepoint)
                continue;
            SQLPP_COVER("db.txn.release");
            txn->savepoints.resize(i);
            return emptyResult();
        }
        return Status::semanticError("no such savepoint: " +
                                     stmt.savepoint);
      }
      default:
        return Status::internal("not a transaction statement");
    }
}

StatusOr<ResultSet>
Database::runCreateTable(Catalog &catalog, const CreateTableStmt &stmt)
{
    if (catalog.hasObject(stmt.name)) {
        if (stmt.ifNotExists && catalog.hasTable(stmt.name))
            return emptyResult();
        return Status::semanticError("object already exists: " +
                                     stmt.name);
    }
    if (stmt.columns.empty())
        return Status::semanticError("table needs at least one column");
    if (stmt.columns.size() > kMaxColumns)
        return Status::semanticError("too many columns");
    std::set<std::string> names;
    for (const ColumnDef &col : stmt.columns) {
        if (!names.insert(col.name).second) {
            return Status::semanticError("duplicate column name: " +
                                         col.name);
        }
    }
    StoredTable table;
    table.name = stmt.name;
    table.columns = stmt.columns;
    // PRIMARY KEY and UNIQUE columns get implicit unique indexes, which
    // also gives the optimizer probe targets.
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
        const ColumnDef &col = stmt.columns[i];
        if (col.primaryKey || col.unique) {
            StoredIndex index;
            index.name = "__uniq_" + stmt.name + "_" + col.name;
            index.columnOrdinals = {i};
            index.unique = true;
            table.indexes.push_back(std::move(index));
        }
    }
    return catalog.addTable(std::move(table)).isOk()
               ? StatusOr<ResultSet>(emptyResult())
               : StatusOr<ResultSet>(Status::semanticError(
                     "object already exists: " + stmt.name));
}

StatusOr<ResultSet>
Database::runCreateIndex(Catalog &catalog, const CreateIndexStmt &stmt)
{
    if (catalog.hasObject(stmt.name))
        return Status::semanticError("object already exists: " + stmt.name);
    StoredTable *table = catalog.table(stmt.table);
    if (table == nullptr) {
        return Status::semanticError("no such table: " + stmt.table);
    }
    StoredIndex index;
    index.name = stmt.name;
    index.unique = stmt.unique;
    std::set<std::string> seen;
    for (const std::string &column : stmt.columns) {
        size_t ordinal = table->columnOrdinal(column);
        if (ordinal == StoredTable::npos)
            return Status::semanticError("no such column: " + column);
        if (!seen.insert(column).second) {
            return Status::semanticError("duplicate column in index: " +
                                         column);
        }
        index.columnOrdinals.push_back(ordinal);
    }
    if (stmt.where != nullptr)
        index.predicate = stmt.where->clone();

    // Populate from existing rows; a UNIQUE index creation fails when
    // the data already violates it.
    Scope scope;
    std::vector<std::string> column_names;
    for (const ColumnDef &col : table->columns)
        column_names.push_back(col.name);
    scope.addBinding(table->name, column_names);
    for (size_t ri = 0; ri < table->rows.size(); ++ri) {
        const Row &row = table->rows[ri];
        if (index.predicate != nullptr) {
            EvalContext ctx;
            ctx.scope = &scope;
            ctx.row = row;
            ctx.behavior = &config_.behavior;
            ctx.faults = &config_.faults;
            auto value = evalExpr(*index.predicate, ctx);
            if (!value.isOk())
                return value.status();
            auto truth = valueTruth(value.value());
            if (!truth.has_value() || !*truth)
                continue;
        }
        std::vector<Value> key;
        for (size_t ordinal : index.columnOrdinals)
            key.push_back(row[ordinal]);
        if (index.unique && index.containsConflictingKey(key)) {
            return Status::runtimeError(
                "UNIQUE constraint failed creating index " + stmt.name);
        }
        index.insert(std::move(key), ri);
    }
    Status status = catalog.addIndex(stmt.table, std::move(index));
    if (!status.isOk())
        return status;
    return emptyResult();
}

StatusOr<ResultSet>
Database::runCreateView(Catalog &catalog, const CreateViewStmt &stmt)
{
    if (catalog.hasObject(stmt.name))
        return Status::semanticError("object already exists: " + stmt.name);
    // Validate the body by executing it once (cheap at generator scale)
    // and fix the output arity.
    Executor executor(catalog, config_.behavior, config_.faults,
                      ExecMode::Optimized);
    auto result = executor.runSelect(*stmt.select);
    if (!result.isOk())
        return result.status();
    if (!stmt.columnNames.empty() &&
        stmt.columnNames.size() != result.value().columnCount()) {
        return Status::semanticError(
            "view column list does not match query: " + stmt.name);
    }
    std::set<std::string> names(stmt.columnNames.begin(),
                                stmt.columnNames.end());
    if (names.size() != stmt.columnNames.size())
        return Status::semanticError("duplicate view column name");
    StoredView view;
    view.name = stmt.name;
    view.columnNames = stmt.columnNames;
    view.select = stmt.select->cloneSelect();
    Status status = catalog.addView(std::move(view));
    if (!status.isOk())
        return status;
    return emptyResult();
}

Value
Database::coerceForColumn(const Value &value, DataType type) const
{
    if (value.isNull())
        return value;
    switch (type) {
      case DataType::Int: {
        if (value.kind() == Value::Kind::Int)
            return value;
        if (value.kind() == Value::Kind::Bool)
            return Value::integer(value.asBool() ? 1 : 0);
        // TEXT into an INTEGER column: convert only when the text is a
        // complete integer literal, otherwise keep the text (SQLite
        // affinity).
        const std::string &text = value.asText();
        if (!text.empty()) {
            size_t i = (text[0] == '-' || text[0] == '+') ? 1 : 0;
            bool all_digits = i < text.size();
            for (; i < text.size(); ++i) {
                if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
                    all_digits = false;
                    break;
                }
            }
            if (all_digits)
                return Value::integer(*valueToNumeric(value));
        }
        return value;
      }
      case DataType::Text:
        if (value.kind() == Value::Kind::Text)
            return value;
        return Value::text(value.toString());
      case DataType::Bool:
        if (value.kind() == Value::Kind::Bool)
            return value;
        return Value::boolean(valueTruth(value).value_or(false));
    }
    return value;
}

StatusOr<ResultSet>
Database::runInsert(Catalog &catalog, const InsertStmt &stmt)
{
    StoredTable *table = catalog.table(stmt.table);
    if (table == nullptr) {
        if (catalog.hasView(stmt.table))
            return Status::semanticError("cannot insert into a view");
        return Status::semanticError("no such table: " + stmt.table);
    }
    // Map of insert positions to column ordinals.
    std::vector<size_t> targets;
    if (stmt.columns.empty()) {
        for (size_t i = 0; i < table->columns.size(); ++i)
            targets.push_back(i);
    } else {
        std::set<std::string> seen;
        for (const std::string &name : stmt.columns) {
            size_t ordinal = table->columnOrdinal(name);
            if (ordinal == StoredTable::npos)
                return Status::semanticError("no such column: " + name);
            if (!seen.insert(name).second) {
                return Status::semanticError("duplicate column: " + name);
            }
            targets.push_back(ordinal);
        }
    }

    EvalContext ctx;
    ctx.behavior = &config_.behavior;
    ctx.faults = &config_.faults;

    for (const auto &exprs : stmt.rows) {
        if (exprs.size() != targets.size()) {
            return Status::semanticError(
                "INSERT value count does not match column count");
        }
        if (table->rows.size() >= kMaxRowsPerTable)
            return Status::runtimeError("table is full");
        Row row(table->columns.size()); // defaults are NULL
        for (size_t i = 0; i < exprs.size(); ++i) {
            auto value = evalExpr(*exprs[i], ctx);
            if (!value.isOk())
                return value.status();
            row[targets[i]] = coerceForColumn(
                value.value(), table->columns[targets[i]].type);
        }
        // Constraint checks.
        Status violation = Status::ok();
        for (size_t i = 0; i < table->columns.size(); ++i) {
            const ColumnDef &col = table->columns[i];
            if ((col.notNull || col.primaryKey) && row[i].isNull()) {
                violation = Status::runtimeError(
                    "NOT NULL constraint failed: " + col.name);
                break;
            }
        }
        // Unique indexes (includes implicit PK/UNIQUE indexes).
        Scope scope;
        std::vector<std::string> column_names;
        for (const ColumnDef &col : table->columns)
            column_names.push_back(col.name);
        scope.addBinding(table->name, column_names);
        if (violation.isOk()) {
            for (StoredIndex &index : table->indexes) {
                if (!index.unique)
                    continue;
                bool applies = true;
                if (index.predicate != nullptr) {
                    EvalContext pred_ctx;
                    pred_ctx.scope = &scope;
                    pred_ctx.row = row;
                    pred_ctx.behavior = &config_.behavior;
                    pred_ctx.faults = &config_.faults;
                    auto value = evalExpr(*index.predicate, pred_ctx);
                    if (!value.isOk())
                        return value.status();
                    auto truth = valueTruth(value.value());
                    applies = truth.has_value() && *truth;
                }
                if (!applies)
                    continue;
                std::vector<Value> key;
                for (size_t ordinal : index.columnOrdinals)
                    key.push_back(row[ordinal]);
                if (index.containsConflictingKey(key)) {
                    violation = Status::runtimeError(
                        "UNIQUE constraint failed: " + index.name);
                    break;
                }
            }
        }
        if (!violation.isOk()) {
            if (stmt.orIgnore) {
                SQLPP_COVER("db.insert.or_ignore_skip");
                continue;
            }
            return violation;
        }
        // Commit the row and maintain all indexes.
        size_t ordinal = table->rows.size();
        for (StoredIndex &index : table->indexes) {
            bool applies = true;
            if (index.predicate != nullptr) {
                EvalContext pred_ctx;
                pred_ctx.scope = &scope;
                pred_ctx.row = row;
                pred_ctx.behavior = &config_.behavior;
                pred_ctx.faults = &config_.faults;
                auto value = evalExpr(*index.predicate, pred_ctx);
                if (!value.isOk())
                    return value.status();
                auto truth = valueTruth(value.value());
                applies = truth.has_value() && *truth;
            }
            if (!applies)
                continue;
            std::vector<Value> key;
            for (size_t idx_ordinal : index.columnOrdinals)
                key.push_back(row[idx_ordinal]);
            index.insert(std::move(key), ordinal);
        }
        table->rows.push_back(std::move(row));
        table->analyzed = false;
    }
    return emptyResult();
}

StatusOr<ResultSet>
Database::runAnalyze(Catalog &catalog, const AnalyzeStmt &stmt)
{
    auto analyze_table = [](StoredTable &table) {
        table.stats.assign(table.columns.size(), ColumnStats{});
        for (size_t c = 0; c < table.columns.size(); ++c) {
            std::set<Value> distinct;
            for (const Row &row : table.rows) {
                if (row[c].isNull())
                    ++table.stats[c].nullCount;
                else
                    distinct.insert(row[c]);
            }
            table.stats[c].distinctValues = distinct.size();
        }
        table.analyzed = true;
    };
    if (!stmt.table.empty()) {
        StoredTable *table = catalog.table(stmt.table);
        if (table == nullptr)
            return Status::semanticError("no such table: " + stmt.table);
        analyze_table(*table);
        return emptyResult();
    }
    for (const std::string &name : catalog.tableNames())
        analyze_table(*catalog.table(name));
    return emptyResult();
}

StatusOr<ResultSet>
Database::runDrop(Catalog &catalog, const DropStmt &stmt)
{
    Status status = Status::ok();
    switch (stmt.kind()) {
      case StmtKind::DropTable:
        status = catalog.dropTable(stmt.name);
        break;
      case StmtKind::DropView:
        status = catalog.dropView(stmt.name);
        break;
      case StmtKind::DropIndex:
        status = catalog.dropIndex(stmt.name);
        break;
      default:
        return Status::internal("bad drop kind");
    }
    if (!status.isOk() && stmt.ifExists)
        return emptyResult();
    if (!status.isOk())
        return status;
    return emptyResult();
}

} // namespace sqlpp
