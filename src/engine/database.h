/**
 * @file
 * Database: the top-level facade of the DBMS substrate.
 *
 * A Database owns a catalog and executes SQL text end-to-end:
 * parse → (static type check) → plan → execute, returning either a
 * ResultSet or a coded error — the exact observable interface of a real
 * DBMS behind a client library, which is all the testing platform ever
 * sees. Behaviour knobs (EngineBehavior) and injected logic bugs
 * (FaultSet) are fixed at construction by the dialect profile.
 *
 * Sessions and transactions: a Database is shared by any number of
 * sessions (SessionId; 0 is the implicit default session). Outside an
 * explicit transaction every statement auto-commits against the shared
 * committed catalog. BEGIN gives the session a snapshot-isolated
 * private version of the catalog: its own writes are visible only to
 * itself, concurrent commits are invisible until it ends. COMMIT
 * replays the session's write log onto the latest committed catalog
 * (first-committer-wins: a replay failure aborts the transaction),
 * ROLLBACK discards the private version, and SAVEPOINT / ROLLBACK TO /
 * RELEASE checkpoint it mid-transaction. The isolation fault family
 * (FaultId 60-block) deliberately corrupts these visibility rules in
 * ways that are exact no-ops for single-session use.
 */
#ifndef SQLPP_ENGINE_DATABASE_H
#define SQLPP_ENGINE_DATABASE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/eval.h"
#include "engine/executor.h"
#include "engine/faults.h"
#include "util/status.h"

namespace sqlpp {

/** Construction-time configuration of a Database. */
struct EngineConfig
{
    EngineBehavior behavior;
    FaultSet faults;
    /**
     * Per-statement execution budget applied to every SELECT (a fresh
     * meter per statement). Defaults preserve historical behaviour:
     * steps/rows unlimited, intermediate rows capped at 50000.
     */
    StepBudget budget;
};

/** Identifies one open session of a Database; 0 is the default. */
using SessionId = uint32_t;

/** An in-process DBMS instance. */
class Database
{
  public:
    static constexpr SessionId kDefaultSession = 0;

    Database() = default;
    explicit Database(EngineConfig config) : config_(std::move(config)) {}

    /** Execute one SQL statement through the optimized pipeline. */
    StatusOr<ResultSet> execute(const std::string &sql);

    /** Execute SQL text on a specific session (optimized pipeline). */
    StatusOr<ResultSet> execute(const std::string &sql, SessionId session);

    /**
     * Execute through the reference (non-optimizing) pipeline. DDL/DML
     * behave identically; only SELECT planning differs. Used by engine
     * differential tests; the NoREC oracle instead reaches the reference
     * behaviour the paper's way, by query rewriting.
     */
    StatusOr<ResultSet> executeReference(const std::string &sql);

    /** Execute an already-parsed statement (default session). */
    StatusOr<ResultSet> executeStmt(const Stmt &stmt, ExecMode mode);

    /** Execute an already-parsed statement on a specific session. */
    StatusOr<ResultSet> executeStmt(const Stmt &stmt, ExecMode mode,
                                    SessionId session);

    /**
     * Allocate a fresh session id. Sessions carry no state until they
     * BEGIN a transaction, so this never fails and needs no close —
     * but a session that dies mid-transaction should rollback().
     */
    SessionId openSession() { return next_session_++; }

    /** True while the session has an explicit transaction open. */
    bool inTransaction(SessionId session = kDefaultSession) const
    {
        return txns_.count(session) > 0;
    }

    /** Number of sessions with an open transaction. */
    size_t openTransactions() const { return txns_.size(); }

    /** Plan description of the last executed SELECT ("" if none). */
    const std::string &lastPlanDescription() const { return last_plan_; }

    /** Fingerprint of the last executed SELECT's plan (0 if none). */
    uint64_t lastPlanFingerprint() const { return last_fingerprint_; }

    /** The latest *committed* catalog (open transactions excluded). */
    const Catalog &catalog() const { return catalog_; }
    const EngineConfig &config() const { return config_; }

    /** Total statements executed (both pipelines, all sessions). */
    uint64_t statementsExecuted() const { return statements_; }

  private:
    /**
     * One attempted write inside a transaction. Failed statements are
     * logged too: engine statements are not atomic (a multi-row INSERT
     * that trips a constraint keeps its earlier rows), so COMMIT must
     * replay failures to reproduce their partial effects. `ok` records
     * the in-transaction outcome — only a statement that succeeded in
     * the transaction aborts the COMMIT when its replay fails (a real
     * first-committer conflict); an originally-failed statement is
     * replayed best-effort.
     */
    struct LogEntry
    {
        StmtPtr stmt;
        bool ok = true;
    };

    /** One SAVEPOINT checkpoint inside an open transaction. */
    struct TxnSavepoint
    {
        std::string name;
        std::unique_ptr<Catalog> snapshot;
        size_t logSize = 0;
    };

    /** Per-session transaction state; exists only while one is open. */
    struct SessionTxn
    {
        /** The session's private version of the database. */
        std::unique_ptr<Catalog> view;
        /** Attempted writes, replayed in order at COMMIT. */
        std::vector<LogEntry> log;
        std::vector<TxnSavepoint> savepoints;
        /** commit_version_ observed at BEGIN (snapshot identity). */
        uint64_t baseVersion = 0;
    };

    StatusOr<ResultSet> runTxnStmt(const TxnStmt &stmt, SessionId session);

    /** Dispatch a (non-SELECT, non-txn) write against a catalog. */
    StatusOr<ResultSet> applyWrite(Catalog &catalog, const Stmt &stmt);

    /** Best-effort replay of a write log onto a catalog (fault views). */
    void overlayLog(Catalog &catalog,
                    const std::vector<LogEntry> &log);

    /**
     * The catalog a read on `session` must see, honouring any enabled
     * isolation faults. When a fault view has to be materialized it is
     * built into `scratch` and a reference to it is returned.
     */
    const Catalog &readCatalog(SessionId session, bool predicated,
                               std::unique_ptr<Catalog> &scratch);

    StatusOr<ResultSet> runCreateTable(Catalog &catalog,
                                       const CreateTableStmt &stmt);
    StatusOr<ResultSet> runCreateIndex(Catalog &catalog,
                                       const CreateIndexStmt &stmt);
    StatusOr<ResultSet> runCreateView(Catalog &catalog,
                                      const CreateViewStmt &stmt);
    StatusOr<ResultSet> runInsert(Catalog &catalog,
                                  const InsertStmt &stmt);
    StatusOr<ResultSet> runAnalyze(Catalog &catalog,
                                   const AnalyzeStmt &stmt);
    StatusOr<ResultSet> runDrop(Catalog &catalog, const DropStmt &stmt);

    /** Coerce a value to a column's declared type (dynamic affinity). */
    Value coerceForColumn(const Value &value, DataType type) const;

    EngineConfig config_;
    Catalog catalog_;
    std::string last_plan_;
    uint64_t last_fingerprint_ = 0;
    uint64_t statements_ = 0;
    /** Open transactions by session id. */
    std::map<SessionId, SessionTxn> txns_;
    SessionId next_session_ = 1;
    /** Bumped on every commit / auto-commit write (snapshot clock). */
    uint64_t commit_version_ = 0;
};

} // namespace sqlpp

#endif // SQLPP_ENGINE_DATABASE_H
