/**
 * @file
 * Connection: the platform's JDBC equivalent.
 *
 * A Connection binds a dialect profile to a fresh Database instance and
 * exposes the one operation the testing platform relies on:
 * execute(text) -> rows or a coded error. It also implements the
 * dialect adaptation the paper describes as the remaining manual effort
 * (Section 6): for dialects with deferred visibility (cratedb-like),
 * INSERTed rows stay invisible until a REFRESH <table> statement runs,
 * and executeAdapted() issues that REFRESH automatically after each
 * INSERT — the equivalent of the paper's ~16-LoC-per-DBMS adapters.
 */
#ifndef SQLPP_DIALECT_CONNECTION_H
#define SQLPP_DIALECT_CONNECTION_H

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dialect/profile.h"
#include "engine/database.h"
#include "parser/statement_cache.h"

namespace sqlpp {

/**
 * Retry policy for transient REFRESH failures (a distributed store's
 * flush can fail transiently; real adapters retry with backoff before
 * giving up on the shard).
 */
struct RefreshRetryPolicy
{
    /** Retries after the initial attempt; 0 disables retrying. */
    size_t maxRetries = 3;
    /** Sleep before the first retry, in microseconds. */
    unsigned backoffBaseMicros = 500;
    /** Multiplier applied to the sleep after each failed retry. */
    double backoffMultiplier = 2.0;
};

/** Session knobs a campaign applies to every connection it opens. */
struct ConnectionOptions
{
    /** Per-statement execution budget for the underlying engine. */
    StepBudget budget;
    RefreshRetryPolicy refreshRetry;
    /** Execution pipeline every statement on this session runs under. */
    ExecMode execMode = ExecMode::Optimized;
};

/** One open session against one dialect's DBMS instance. */
class Connection
{
  public:
    explicit Connection(const DialectProfile &profile,
                        const ConnectionOptions &options = {});

    /**
     * Open an additional session against an existing Database — the
     * multi-session form used by interleaved transaction testing. The
     * first connection is built normally; subsequent ones share its
     * engine via sharedDatabase() and get their own SessionId, so
     * transactions on each connection are isolated from one another.
     */
    Connection(const DialectProfile &profile,
               const ConnectionOptions &options,
               std::shared_ptr<Database> db);

    /**
     * A fresh session that parses through @p cache: each distinct text
     * is parsed once across every connection sharing the cache. For
     * replay loops, which run the same texts on fresh databases; the
     * cache must outlive the connection. A null cache parses every
     * statement afresh, as the two-argument form does.
     */
    Connection(const DialectProfile &profile,
               const ConnectionOptions &options, StatementCache *cache);

    /**
     * Execute one SQL statement exactly as a client would: parse,
     * dialect validation, then engine execution. On refresh-required
     * dialects, INSERT buffers rows until `REFRESH <table>` runs.
     */
    StatusOr<ResultSet> execute(const std::string &sql);

    /**
     * Execute with the per-dialect adaptation applied: after an INSERT
     * on a refresh-required dialect, automatically issue the REFRESH
     * and surface its status (so constraint violations are not lost).
     */
    StatusOr<ResultSet> executeAdapted(const std::string &sql);

    const DialectProfile &profile() const { return profile_; }

    /** Instrumentation access (plan fingerprints, catalog inspection). */
    const Database &database() const { return *db_; }

    /** The shared engine, for opening further sessions against it. */
    std::shared_ptr<Database> sharedDatabase() const { return db_; }

    /** True while this connection has an explicit transaction open. */
    bool inTransaction() const { return db_->inTransaction(session_); }

    /** Number of rows currently buffered awaiting REFRESH. */
    size_t pendingRows() const;

    /** Statements executed through this connection. */
    uint64_t statementsIssued() const { return statements_; }

    /**
     * Distinct plan fingerprints of every SELECT executed through this
     * connection — the paper's unique-query-plan metric (Fig. 8).
     */
    const std::set<uint64_t> &seenPlans() const { return seen_plans_; }

    /**
     * Fingerprints first seen since the previous call, drained. Lets a
     * campaign accumulate plans incrementally in O(new) per check
     * instead of re-scanning the full seenPlans() set every time.
     */
    std::vector<uint64_t> takeNewPlans();

    /**
     * Statements that failed with ErrorCode::BudgetExhausted — resource
     * conditions, never bugs; campaigns report them separately.
     */
    uint64_t resourceErrors() const { return resource_errors_; }

    /** REFRESH retries performed after transient failures. */
    uint64_t refreshRetries() const { return refresh_retries_; }

    /**
     * Test hook: make the next @p count REFRESH flushes fail with a
     * transient runtime error before touching buffered rows.
     */
    void injectTransientRefreshFailures(size_t count)
    {
        transient_failures_ = count;
    }

  private:
    StatusOr<ResultSet> executeInternal(const std::string &sql);
    StatusOr<ResultSet> handleRefresh(const std::string &table);

    const DialectProfile &profile_;
    ConnectionOptions options_;
    std::shared_ptr<Database> db_;
    /** Parse outcomes shared with other replays; null parses afresh. */
    StatementCache *cache_ = nullptr;
    /** Engine session this connection's statements run on. */
    SessionId session_ = Database::kDefaultSession;
    /** Buffered INSERTs per refresh-required dialect semantics. */
    std::vector<std::unique_ptr<InsertStmt>> pending_;
    uint64_t statements_ = 0;
    uint64_t resource_errors_ = 0;
    uint64_t refresh_retries_ = 0;
    /** Injected transient REFRESH failures still owed (test hook). */
    size_t transient_failures_ = 0;
    /** True when the most recent REFRESH failed transiently. */
    bool last_refresh_transient_ = false;
    std::set<uint64_t> seen_plans_;
    /** Fingerprints added to seen_plans_ since the last drain. */
    std::vector<uint64_t> new_plans_;
};

} // namespace sqlpp

#endif // SQLPP_DIALECT_CONNECTION_H
