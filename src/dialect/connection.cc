#include "dialect/connection.h"

#include <chrono>
#include <optional>
#include <thread>

#include "parser/parser.h"
#include "util/metrics.h"
#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {

namespace {

/** Per-error-class counters (pre-resolved slots; names are stable). */
void
noteExecuteOutcome(const Status &status)
{
    switch (status.code()) {
      case ErrorCode::Ok:
        SQLPP_COUNT("connection.execute.ok");
        SQLPP_TRACE_EVENT(StatementExecuted, "", 1, 0);
        break;
      case ErrorCode::SyntaxError:
        SQLPP_COUNT("connection.error.syntax");
        SQLPP_TRACE_EVENT(ErrorClass, "syntax", 0, 0);
        break;
      case ErrorCode::SemanticError:
        SQLPP_COUNT("connection.error.semantic");
        SQLPP_TRACE_EVENT(ErrorClass, "semantic", 0, 0);
        break;
      case ErrorCode::RuntimeError:
        SQLPP_COUNT("connection.error.runtime");
        SQLPP_TRACE_EVENT(ErrorClass, "runtime", 0, 0);
        break;
      case ErrorCode::Unsupported:
        SQLPP_COUNT("connection.error.unsupported");
        SQLPP_TRACE_EVENT(ErrorClass, "unsupported", 0, 0);
        break;
      case ErrorCode::Internal:
        SQLPP_COUNT("connection.error.internal");
        SQLPP_TRACE_EVENT(ErrorClass, "internal", 0, 0);
        break;
      case ErrorCode::BudgetExhausted:
        SQLPP_COUNT("connection.error.budget");
        SQLPP_TRACE_EVENT(BudgetExhausted, "", 0, 0);
        break;
    }
}

} // namespace

Connection::Connection(const DialectProfile &profile,
                       const ConnectionOptions &options)
    : profile_(profile), options_(options)
{
    EngineConfig config;
    config.behavior = profile.behavior;
    config.faults = profile.faults;
    config.budget = options.budget;
    db_ = std::make_shared<Database>(config);
}

Connection::Connection(const DialectProfile &profile,
                       const ConnectionOptions &options,
                       StatementCache *cache)
    : Connection(profile, options)
{
    cache_ = cache;
}

Connection::Connection(const DialectProfile &profile,
                       const ConnectionOptions &options,
                       std::shared_ptr<Database> db)
    : profile_(profile), options_(options), db_(std::move(db))
{
    session_ = db_->openSession();
}

std::vector<uint64_t>
Connection::takeNewPlans()
{
    std::vector<uint64_t> drained;
    drained.swap(new_plans_);
    return drained;
}

size_t
Connection::pendingRows() const
{
    size_t total = 0;
    for (const auto &insert : pending_)
        total += insert->rows.size();
    return total;
}

StatusOr<ResultSet>
Connection::handleRefresh(const std::string &table)
{
    if (transient_failures_ > 0) {
        // Injected transient failure: fail before touching buffered
        // rows, so a retry sees the exact same pending queue.
        --transient_failures_;
        last_refresh_transient_ = true;
        return Status::runtimeError("transient REFRESH failure");
    }
    last_refresh_transient_ = false;
    ResultSet result(std::vector<std::string>{});
    std::vector<std::unique_ptr<InsertStmt>> keep;
    Status error = Status::ok();
    size_t index = 0;
    for (; index < pending_.size(); ++index) {
        auto &insert = pending_[index];
        if (!table.empty() && insert->table != table) {
            keep.push_back(std::move(insert));
            continue;
        }
        auto flushed = db_->executeStmt(*insert, options_.execMode,
                                        session_);
        if (!flushed.isOk()) {
            // Stop at the first failure: the failing INSERT is
            // consumed (its verdict is this error), but inserts that
            // were never attempted stay buffered for the next REFRESH
            // instead of being silently dropped.
            error = flushed.status();
            ++index;
            break;
        }
    }
    for (; index < pending_.size(); ++index)
        keep.push_back(std::move(pending_[index]));
    pending_ = std::move(keep);
    if (!error.isOk())
        return error;
    return result;
}

StatusOr<ResultSet>
Connection::execute(const std::string &sql)
{
    SQLPP_SPAN("connection.execute.wall_us");
    SQLPP_COUNT("connection.statements");
    auto result = executeInternal(sql);
    noteExecuteOutcome(result.status());
    // Budget exhaustion is a resource condition, not a wrong answer:
    // count it so campaigns can report it, distinct from real errors.
    if (!result.isOk() &&
        result.status().code() == ErrorCode::BudgetExhausted) {
        ++resource_errors_;
    }
    return result;
}

StatusOr<ResultSet>
Connection::executeInternal(const std::string &sql)
{
    ++statements_;
    // The flight recorder's logical clock: one tick per statement the
    // connection attempts, so traces never depend on wall time.
    SQLPP_TRACE_TICK();
    // REFRESH is not part of the engine grammar; it is a dialect-level
    // statement only refresh-required dialects accept.
    std::string_view trimmed = trim(sql);
    if (equalsIgnoreCase(trimmed.substr(0, 8), "REFRESH ") ||
        equalsIgnoreCase(trimmed, "REFRESH")) {
        if (!profile_.requiresRefreshAfterInsert) {
            return Status::syntaxError("syntax error near REFRESH");
        }
        std::string table;
        if (trimmed.size() > 8)
            table = std::string(trim(trimmed.substr(8)));
        if (!table.empty() && table.back() == ';')
            table.pop_back();
        return handleRefresh(table);
    }

    std::optional<StatusOr<StmtPtr>> fresh;
    const StatusOr<StmtPtr> &parsed =
        cache_ != nullptr ? cache_->parse(sql)
                          : fresh.emplace(parseStatement(sql));
    if (!parsed.isOk())
        return parsed.status();
    const Stmt &stmt = *parsed.value();

    if (Status s = profile_.validate(stmt); !s.isOk())
        return s;

    if (stmt.kind() == StmtKind::Select) {
        auto result = db_->executeStmt(stmt, options_.execMode, session_);
        // Only completed executions count as explored plans (failed
        // statements never finish a plan; counting them would let
        // invalid queries inflate the Fig. 8 metric).
        if (result.isOk() &&
            seen_plans_.insert(db_->lastPlanFingerprint()).second) {
            new_plans_.push_back(db_->lastPlanFingerprint());
            SQLPP_TRACE_EVENT(PlanDiscovered, "",
                              db_->lastPlanFingerprint(),
                              seen_plans_.size());
        }
        return result;
    }
    if (profile_.requiresRefreshAfterInsert &&
        stmt.kind() == StmtKind::Insert) {
        // Rows become visible (and constraints fire) at REFRESH time.
        auto clone = stmt.clone();
        pending_.emplace_back(
            static_cast<InsertStmt *>(clone.release()));
        return ResultSet(std::vector<std::string>{});
    }
    return db_->executeStmt(stmt, options_.execMode, session_);
}

StatusOr<ResultSet>
Connection::executeAdapted(const std::string &sql)
{
    size_t already_pending = pending_.size();
    auto result = execute(sql);
    if (!result.isOk())
        return result;
    if (profile_.requiresRefreshAfterInsert && !pending_.empty()) {
        // The per-dialect adapter: flush immediately so the platform
        // sees constraint errors attached to the INSERT it issued.
        bool buffered_now = pending_.size() > already_pending;
        auto refreshed = execute("REFRESH");
        // Transient flush failures are retried with exponential backoff
        // before the error is surfaced — the watchdog's second line of
        // defense after the per-statement budget.
        double backoff = options_.refreshRetry.backoffBaseMicros;
        for (size_t attempt = 0;
             !refreshed.isOk() && last_refresh_transient_ &&
             attempt < options_.refreshRetry.maxRetries;
             ++attempt) {
            ++refresh_retries_;
            SQLPP_COUNT("connection.refresh.retries");
            if (backoff >= 1.0) {
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<int64_t>(backoff)));
            }
            backoff *= options_.refreshRetry.backoffMultiplier;
            refreshed = execute("REFRESH");
        }
        if (!refreshed.isOk()) {
            // A transient failure that survived every retry touched no
            // insert at all; it is this statement's verdict. Otherwise
            // the flush stopped at the first failing INSERT: if this
            // statement's own insert failed (nothing buffered after it,
            // so a failure leaves the queue empty), the error is its
            // verdict; if an *older* buffered insert failed, this
            // statement's insert was never attempted and stays pending
            // — its result stands, and the error belongs to the
            // statement that buffered the failing insert.
            if (last_refresh_transient_ || !buffered_now ||
                pending_.empty())
                return refreshed.status();
        }
    }
    return result;
}

} // namespace sqlpp
