/**
 * @file
 * Engine transaction semantics: BEGIN/COMMIT/ROLLBACK, savepoints,
 * snapshot visibility across sessions, first-committer-wins conflicts,
 * and the isolation-fault family.
 */
#include <gtest/gtest.h>

#include "engine/database.h"
#include "parser/parser.h"

namespace sqlpp {
namespace {

class TxnTest : public ::testing::Test
{
  protected:
    ResultSet
    ok(const std::string &sql, SessionId session = 0)
    {
        auto result = db.execute(sql, session);
        EXPECT_TRUE(result.isOk())
            << sql << " -> " << result.status().toString();
        return result.isOk() ? result.takeValue() : ResultSet();
    }

    Status
    err(const std::string &sql, SessionId session = 0)
    {
        auto result = db.execute(sql, session);
        EXPECT_FALSE(result.isOk()) << sql;
        return result.isOk() ? Status::ok() : result.status();
    }

    int64_t
    count(const std::string &table, SessionId session = 0)
    {
        ResultSet result =
            ok("SELECT COUNT(*) FROM " + table, session);
        EXPECT_EQ(result.rowCount(), 1u);
        return result.rows()[0][0].asInt();
    }

    Database db;
};

TEST_F(TxnTest, CommitPublishesRollbackDiscards)
{
    ok("CREATE TABLE t (a INT)");
    ok("INSERT INTO t VALUES (1)");
    SessionId s = db.openSession();
    ok("BEGIN", s);
    EXPECT_TRUE(db.inTransaction(s));
    ok("INSERT INTO t VALUES (2)", s);
    EXPECT_EQ(count("t", s), 2);
    EXPECT_EQ(count("t"), 1); // invisible outside until COMMIT
    ok("COMMIT", s);
    EXPECT_FALSE(db.inTransaction(s));
    EXPECT_EQ(count("t"), 2);

    ok("BEGIN", s);
    ok("INSERT INTO t VALUES (3)", s);
    ok("ROLLBACK", s);
    EXPECT_EQ(count("t"), 2);
    EXPECT_EQ(count("t", s), 2);
}

TEST_F(TxnTest, SnapshotHidesConcurrentCommits)
{
    ok("CREATE TABLE t (a INT)");
    SessionId reader = db.openSession();
    SessionId writer = db.openSession();
    ok("BEGIN", reader);
    EXPECT_EQ(count("t", reader), 0);
    ok("BEGIN", writer);
    ok("INSERT INTO t VALUES (1)", writer);
    ok("COMMIT", writer);
    // Snapshot isolation: the commit landed after reader's BEGIN.
    EXPECT_EQ(count("t", reader), 0);
    ResultSet filtered = ok("SELECT a FROM t WHERE a < 10", reader);
    EXPECT_EQ(filtered.rowCount(), 0u);
    ok("COMMIT", reader);
    EXPECT_EQ(count("t", reader), 1);
}

TEST_F(TxnTest, TransactionalDdlIsSnapshotted)
{
    SessionId s = db.openSession();
    ok("BEGIN", s);
    ok("CREATE TABLE t (a INT)", s);
    ok("INSERT INTO t VALUES (1)", s);
    EXPECT_EQ(count("t", s), 1);
    EXPECT_EQ(err("SELECT COUNT(*) FROM t").code(),
              ErrorCode::SemanticError); // not yet committed
    ok("COMMIT", s);
    EXPECT_EQ(count("t"), 1);
}

TEST_F(TxnTest, SavepointRollbackToAndRelease)
{
    ok("CREATE TABLE t (a INT)");
    SessionId s = db.openSession();
    ok("BEGIN", s);
    ok("INSERT INTO t VALUES (1)", s);
    ok("SAVEPOINT sp1", s);
    ok("INSERT INTO t VALUES (2)", s);
    ok("SAVEPOINT sp2", s);
    ok("INSERT INTO t VALUES (3)", s);
    EXPECT_EQ(count("t", s), 3);
    ok("ROLLBACK TO sp1", s);
    EXPECT_EQ(count("t", s), 1);
    // sp1 survives its own ROLLBACK TO; sp2 (younger) is gone.
    EXPECT_EQ(err("ROLLBACK TO sp2", s).code(),
              ErrorCode::SemanticError);
    ok("INSERT INTO t VALUES (4)", s);
    ok("ROLLBACK TO SAVEPOINT sp1", s);
    EXPECT_EQ(count("t", s), 1);
    ok("RELEASE sp1", s);
    EXPECT_EQ(err("ROLLBACK TO sp1", s).code(),
              ErrorCode::SemanticError);
    ok("COMMIT", s);
    EXPECT_EQ(count("t"), 1);
}

TEST_F(TxnTest, ControlStatementErrors)
{
    EXPECT_EQ(err("COMMIT").code(), ErrorCode::SemanticError);
    EXPECT_EQ(err("ROLLBACK").code(), ErrorCode::SemanticError);
    EXPECT_EQ(err("SAVEPOINT sp").code(), ErrorCode::SemanticError);
    EXPECT_EQ(err("RELEASE sp").code(), ErrorCode::SemanticError);
    ok("BEGIN");
    EXPECT_EQ(err("BEGIN").code(), ErrorCode::SemanticError);
    EXPECT_EQ(err("ROLLBACK TO nope").code(),
              ErrorCode::SemanticError);
    ok("ROLLBACK");
}

TEST_F(TxnTest, FirstCommitterWinsOnConflict)
{
    ok("CREATE TABLE t (a INT UNIQUE)");
    SessionId s1 = db.openSession();
    SessionId s2 = db.openSession();
    ok("BEGIN", s1);
    ok("BEGIN", s2);
    ok("INSERT INTO t VALUES (7)", s1);
    ok("INSERT INTO t VALUES (7)", s2); // fine: private versions
    ok("COMMIT", s1);
    Status second = err("COMMIT", s2);
    EXPECT_EQ(second.code(), ErrorCode::RuntimeError);
    EXPECT_NE(second.toString().find("COMMIT aborted"),
              std::string::npos);
    // The losing transaction is gone, its writes discarded.
    EXPECT_FALSE(db.inTransaction(s2));
    EXPECT_EQ(count("t"), 1);
}

TEST_F(TxnTest, ConcurrentDisjointCommitsMergeInCommitOrder)
{
    ok("CREATE TABLE t (a INT)");
    SessionId s1 = db.openSession();
    SessionId s2 = db.openSession();
    ok("BEGIN", s1);
    ok("BEGIN", s2);
    ok("INSERT INTO t VALUES (1)", s1);
    ok("INSERT INTO t VALUES (2)", s2);
    ok("COMMIT", s2);
    ok("COMMIT", s1);
    ResultSet rows = ok("SELECT a FROM t");
    ASSERT_EQ(rows.rowCount(), 2u);
    EXPECT_EQ(rows.rows()[0][0].asInt(), 2); // s2 committed first
    EXPECT_EQ(rows.rows()[1][0].asInt(), 1);
}

class TxnFaultTest : public ::testing::Test
{
  protected:
    Database
    makeDb(FaultId fault)
    {
        EngineConfig config;
        config.faults.enable(fault);
        return Database(config);
    }
};

TEST_F(TxnFaultTest, DirtyReadSeesPendingWrites)
{
    Database db = makeDb(FaultId::TxnDirtyRead);
    ASSERT_TRUE(db.execute("CREATE TABLE t (a INT)").isOk());
    SessionId writer = db.openSession();
    SessionId reader = db.openSession();
    ASSERT_TRUE(db.execute("BEGIN", writer).isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t VALUES (1)", writer).isOk());
    auto rows = db.execute("SELECT COUNT(*) FROM t", reader);
    ASSERT_TRUE(rows.isOk());
    EXPECT_EQ(rows.value().rows()[0][0].asInt(), 1); // dirty
    ASSERT_TRUE(db.execute("ROLLBACK", writer).isOk());
    rows = db.execute("SELECT COUNT(*) FROM t", reader);
    ASSERT_TRUE(rows.isOk());
    EXPECT_EQ(rows.value().rows()[0][0].asInt(), 0);
}

TEST_F(TxnFaultTest, NonRepeatableReadFollowsCommits)
{
    Database db = makeDb(FaultId::TxnNonRepeatableRead);
    ASSERT_TRUE(db.execute("CREATE TABLE t (a INT)").isOk());
    SessionId reader = db.openSession();
    SessionId writer = db.openSession();
    ASSERT_TRUE(db.execute("BEGIN", reader).isOk());
    ASSERT_TRUE(db.execute("BEGIN", writer).isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t VALUES (1)", writer).isOk());
    ASSERT_TRUE(db.execute("COMMIT", writer).isOk());
    auto rows = db.execute("SELECT COUNT(*) FROM t", reader);
    ASSERT_TRUE(rows.isOk());
    EXPECT_EQ(rows.value().rows()[0][0].asInt(), 1); // leaked
}

TEST_F(TxnFaultTest, PhantomLeaksOnlyIntoPredicatedReads)
{
    Database db = makeDb(FaultId::TxnPhantomClaimedSnapshot);
    ASSERT_TRUE(db.execute("CREATE TABLE t (a INT)").isOk());
    SessionId reader = db.openSession();
    SessionId writer = db.openSession();
    ASSERT_TRUE(db.execute("BEGIN", reader).isOk());
    ASSERT_TRUE(db.execute("BEGIN", writer).isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t VALUES (1)", writer).isOk());
    ASSERT_TRUE(db.execute("COMMIT", writer).isOk());
    auto full = db.execute("SELECT a FROM t", reader);
    ASSERT_TRUE(full.isOk());
    EXPECT_EQ(full.value().rowCount(), 0u); // snapshot honoured
    auto pred = db.execute("SELECT a FROM t WHERE a < 10", reader);
    ASSERT_TRUE(pred.isOk());
    EXPECT_EQ(pred.value().rowCount(), 1u); // phantom
}

TEST_F(TxnFaultTest, LostUpdateClobbersConcurrentCommit)
{
    Database db = makeDb(FaultId::TxnLostUpdate);
    ASSERT_TRUE(db.execute("CREATE TABLE t (a INT)").isOk());
    SessionId s1 = db.openSession();
    SessionId s2 = db.openSession();
    ASSERT_TRUE(db.execute("BEGIN", s1).isOk());
    ASSERT_TRUE(db.execute("BEGIN", s2).isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t VALUES (1)", s1).isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t VALUES (2)", s2).isOk());
    ASSERT_TRUE(db.execute("COMMIT", s1).isOk());
    ASSERT_TRUE(db.execute("COMMIT", s2).isOk());
    auto rows = db.execute("SELECT a FROM t");
    ASSERT_TRUE(rows.isOk());
    // s2 published its private version wholesale: s1's row is gone.
    ASSERT_EQ(rows.value().rowCount(), 1u);
    EXPECT_EQ(rows.value().rows()[0][0].asInt(), 2);
}

TEST_F(TxnFaultTest, AllIsolationFaultsAreSingleSessionNoOps)
{
    for (const FaultInfo &row : faultTable()) {
        if (row.family != FaultFamily::Isolation)
            continue;
        FaultId fault = row.value;
        Database db = makeDb(fault);
        ASSERT_TRUE(db.execute("CREATE TABLE t (a INT)").isOk());
        ASSERT_TRUE(db.execute("INSERT INTO t VALUES (1)").isOk());
        ASSERT_TRUE(db.execute("BEGIN").isOk());
        ASSERT_TRUE(db.execute("INSERT INTO t VALUES (2)").isOk());
        auto in_txn = db.execute("SELECT COUNT(*) FROM t WHERE a < 9");
        ASSERT_TRUE(in_txn.isOk());
        EXPECT_EQ(in_txn.value().rows()[0][0].asInt(), 2)
            << faultName(fault);
        ASSERT_TRUE(db.execute("COMMIT").isOk());
        auto after = db.execute("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(after.isOk());
        EXPECT_EQ(after.value().rows()[0][0].asInt(), 2)
            << faultName(fault);
    }
}

} // namespace
} // namespace sqlpp
