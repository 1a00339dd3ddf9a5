/**
 * @file
 * Catalog and row storage for the DBMS substrate.
 *
 * The engine is the "DBMS under test" that substitutes for the paper's
 * fleet of production systems. Tables are row stores with optional
 * ordered secondary indexes; views are stored SELECT ASTs expanded at
 * plan time. There is no UPDATE/DELETE because the paper's generator
 * only produces CREATE TABLE/INDEX/VIEW, INSERT, ANALYZE, and SELECT.
 */
#ifndef SQLPP_ENGINE_CATALOG_H
#define SQLPP_ENGINE_CATALOG_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sqlir/ast.h"
#include "sqlir/value.h"
#include "util/status.h"

namespace sqlpp {

/** Per-column statistics filled in by ANALYZE. */
struct ColumnStats
{
    size_t distinctValues = 0;
    size_t nullCount = 0;
};

/** A secondary index: ordered (key, row ordinal) pairs. */
class StoredIndex
{
  public:
    std::string name;
    /** Ordinals of the indexed columns in the owning table. */
    std::vector<size_t> columnOrdinals;
    bool unique = false;
    /** Partial-index predicate (cloned AST); null for full indexes. */
    ExprPtr predicate;

    /**
     * Entries sorted by key under compareRows (sqlir/value.h). Each
     * entry maps an index key to a row ordinal.
     */
    struct Entry
    {
        std::vector<Value> key;
        size_t rowOrdinal;
    };
    std::vector<Entry> entries;

    StoredIndex() = default;
    StoredIndex(const StoredIndex &other);
    StoredIndex &operator=(const StoredIndex &) = delete;
    StoredIndex(StoredIndex &&) = default;
    StoredIndex &operator=(StoredIndex &&) = default;

    /** Insert an entry keeping the order invariant. */
    void insert(std::vector<Value> key, size_t row_ordinal);

    /**
     * True if an equal non-NULL key already exists (unique-constraint
     * probe; keys containing NULL never conflict, per SQL semantics).
     */
    bool containsConflictingKey(const std::vector<Value> &key) const;
};

/** A base table: definition, rows, indexes, statistics. */
class StoredTable
{
  public:
    std::string name;
    std::vector<ColumnDef> columns;
    std::vector<Row> rows;
    std::vector<StoredIndex> indexes;

    /** Filled by ANALYZE; empty until then. */
    std::vector<ColumnStats> stats;
    bool analyzed = false;

    /** Ordinal of a column by name, or npos. */
    size_t columnOrdinal(const std::string &column_name) const;

    static constexpr size_t npos = static_cast<size_t>(-1);
};

/** A view: stored SELECT plus optional explicit column names. */
class StoredView
{
  public:
    StoredView() = default;
    StoredView(const StoredView &other);
    StoredView &operator=(const StoredView &) = delete;
    StoredView(StoredView &&) = default;
    StoredView &operator=(StoredView &&) = default;

    std::string name;
    std::vector<std::string> columnNames;
    SelectPtr select;
};

/**
 * The engine's schema: tables, views, and index-name ownership.
 *
 * Note this is the DBMS-side schema. The platform's *internal schema
 * model* (core/schema_model.h) is a separate structure maintained from
 * execution feedback, per the paper's design; it never reads this class.
 */
class Catalog
{
  public:
    bool hasTable(const std::string &name) const;
    bool hasView(const std::string &name) const;
    bool hasIndex(const std::string &name) const;
    /** Table, view, or index with this name exists. */
    bool hasObject(const std::string &name) const;

    StoredTable *table(const std::string &name);
    const StoredTable *table(const std::string &name) const;
    StoredView *view(const std::string &name);
    const StoredView *view(const std::string &name) const;

    Status addTable(StoredTable table);
    Status addView(StoredView view);
    /** Registers the index name and attaches the index to its table. */
    Status addIndex(const std::string &table_name, StoredIndex index);

    Status dropTable(const std::string &name);
    Status dropView(const std::string &name);
    Status dropIndex(const std::string &name);

    std::vector<std::string> tableNames() const;
    std::vector<std::string> viewNames() const;

  private:
    std::map<std::string, StoredTable> tables_;
    std::map<std::string, StoredView> views_;
    /** index name -> owning table name. */
    std::map<std::string, std::string> index_owner_;
};

} // namespace sqlpp

#endif // SQLPP_ENGINE_CATALOG_H
