/**
 * @file
 * Runtime SQL values with three-valued logic.
 *
 * The platform generates three data types (integer, string, boolean —
 * Table 1 of the paper) plus SQL NULL. Value is the runtime representation
 * shared by the expression evaluator, the storage layer, and the oracles'
 * result comparison.
 */
#ifndef SQLPP_SQLIR_VALUE_H
#define SQLPP_SQLIR_VALUE_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace sqlpp {

/** Static SQL data types supported by the generator and the engine. */
enum class DataType
{
    Int,
    Text,
    Bool,
};

/** One row of the data-type table. */
struct DataTypeInfo
{
    DataType value;
    /** SQL name (INTEGER, TEXT, BOOLEAN). */
    const char *name;
    /** Feature name (e.g. "TYPE_INTEGER"). */
    const char *feature;
    /** Tag of composite typed-argument features (SIN1INT's "INT"). */
    const char *argTag;
    /** Space-separated other names parseDataType() accepts. */
    const char *aliases;
};

/** The data-type table: every DataType, in enum order. */
std::span<const DataTypeInfo> dataTypeTable();
const DataTypeInfo &dataTypeInfo(DataType type);

/** SQL name of a data type (INTEGER, TEXT, BOOLEAN). */
const char *dataTypeName(DataType type);

/** Parse a type name or alias (case-insensitive); false on junk. */
bool parseDataType(const std::string &name, DataType &out);

/**
 * A runtime SQL value: NULL, 64-bit integer, string, or boolean.
 *
 * Booleans are distinct from integers at the Value level; dialects with
 * numeric booleans (SQLite-style) coerce during evaluation, not here.
 *
 * Layout: a one-byte kind tag and an 8-byte payload, 16 bytes in all.
 * The payload holds the integer or boolean itself, or points to an
 * immutable heap block holding the text. Copies of a text Value share
 * its block through an atomic reference count, so copying any Value
 * copies 16 bytes (plus one relaxed increment for text) and never
 * allocates. A move steals the payload and leaves the source NULL.
 */
class Value
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Int,
        Text,
        Bool,
    };

    /** Default-constructed Value is NULL. */
    Value() = default;

    Value(const Value &other) noexcept
        : kind_(other.kind_), payload_(other.payload_)
    {
        retain();
    }

    Value(Value &&other) noexcept
        : kind_(other.kind_), payload_(other.payload_)
    {
        other.kind_ = Kind::Null;
    }

    Value &
    operator=(const Value &other) noexcept
    {
        // Retain before release, so self-assignment keeps its block.
        other.retain();
        release();
        kind_ = other.kind_;
        payload_ = other.payload_;
        return *this;
    }

    Value &
    operator=(Value &&other) noexcept
    {
        if (this != &other) {
            release();
            kind_ = other.kind_;
            payload_ = other.payload_;
            other.kind_ = Kind::Null;
        }
        return *this;
    }

    ~Value() { release(); }

    static Value null() { return Value(); }
    static Value
    integer(int64_t v)
    {
        Value out(Kind::Int);
        out.payload_.i = v;
        return out;
    }
    static Value text(std::string v);
    static Value
    boolean(bool v)
    {
        Value out(Kind::Bool);
        out.payload_.b = v;
        return out;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /**
     * Accessors; caller must check kind() first. The wrong kind throws
     * std::bad_variant_access.
     */
    int64_t
    asInt() const
    {
        expect(Kind::Int);
        return payload_.i;
    }
    const std::string &
    asText() const
    {
        expect(Kind::Text);
        return payload_.text->s;
    }
    bool
    asBool() const
    {
        expect(Kind::Bool);
        return payload_.b;
    }

    /**
     * SQL display rendering (NULL, 42, hello, TRUE) as a result cell.
     * Distinct from literal(), which renders a parseable SQL literal.
     */
    std::string toString() const;

    /** Render as a SQL literal (NULL, 42, 'hello', TRUE). */
    std::string literal() const;

    /**
     * Total ordering for sorting and index keys: NULL < BOOL < INT < TEXT,
     * FALSE < TRUE, integers numerically, text lexicographically.
     * This is storage order, not SQL comparison (which is three-valued).
     */
    int compareTotal(const Value &other) const;

    /** Exact equality including kind (NULL == NULL here, unlike SQL). */
    bool operator==(const Value &other) const
    {
        return compareTotal(other) == 0;
    }

    /** compareTotal() order, consistent with operator==. */
    bool operator<(const Value &other) const
    {
        return compareTotal(other) < 0;
    }

    /** Stable hash for result-set comparison and dedup keys. */
    uint64_t hash() const;

  private:
    /** The shared, immutable text of a Text Value. */
    struct TextBlock
    {
        std::atomic<uint32_t> refs;
        std::string s;
    };

    union Payload
    {
        int64_t i;
        bool b;
        TextBlock *text;
    };

    explicit Value(Kind kind) : kind_(kind) {}

    void
    expect(Kind kind) const
    {
        if (kind_ != kind)
            throw std::bad_variant_access();
    }

    void
    retain() const
    {
        if (kind_ == Kind::Text)
            payload_.text->refs.fetch_add(1, std::memory_order_relaxed);
    }

    /** Drop this owner's reference; the last owner frees the block. */
    void
    release()
    {
        if (kind_ == Kind::Text &&
            payload_.text->refs.fetch_sub(1, std::memory_order_acq_rel) ==
                1)
            delete payload_.text;
    }

    Kind kind_ = Kind::Null;
    /** Zero-initialised, so a BOOL leaves none of its 8 bytes undefined. */
    Payload payload_{0};
};

static_assert(sizeof(Value) == 16, "Value is a tag plus an 8-byte payload");

/** One result row. */
using Row = std::vector<Value>;

/**
 * The one definition of row identity and order: lexicographic by
 * Value::compareTotal, then the shorter row first. Two rows compare 0
 * exactly when they are equal under Row's operator==. Oracle multiset
 * checks, DISTINCT, GROUP BY, ANALYZE and index keys all use it.
 */
int compareRows(const Row &lhs, const Row &rhs);

/**
 * A query result: column names plus rows.
 *
 * Oracles compare results as multisets of rows under exact Value
 * equality (paper: TLP recombines partitions as a multiset union), so
 * ResultSet offers order-insensitive comparison alongside the ordered
 * equality of rows().
 */
class ResultSet
{
  public:
    ResultSet() = default;
    explicit ResultSet(std::vector<std::string> column_names)
        : columns_(std::move(column_names)) {}

    const std::vector<std::string> &columns() const { return columns_; }
    std::vector<std::string> &columns() { return columns_; }

    const std::vector<Row> &rows() const { return rows_; }
    void addRow(Row row) { rows_.push_back(std::move(row)); }

    /** Move the rows out, leaving this result with none. */
    std::vector<Row>
    takeRows()
    {
        std::vector<Row> out;
        out.swap(rows_);
        return out;
    }

    size_t rowCount() const { return rows_.size(); }
    size_t columnCount() const { return columns_.size(); }

    /** Order-insensitive multiset fingerprint of the row contents. */
    uint64_t multisetFingerprint() const;

    /** True if both hold the same multiset of rows (column names ignored). */
    bool sameRowMultiset(const ResultSet &other) const;

    /** Human-readable table, for bug reports and examples. */
    std::string toString(size_t max_rows = 16) const;

  private:
    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

/**
 * Pointers to every row of every set in @p sets, sorted by
 * compareRows. They stay valid while the sets live unchanged.
 */
std::vector<const Row *> sortedRows(
    std::initializer_list<const ResultSet *> sets);

/** True if two sorted row lists hold equal rows, element by element. */
bool sameRows(const std::vector<const Row *> &lhs,
              const std::vector<const Row *> &rhs);

} // namespace sqlpp

#endif // SQLPP_SQLIR_VALUE_H
