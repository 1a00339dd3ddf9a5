#include "sqlir/value.h"

#include <algorithm>
#include <cassert>

#include "util/enum_table.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

constexpr DataTypeInfo kDataTypes[] = {
    {DataType::Int, "INTEGER", "TYPE_INTEGER", "INT", "INT BIGINT"},
    {DataType::Text, "TEXT", "TYPE_STRING", "STRING",
     "VARCHAR STRING CHAR"},
    {DataType::Bool, "BOOLEAN", "TYPE_BOOLEAN", "BOOL", "BOOL"},
};
static_assert(inEnumOrder(kDataTypes, DataType::Bool),
              "kDataTypes must list DataType in enum order");

} // namespace

std::span<const DataTypeInfo>
dataTypeTable()
{
    return kDataTypes;
}

const DataTypeInfo &
dataTypeInfo(DataType type)
{
    return *enumRow(kDataTypes, type);
}

const char *
dataTypeName(DataType type)
{
    return dataTypeInfo(type).name;
}

bool
parseDataType(const std::string &name, DataType &out)
{
    const DataTypeInfo *row = parseEnumRow(kDataTypes, name);
    if (row != nullptr)
        out = row->value;
    return row != nullptr;
}

Value
Value::text(std::string v)
{
    Value out(Kind::Text);
    out.payload_.text = new TextBlock{{1}, std::move(v)};
    return out;
}

std::string
Value::toString() const
{
    switch (kind()) {
      case Kind::Null: return "NULL";
      case Kind::Int: return std::to_string(asInt());
      case Kind::Text: return asText();
      case Kind::Bool: return asBool() ? "TRUE" : "FALSE";
    }
    return "?";
}

std::string
Value::literal() const
{
    switch (kind()) {
      case Kind::Null: return "NULL";
      case Kind::Int: return std::to_string(asInt());
      case Kind::Text: return sqlQuote(asText());
      case Kind::Bool: return asBool() ? "TRUE" : "FALSE";
    }
    return "?";
}

namespace {

int
kindRank(Value::Kind kind)
{
    switch (kind) {
      case Value::Kind::Null: return 0;
      case Value::Kind::Bool: return 1;
      case Value::Kind::Int: return 2;
      case Value::Kind::Text: return 3;
    }
    return 4;
}

} // namespace

int
Value::compareTotal(const Value &other) const
{
    if (kind_ != other.kind_) {
        int lhs_rank = kindRank(kind_);
        int rhs_rank = kindRank(other.kind_);
        return lhs_rank < rhs_rank ? -1 : 1;
    }
    switch (kind_) {
      case Kind::Null:
        return 0;
      case Kind::Bool:
        if (payload_.b == other.payload_.b)
            return 0;
        return payload_.b ? 1 : -1;
      case Kind::Int:
        if (payload_.i == other.payload_.i)
            return 0;
        return payload_.i < other.payload_.i ? -1 : 1;
      case Kind::Text: {
        if (payload_.text == other.payload_.text)
            return 0;
        int c = payload_.text->s.compare(other.payload_.text->s);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
    }
    return 0;
}

uint64_t
Value::hash() const
{
    switch (kind()) {
      case Kind::Null:
        return 0x9e3779b97f4a7c15ULL;
      case Kind::Int:
        return fnv1a("i") ^
               (static_cast<uint64_t>(asInt()) * 0xff51afd7ed558ccdULL);
      case Kind::Text:
        return fnv1a(asText(), fnv1a("t"));
      case Kind::Bool:
        return asBool() ? 0xda942042e4dd58b5ULL : 0x2545f4914f6cdd1dULL;
    }
    return 0;
}

namespace {

/** Stable hash of a row's Values, in order; equal rows hash equal. */
uint64_t
hashRow(RowView row)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const Value &value : row) {
        hash ^= value.hash();
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace

bool
ResultSet::Rows::operator==(const Rows &other) const
{
    if (count_ != other.count_)
        return false;
    for (size_t i = 0; i < count_; ++i) {
        RowView lhs = (*this)[i];
        RowView rhs = other[i];
        if (!std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end()))
            return false;
    }
    return true;
}

void
ResultSet::addRow(RowView row)
{
    assert(row.size() == columnCount());
    cells_.insert(cells_.end(), row.begin(), row.end());
    ++row_count_;
}

uint64_t
ResultSet::multisetFingerprint() const
{
    // XOR of per-row hashes multiplied against a row-local mix is
    // order-insensitive; summing guards against duplicate cancellation.
    uint64_t xor_acc = 0;
    uint64_t sum_acc = 0;
    for (RowView row : rows()) {
        uint64_t row_hash = hashRow(row);
        xor_acc ^= row_hash;
        sum_acc += row_hash * 0x9e3779b97f4a7c15ULL + 1;
    }
    return xor_acc ^ (sum_acc * 0xff51afd7ed558ccdULL) ^
           (static_cast<uint64_t>(row_count_) << 32);
}

bool
ResultSet::sameRowMultiset(const ResultSet &other) const
{
    return rowCount() == other.rowCount() &&
           sameRows(sortedRows({this}), sortedRows({&other}));
}

int
compareRows(RowView lhs, RowView rhs)
{
    size_t n = std::min(lhs.size(), rhs.size());
    for (size_t i = 0; i < n; ++i) {
        int c = lhs[i].compareTotal(rhs[i]);
        if (c != 0)
            return c;
    }
    if (lhs.size() == rhs.size())
        return 0;
    return lhs.size() < rhs.size() ? -1 : 1;
}

std::vector<SortedRow>
sortedRows(std::initializer_list<const ResultSet *> sets)
{
    std::vector<SortedRow> out;
    size_t total = 0;
    for (const ResultSet *set : sets)
        total += set->rowCount();
    out.reserve(total);
    for (const ResultSet *set : sets)
        for (RowView row : set->rows())
            out.push_back(SortedRow{hashRow(row), row});
    // Most comparisons end at the hash; only rows of equal hash, which
    // are almost always equal rows, compare their Values.
    std::sort(out.begin(), out.end(),
              [](const SortedRow &a, const SortedRow &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return compareRows(a.row, b.row) < 0;
              });
    return out;
}

bool
sameRows(const std::vector<SortedRow> &lhs,
         const std::vector<SortedRow> &rhs)
{
    return std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
}

std::string
ResultSet::toString(size_t max_rows) const
{
    std::string out = join(columns_, " | ");
    out += "\n";
    size_t shown = 0;
    for (RowView row : rows()) {
        if (shown++ >= max_rows) {
            out += format("... (%zu rows total)\n", row_count_);
            break;
        }
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const Value &value : row)
            cells.push_back(value.toString());
        out += join(cells, " | ");
        out += "\n";
    }
    return out;
}

} // namespace sqlpp
