#include "sqlir/value.h"

#include <algorithm>

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

uint64_t
ResultSet::multisetFingerprint() const
{
    // XOR of per-row hashes multiplied against a row-local mix is
    // order-insensitive; summing guards against duplicate cancellation.
    uint64_t xor_acc = 0;
    uint64_t sum_acc = 0;
    for (const Row &row : rows_) {
        uint64_t row_hash = 0xcbf29ce484222325ULL;
        for (const Value &value : row) {
            row_hash ^= value.hash();
            row_hash *= 0x100000001b3ULL;
        }
        xor_acc ^= row_hash;
        sum_acc += row_hash * 0x9e3779b97f4a7c15ULL + 1;
    }
    return xor_acc ^ (sum_acc * 0xff51afd7ed558ccdULL) ^
           (static_cast<uint64_t>(rows_.size()) << 32);
}

bool
ResultSet::sameRowMultiset(const ResultSet &other) const
{
    return rowCount() == other.rowCount() &&
           sameRows(sortedRows({this}), sortedRows({&other}));
}

int
compareRows(const Row &lhs, const Row &rhs)
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

std::vector<const Row *>
sortedRows(std::initializer_list<const ResultSet *> sets)
{
    std::vector<const Row *> out;
    size_t total = 0;
    for (const ResultSet *set : sets)
        total += set->rowCount();
    out.reserve(total);
    for (const ResultSet *set : sets)
        for (const Row &row : set->rows())
            out.push_back(&row);
    std::sort(out.begin(), out.end(), [](const Row *a, const Row *b) {
        return compareRows(*a, *b) < 0;
    });
    return out;
}

bool
sameRows(const std::vector<const Row *> &lhs,
         const std::vector<const Row *> &rhs)
{
    return std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                      [](const Row *a, const Row *b) { return *a == *b; });
}

std::string
ResultSet::toString(size_t max_rows) const
{
    std::string out = join(columns_, " | ");
    out += "\n";
    size_t shown = 0;
    for (const Row &row : rows_) {
        if (shown++ >= max_rows) {
            out += format("... (%zu rows total)\n", rows_.size());
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
