/**
 * @file
 * Enum tables: one constexpr row per value of a named enum, carrying
 * everything the program prints or parses for that value (a SQL
 * spelling and feature name, a trace or metric name, a fault's
 * description and family). Name functions look a row up by value with
 * enumRow() and parsers find one by name or alias with
 * parseEnumRow(), so a new value is added in one row. A static_assert
 * beside each table checks its order.
 */
#ifndef SQLPP_UTIL_ENUM_TABLE_H
#define SQLPP_UTIL_ENUM_TABLE_H

#include <cstddef>
#include <string_view>

#include "util/strutil.h"

namespace sqlpp {

/** One row of a SQL enum's table. */
template <typename E>
struct EnumInfo
{
    E value;
    /** SQL spelling (e.g. "LEFT JOIN", "IS NOT NULL"). */
    const char *sql;
    /** Feature name (e.g. "JOIN_LEFT"). */
    const char *feature;
};

/** One row of a table that only names its values. */
template <typename E>
struct EnumName
{
    E value;
    /** Printed name (e.g. "statement_executed", "WARN"). */
    const char *name;
    /** Space-separated other names parseEnumRow() accepts. */
    const char *aliases = "";
};

/**
 * True when row i describes enum value i, for every row, and the last
 * row describes `last`: the table lists every value in enum order.
 */
template <typename Row, size_t N>
constexpr bool
inEnumOrder(const Row (&rows)[N], decltype(Row::value) last)
{
    for (size_t i = 0; i < N; ++i) {
        if (static_cast<size_t>(rows[i].value) != i)
            return false;
    }
    return rows[N - 1].value == last;
}

/** True when the rows' values strictly increase and stay below `bound`. */
template <typename Row, size_t N>
constexpr bool
strictlyIncreasing(const Row (&rows)[N], size_t bound)
{
    for (size_t i = 0; i < N; ++i) {
        if (static_cast<size_t>(rows[i].value) >= bound ||
            (i > 0 && rows[i - 1].value >= rows[i].value))
            return false;
    }
    return true;
}

/**
 * The row describing `value`, or nullptr when the table has none. A
 * table in enum order is indexed directly; a sparse one is searched.
 */
template <typename Row, size_t N>
constexpr const Row *
enumRow(const Row (&rows)[N], decltype(Row::value) value)
{
    size_t index = static_cast<size_t>(value);
    if (index < N && rows[index].value == value)
        return &rows[index];
    for (const Row &row : rows) {
        if (row.value == value)
            return &row;
    }
    return nullptr;
}

/**
 * The row whose name, or one of whose space-separated aliases, equals
 * `text` ignoring ASCII case; nullptr when none does.
 */
template <typename Row, size_t N>
const Row *
parseEnumRow(const Row (&rows)[N], std::string_view text)
{
    for (const Row &row : rows) {
        if (equalsIgnoreCase(row.name, text))
            return &row;
        for (std::string_view rest = row.aliases; !rest.empty();) {
            size_t end = rest.find(' ');
            if (equalsIgnoreCase(rest.substr(0, end), text))
                return &row;
            rest = end == std::string_view::npos ? std::string_view()
                                                 : rest.substr(end + 1);
        }
    }
    return nullptr;
}

} // namespace sqlpp

#endif // SQLPP_UTIL_ENUM_TABLE_H
