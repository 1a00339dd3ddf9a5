/**
 * @file
 * Enum tables: one constexpr row per value of a SQL enum, listed in
 * enum order, carrying the value's SQL spelling and its Table 1
 * feature name. Everything that names or enumerates the values reads
 * the table, so a new value is added in one row.
 */
#ifndef SQLPP_SQLIR_ENUM_TABLE_H
#define SQLPP_SQLIR_ENUM_TABLE_H

#include <cstddef>

namespace sqlpp {

/** One row of an enum table. */
template <typename E>
struct EnumInfo
{
    E value;
    /** SQL spelling (e.g. "LEFT JOIN", "IS NOT NULL"). */
    const char *sql;
    /** Feature name (e.g. "JOIN_LEFT"). */
    const char *feature;
};

/** True when row i describes enum value i, for every row. */
template <typename Row, size_t N>
constexpr bool
inEnumOrder(const Row (&rows)[N])
{
    for (size_t i = 0; i < N; ++i) {
        if (static_cast<size_t>(rows[i].value) != i)
            return false;
    }
    return true;
}

} // namespace sqlpp

#endif // SQLPP_SQLIR_ENUM_TABLE_H
