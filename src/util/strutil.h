/**
 * @file
 * Small string helpers shared across parser, printer, and reporting.
 */
#ifndef SQLPP_UTIL_STRUTIL_H
#define SQLPP_UTIL_STRUTIL_H

#include <string>
#include <string_view>
#include <vector>

namespace sqlpp {

/** Uppercase ASCII copy (SQL keywords are case-insensitive). */
std::string toUpper(std::string_view s);

/** Lowercase ASCII copy. */
std::string toLower(std::string_view s);

/** Case-insensitive ASCII equality. */
bool equalsIgnoreCase(std::string_view a, std::string_view b);

/** Join items with a separator. */
std::string join(const std::vector<std::string> &items,
                 std::string_view separator);

/**
 * Concatenate pieces (strings, literals, chars) into one string. Use
 * it where a chain would start with a literal followed by a
 * temporary: GCC 12 misreports operator+(const char *, std::string &&)
 * under -Wrestrict when it inlines it.
 */
template <typename... Parts>
std::string
concat(const Parts &...parts)
{
    std::string out;
    (out += ... += parts);
    return out;
}

/** Split on a single character; keeps empty fields. */
std::vector<std::string> split(std::string_view s, char separator);

/** Strip leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view s);

/** True if `s` starts with `prefix` (case-sensitive). */
bool startsWith(std::string_view s, std::string_view prefix);

/**
 * Quote a string as a SQL literal: wraps in single quotes and doubles
 * embedded quotes ('it''s').
 */
std::string sqlQuote(std::string_view s);

/**
 * Escape a string for a JSON string literal: quotes, backslash,
 * newline, tab, and other control bytes (as four-digit unicode
 * escapes).
 */
std::string jsonEscape(std::string_view s);

/** printf-style formatting into a std::string. */
std::string
format(const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/** FNV-1a 64-bit hash, used for plan fingerprints and dedup keys. */
uint64_t fnv1a(std::string_view s, uint64_t seed = 0xcbf29ce484222325ULL);

} // namespace sqlpp

#endif // SQLPP_UTIL_STRUTIL_H
