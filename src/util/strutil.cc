#include "util/strutil.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace sqlpp {

std::string
toUpper(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::toupper(static_cast<unsigned char>(a[i])) !=
            std::toupper(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

std::string
join(const std::vector<std::string> &items, std::string_view separator)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += separator;
        out += items[i];
    }
    return out;
}

std::vector<std::string>
split(std::string_view s, char separator)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == separator) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string_view
trim(std::string_view s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1]))) {
        --end;
    }
    return s.substr(begin, end - begin);
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string
sqlQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('\'');
    for (char c : s) {
        if (c == '\'')
            out += "''";
        else
            out.push_back(c);
    }
    out.push_back('\'');
    return out;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out.push_back(c);
        }
    }
    return out;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

uint64_t
fnv1a(std::string_view s, uint64_t seed)
{
    uint64_t hash = seed;
    for (char c : s) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace sqlpp
