/**
 * @file
 * StatementCache: the parse outcome of each distinct SQL text, made
 * once.
 *
 * The platform's replay loops run the same texts many times on fresh
 * databases: the reducer replays every candidate of a bug case, fault
 * attribution replays a case once per ablated profile, and the ISO
 * oracle rebuilds a serial-order witness from its schedule for every
 * read. A replay's outcome is a pure function of its texts, and the
 * parser takes no dialect, so one parse per text serves every replay.
 * Each loop owns one cache and drops it when the loop ends; the cache
 * is never shared between threads.
 */
#ifndef SQLPP_PARSER_STATEMENT_CACHE_H
#define SQLPP_PARSER_STATEMENT_CACHE_H

#include <cstddef>
#include <string>
#include <unordered_map>

#include "sqlir/ast.h"
#include "util/status.h"

namespace sqlpp {

class StatementCache
{
  public:
    /**
     * parseStatement(@p sql), run on the first call for this text and
     * returned unchanged on every later one: the immutable statement
     * or the exact error Status. The reference stays valid for the
     * cache's lifetime.
     */
    const StatusOr<StmtPtr> &parse(const std::string &sql);

    /** Texts parsed so far: the number of distinct texts seen. */
    size_t parses() const { return entries_.size(); }

  private:
    std::unordered_map<std::string, StatusOr<StmtPtr>> entries_;
};

} // namespace sqlpp

#endif // SQLPP_PARSER_STATEMENT_CACHE_H
