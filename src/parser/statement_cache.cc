#include "parser/statement_cache.h"

#include "parser/parser.h"

namespace sqlpp {

const StatusOr<StmtPtr> &
StatementCache::parse(const std::string &sql)
{
    auto found = entries_.find(sql);
    if (found == entries_.end())
        found = entries_.emplace(sql, parseStatement(sql)).first;
    return found->second;
}

} // namespace sqlpp
