#include "engine/catalog.h"

#include <algorithm>

namespace sqlpp {

StoredIndex::StoredIndex(const StoredIndex &other)
    : name(other.name), columnOrdinals(other.columnOrdinals),
      unique(other.unique),
      predicate(other.predicate ? other.predicate->clone() : nullptr),
      entries(other.entries)
{
}

void
StoredIndex::insert(std::vector<Value> key, size_t row_ordinal)
{
    Entry entry{std::move(key), row_ordinal};
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), entry,
        [](const Entry &lhs, const Entry &rhs) {
            return compareRows(lhs.key, rhs.key) < 0;
        });
    entries.insert(pos, std::move(entry));
}

bool
StoredIndex::containsConflictingKey(const std::vector<Value> &key) const
{
    // SQL unique semantics: NULL never conflicts with anything.
    for (const Value &v : key) {
        if (v.isNull())
            return false;
    }
    Entry probe{key, 0};
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), probe,
        [](const Entry &lhs, const Entry &rhs) {
            return compareRows(lhs.key, rhs.key) < 0;
        });
    return pos != entries.end() && compareRows(pos->key, key) == 0;
}

size_t
StoredTable::columnOrdinal(const std::string &column_name) const
{
    for (size_t i = 0; i < columns.size(); ++i) {
        if (columns[i].name == column_name)
            return i;
    }
    return npos;
}

StoredView::StoredView(const StoredView &other)
    : name(other.name), columnNames(other.columnNames),
      select(other.select ? other.select->cloneSelect() : nullptr)
{
}

bool
Catalog::hasTable(const std::string &name) const
{
    return tables_.count(name) > 0;
}

bool
Catalog::hasView(const std::string &name) const
{
    return views_.count(name) > 0;
}

bool
Catalog::hasIndex(const std::string &name) const
{
    return index_owner_.count(name) > 0;
}

bool
Catalog::hasObject(const std::string &name) const
{
    return hasTable(name) || hasView(name) || hasIndex(name);
}

StoredTable *
Catalog::table(const std::string &name)
{
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
}

const StoredTable *
Catalog::table(const std::string &name) const
{
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
}

StoredView *
Catalog::view(const std::string &name)
{
    auto it = views_.find(name);
    return it == views_.end() ? nullptr : &it->second;
}

const StoredView *
Catalog::view(const std::string &name) const
{
    auto it = views_.find(name);
    return it == views_.end() ? nullptr : &it->second;
}

Status
Catalog::addTable(StoredTable table)
{
    if (hasObject(table.name)) {
        return Status::semanticError("object already exists: " +
                                     table.name);
    }
    tables_.emplace(table.name, std::move(table));
    return Status::ok();
}

Status
Catalog::addView(StoredView view)
{
    if (hasObject(view.name))
        return Status::semanticError("object already exists: " + view.name);
    views_.emplace(view.name, std::move(view));
    return Status::ok();
}

Status
Catalog::addIndex(const std::string &table_name, StoredIndex index)
{
    if (hasObject(index.name)) {
        return Status::semanticError("object already exists: " +
                                     index.name);
    }
    StoredTable *owner = table(table_name);
    if (owner == nullptr)
        return Status::semanticError("no such table: " + table_name);
    index_owner_[index.name] = table_name;
    owner->indexes.push_back(std::move(index));
    return Status::ok();
}

Status
Catalog::dropTable(const std::string &name)
{
    auto it = tables_.find(name);
    if (it == tables_.end())
        return Status::semanticError("no such table: " + name);
    // Drop indexes owned by the table.
    for (auto owner_it = index_owner_.begin();
         owner_it != index_owner_.end();) {
        if (owner_it->second == name)
            owner_it = index_owner_.erase(owner_it);
        else
            ++owner_it;
    }
    tables_.erase(it);
    return Status::ok();
}

Status
Catalog::dropView(const std::string &name)
{
    auto it = views_.find(name);
    if (it == views_.end())
        return Status::semanticError("no such view: " + name);
    views_.erase(it);
    return Status::ok();
}

Status
Catalog::dropIndex(const std::string &name)
{
    auto it = index_owner_.find(name);
    if (it == index_owner_.end())
        return Status::semanticError("no such index: " + name);
    StoredTable *owner = table(it->second);
    if (owner != nullptr) {
        auto &indexes = owner->indexes;
        indexes.erase(
            std::remove_if(indexes.begin(), indexes.end(),
                           [&](const StoredIndex &index) {
                               return index.name == name;
                           }),
            indexes.end());
    }
    index_owner_.erase(it);
    return Status::ok();
}

std::vector<std::string>
Catalog::tableNames() const
{
    std::vector<std::string> out;
    out.reserve(tables_.size());
    for (const auto &[name, table] : tables_)
        out.push_back(name);
    return out;
}

std::vector<std::string>
Catalog::viewNames() const
{
    std::vector<std::string> out;
    out.reserve(views_.size());
    for (const auto &[name, view] : views_)
        out.push_back(name);
    return out;
}

} // namespace sqlpp
