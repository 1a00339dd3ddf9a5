#include "util/log.h"

#include <cstdio>
#include <mutex>

#include "util/enum_table.h"

namespace sqlpp {

namespace {
LogLevel g_level = LogLevel::Warn;

std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

/** Guarded by logMutex(). */
std::function<void(const std::string &)> &
logSink()
{
    static std::function<void(const std::string &)> sink;
    return sink;
}

constexpr EnumName<LogLevel> kLogLevels[] = {
    {LogLevel::Debug, "DEBUG"},
    {LogLevel::Info, "INFO"},
    {LogLevel::Warn, "WARN", "warning"},
    {LogLevel::Error, "ERROR"},
    {LogLevel::Silent, "SILENT", "quiet"},
};
static_assert(inEnumOrder(kLogLevels, LogLevel::Silent),
              "kLogLevels must list LogLevel in enum order");
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

std::optional<LogLevel>
logLevelFromName(const std::string &name)
{
    const auto *row = parseEnumRow(kLogLevels, name);
    if (row == nullptr)
        return std::nullopt;
    return row->value;
}

void
logMessage(LogLevel level, const std::string &message)
{
    if (level < g_level || g_level == LogLevel::Silent)
        return;
    /* Build the whole line first and write it in one piece under the
     * mutex, so concurrent campaign workers never interleave or tear
     * log lines. */
    std::string line = "[";
    line += enumRow(kLogLevels, level)->name;
    line += "] ";
    line += message;
    line += "\n";
    std::lock_guard<std::mutex> lock(logMutex());
    if (auto &sink = logSink(); sink) {
        sink(line);
        return;
    }
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

void
setLogSink(std::function<void(const std::string &)> sink)
{
    std::lock_guard<std::mutex> lock(logMutex());
    logSink() = std::move(sink);
}

} // namespace sqlpp
