#include "util/log.h"

#include <cstdio>
#include <mutex>

#include "util/strutil.h"

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

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "DEBUG";
      case LogLevel::Info: return "INFO";
      case LogLevel::Warn: return "WARN";
      case LogLevel::Error: return "ERROR";
      case LogLevel::Silent: return "SILENT";
    }
    return "?";
}
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

std::optional<LogLevel>
logLevelFromName(const std::string &name)
{
    std::string lower = toLower(name);
    if (lower == "quiet" || lower == "silent")
        return LogLevel::Silent;
    if (lower == "error")
        return LogLevel::Error;
    if (lower == "warn" || lower == "warning")
        return LogLevel::Warn;
    if (lower == "info")
        return LogLevel::Info;
    if (lower == "debug")
        return LogLevel::Debug;
    return std::nullopt;
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
    line += levelName(level);
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
