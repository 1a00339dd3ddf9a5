/**
 * @file
 * Minimal leveled logger for campaign warnings and errors.
 *
 * Each emitted line goes to the sink (stderr by default) in one write
 * under a mutex, so concurrent campaign workers never interleave or
 * tear lines.
 */
#ifndef SQLPP_UTIL_LOG_H
#define SQLPP_UTIL_LOG_H

#include <functional>
#include <optional>
#include <string>

namespace sqlpp {

enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    /** Disables all output. */
    Silent = 4,
};

/** Set the process-wide minimum level that is emitted. */
void setLogLevel(LogLevel level);

/**
 * Parse a CLI level name: quiet|silent, error, warn, info, debug
 * (case-insensitive). nullopt for anything else.
 */
std::optional<LogLevel> logLevelFromName(const std::string &name);

/** Emit a message at the given level to stderr if enabled. */
void logMessage(LogLevel level, const std::string &message);

/**
 * Redirect emitted lines into a callback instead of stderr (tests).
 * Pass nullptr to restore stderr. Takes effect for subsequent writes.
 */
void setLogSink(std::function<void(const std::string &)> sink);

inline void logWarn(const std::string &m) { logMessage(LogLevel::Warn, m); }
inline void logError(const std::string &m) { logMessage(LogLevel::Error, m); }

} // namespace sqlpp

#endif // SQLPP_UTIL_LOG_H
