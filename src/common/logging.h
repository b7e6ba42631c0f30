// Lightweight leveled logging. Disabled below the compile-time threshold so
// hot paths carry no cost; runtime level further filters. Not thread-aware —
// the simulator is single-threaded by design.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdarg>
#include <cstdio>

namespace hovercraft {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kNone = 4,
};

LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

// Prints "[<level> <file basename>] <message>" to stderr. The line carries
// no directory and no line number, so the logs of one run compare equal
// across checkouts and across edits that move a log site.
void LogMessage(LogLevel level, const char* file, const char* format, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace hovercraft

#define HC_LOG(level, ...)                                                            \
  do {                                                                                \
    if (static_cast<int>(level) >= static_cast<int>(::hovercraft::GetLogLevel())) {   \
      ::hovercraft::LogMessage(level, __FILE__, __VA_ARGS__);                         \
    }                                                                                 \
  } while (0)

#define HC_LOG_DEBUG(...) HC_LOG(::hovercraft::LogLevel::kDebug, __VA_ARGS__)
#define HC_LOG_INFO(...) HC_LOG(::hovercraft::LogLevel::kInfo, __VA_ARGS__)
#define HC_LOG_WARN(...) HC_LOG(::hovercraft::LogLevel::kWarning, __VA_ARGS__)
#define HC_LOG_ERROR(...) HC_LOG(::hovercraft::LogLevel::kError, __VA_ARGS__)

#endif  // SRC_COMMON_LOGGING_H_
