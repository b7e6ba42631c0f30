#include "src/common/logging.h"

#include "src/common/check.h"

namespace hovercraft {
namespace {

LogLevel g_level = LogLevel::kWarning;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kNone:
      return "?";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() { return g_level; }

void SetLogLevel(LogLevel level) { g_level = level; }

void LogMessage(LogLevel level, const char* file, const char* format, ...) {
  std::fprintf(stderr, "[%s %s] ", LevelTag(level), SourceBasename(file));
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace hovercraft
