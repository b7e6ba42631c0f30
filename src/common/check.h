// Always-on invariant checks. Systems code in this repository uses CHECK for
// conditions that indicate a programming error (never for recoverable I/O or
// protocol conditions, which use Status/Result instead).
#ifndef SRC_COMMON_CHECK_H_
#define SRC_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace hovercraft {

// Optional hook run once, just before abort, when a CHECK fails. The flight
// recorder (src/obs/flight_recorder.h) installs one so every CHECK failure
// dumps the last events of the run plus a repro command. The hook is cleared
// before it runs, so a CHECK failure inside the hook cannot recurse.
using CheckFailureHook = void (*)();

inline CheckFailureHook& CheckFailureHookSlot() {
  static CheckFailureHook hook = nullptr;
  return hook;
}

// Returns the previously installed hook (restore it when done).
inline CheckFailureHook SetCheckFailureHook(CheckFailureHook hook) {
  CheckFailureHook& slot = CheckFailureHookSlot();
  CheckFailureHook previous = slot;
  slot = hook;
  return previous;
}

// The part of a __FILE__ path after its last '/': failure and log lines name
// the source file, not where the checkout happens to live.
constexpr const char* SourceBasename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  return base;
}

// Prints "CHECK failed: <expr> at <file basename>:<line>".
[[noreturn]] inline void CheckFailed(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "CHECK failed: %s at %s:%d\n", expr, SourceBasename(file), line);
  CheckFailureHook& slot = CheckFailureHookSlot();
  if (slot != nullptr) {
    CheckFailureHook hook = slot;
    slot = nullptr;  // no recursion if the hook itself CHECK-fails
    hook();
  }
  std::abort();
}

}  // namespace hovercraft

#define HC_CHECK(expr)                                    \
  do {                                                    \
    if (!(expr)) {                                        \
      ::hovercraft::CheckFailed(#expr, __FILE__, __LINE__); \
    }                                                     \
  } while (0)

#define HC_CHECK_GE(a, b) HC_CHECK((a) >= (b))
#define HC_CHECK_GT(a, b) HC_CHECK((a) > (b))
#define HC_CHECK_LE(a, b) HC_CHECK((a) <= (b))
#define HC_CHECK_LT(a, b) HC_CHECK((a) < (b))
#define HC_CHECK_EQ(a, b) HC_CHECK((a) == (b))
#define HC_CHECK_NE(a, b) HC_CHECK((a) != (b))

#endif  // SRC_COMMON_CHECK_H_
