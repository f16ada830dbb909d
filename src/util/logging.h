// Minimal leveled logging and check macros (glog-flavoured).
#pragma once

#include <cstdlib>
#include <sstream>
#include <string>

namespace hybridgraph {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kFatal = 4 };

// Severity aliases consumed by the HG_LOG(SEVERITY) token-pasting macro.
inline constexpr LogLevel kDEBUG = LogLevel::kDebug;
inline constexpr LogLevel kINFO = LogLevel::kInfo;
inline constexpr LogLevel kWARN = LogLevel::kWarn;
inline constexpr LogLevel kERROR = LogLevel::kError;
inline constexpr LogLevel kFATAL = LogLevel::kFatal;

/// Global minimum severity actually emitted; defaults to kInfo.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Accumulates one log line and emits it (with timestamp and level tag) on
/// destruction. kFatal aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows a log statement below the active level without evaluating it.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace hybridgraph

#define HG_LOG_INTERNAL(level)                                               \
  ::hybridgraph::internal::LogMessage(level, __FILE__, __LINE__).stream()

/// HG_LOG(INFO) << "...";  Levels: DEBUG, INFO, WARN, ERROR, FATAL.
#define HG_LOG(severity)                                                     \
  (::hybridgraph::k##severity < ::hybridgraph::GetLogLevel())                \
      ? (void)0                                                              \
      : ::hybridgraph::internal::LogVoidify() &                              \
            HG_LOG_INTERNAL(::hybridgraph::k##severity)

/// Fatal unless `cond` holds; always active (also in release builds).
#define HG_CHECK(cond)                                                      \
  (cond) ? (void)0                                                          \
         : ::hybridgraph::internal::LogVoidify() &                          \
               HG_LOG_INTERNAL(::hybridgraph::LogLevel::kFatal)             \
                   << "Check failed: " #cond " "

#define HG_CHECK_LT(a, b) HG_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define HG_CHECK_GT(a, b) HG_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "

#ifndef NDEBUG
#define HG_DCHECK(cond) HG_CHECK(cond)
#else
#define HG_DCHECK(cond) \
  while (false) HG_CHECK(cond)
#endif
