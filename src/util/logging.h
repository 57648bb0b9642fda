// Minimal leveled logger writing to stderr.
//
// The FL simulator logs per-round progress at Info level; tests silence the
// logger by raising the threshold. Thread-safe: worker threads (pool tasks,
// APF_WARN from tripwires) may emit concurrently — messages are serialized
// by a mutex so lines never interleave, and the level is atomic.
#pragma once

#include <sstream>
#include <string>

namespace apf {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

}  // namespace apf

#define APF_LOG(level, stream_expr)                                     \
  do {                                                                   \
    if (static_cast<int>(level) >= static_cast<int>(::apf::log_level())) { \
      std::ostringstream apf_log_oss_;                                   \
      apf_log_oss_ << stream_expr;                                       \
      ::apf::detail::log_emit(level, apf_log_oss_.str());                \
    }                                                                    \
  } while (0)

#define APF_DEBUG(stream_expr) APF_LOG(::apf::LogLevel::kDebug, stream_expr)
#define APF_INFO(stream_expr) APF_LOG(::apf::LogLevel::kInfo, stream_expr)
#define APF_WARN(stream_expr) APF_LOG(::apf::LogLevel::kWarn, stream_expr)
#define APF_ERROR(stream_expr) APF_LOG(::apf::LogLevel::kError, stream_expr)
