#include "util/logging.h"

#include <atomic>
#include <iostream>

#include "util/annotations.h"

namespace apf {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
// Serializes emission so concurrent worker-thread messages never interleave.
util::Mutex g_emit_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  util::MutexLock lock(g_emit_mutex);
  std::cerr << '[' << level_name(level) << "] " << msg << '\n';
}
}  // namespace detail

}  // namespace apf
