#include "support/log.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace scl {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarning};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

namespace detail {

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  // Serialize whole lines: service threads may log concurrently.
  static std::mutex output_mutex;
  std::lock_guard<std::mutex> lock(output_mutex);
  std::cerr << "[stencilcl " << level_name(level) << "] " << message << '\n';
}

}  // namespace detail
}  // namespace scl
