// Minimal leveled logging with a swappable sink.
//
// Simulation components log sparingly at Debug/Trace; experiment harnesses
// usually keep the threshold at Info so that benchmark output stays clean.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace aqm {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Process-wide logging configuration. Intentionally the only mutable
/// global in the library; defaults to Warn on stderr.
///
/// Thread safety: set_sink/write may race freely — write snapshots the sink
/// under a mutex and invokes it outside the lock, so a sink that logs (or
/// installs another sink) cannot deadlock. Parallel experiment shards call
/// set_thread_tag("w<i>") so interleaved lines stay attributable.
class Log {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;

  static void set_level(LogLevel level);
  [[nodiscard]] static LogLevel level();
  static void set_sink(Sink sink);
  static void write(LogLevel level, std::string_view msg);

  /// Tags every message written by the calling thread with "[tag] ".
  /// Empty clears the tag. Thread-local; typically set once per worker.
  static void set_thread_tag(std::string tag);

  [[nodiscard]] static bool enabled(LogLevel level) { return level >= Log::level(); }
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { Log::write(level_, os_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace aqm

#define AQM_LOG(level_)                         \
  if (!::aqm::Log::enabled(level_)) {           \
  } else                                        \
    ::aqm::detail::LogLine(level_)

#define AQM_TRACE() AQM_LOG(::aqm::LogLevel::Trace)
#define AQM_DEBUG() AQM_LOG(::aqm::LogLevel::Debug)
#define AQM_INFO() AQM_LOG(::aqm::LogLevel::Info)
#define AQM_WARN() AQM_LOG(::aqm::LogLevel::Warn)
#define AQM_ERROR() AQM_LOG(::aqm::LogLevel::Error)
