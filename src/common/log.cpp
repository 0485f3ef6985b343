#include "common/log.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace aqm {
namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};
std::mutex g_sink_mutex;
Log::Sink& sink_storage() {
  static Log::Sink sink;  // empty -> default stderr sink
  return sink;
}

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

}  // namespace

void Log::set_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel Log::level() { return g_level.load(std::memory_order_relaxed); }

void Log::set_sink(Sink sink) {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  sink_storage() = std::move(sink);
}

namespace {
thread_local std::string t_tag;
}  // namespace

void Log::set_thread_tag(std::string tag) { t_tag = std::move(tag); }

void Log::write(LogLevel level, std::string_view msg) {
  if (!enabled(level)) return;
  std::string tagged;
  if (!t_tag.empty()) {
    tagged.reserve(t_tag.size() + msg.size() + 3);
    tagged.append("[").append(t_tag).append("] ").append(msg);
    msg = tagged;
  }
  // Snapshot the sink, then call it unlocked: a sink may itself log or
  // swap the sink without deadlocking, and slow sinks don't serialize
  // unrelated threads beyond the copy.
  Sink sink;
  {
    const std::lock_guard<std::mutex> lock(g_sink_mutex);
    sink = sink_storage();
  }
  if (sink) {
    sink(level, msg);
  } else {
    // stderr writes stay serialized so interleaved shard lines don't shear.
    const std::lock_guard<std::mutex> lock(g_sink_mutex);
    std::cerr << "[" << level_name(level) << "] " << msg << "\n";
  }
}

}  // namespace aqm
