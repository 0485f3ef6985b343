#include "obs/trace.hpp"

#include <atomic>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "obs/json.hpp"

namespace aqm::obs {

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::Engine: return "engine";
    case TraceCategory::Net: return "net";
    case TraceCategory::Orb: return "orb";
    case TraceCategory::Os: return "os";
    case TraceCategory::Quo: return "quo";
    case TraceCategory::App: return "app";
  }
  return "?";
}

namespace {

std::uint64_t fresh_uid() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

TraceRecorder::TraceRecorder(std::uint32_t categories)
    : categories_(categories), uid_(fresh_uid()) {}

std::uint16_t TraceRecorder::track(std::string_view name) {
  const auto it = track_index_.find(name);
  if (it != track_index_.end()) return it->second;
  assert(track_names_.size() < 0xffff && "track id space exhausted");
  const auto idx = static_cast<std::uint16_t>(track_names_.size());
  track_names_.emplace_back(name);
  track_index_.emplace(std::string(name), idx);
  return idx;
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

const char* TraceRecorder::intern(std::string_view prefix, std::string_view s) {
  const std::uint64_t h = fnv1a(fnv1a(0xcbf29ce484222325ull, prefix), s);
  const std::uint32_t head = intern_index_.find(h);
  std::uint32_t tail = kNoSlot;
  for (std::uint32_t i = head; i != kNoSlot; i = interned_[i].next) {
    const std::string& text = *interned_[i].text;
    if (text.size() == prefix.size() + s.size() && text.starts_with(prefix) &&
        text.ends_with(s)) {
      return text.c_str();
    }
    tail = i;
  }
  const auto slot = static_cast<std::uint32_t>(interned_.size());
  auto text = std::make_unique<std::string>(prefix);
  text->append(s);
  interned_.push_back(Interned{std::move(text)});
  if (tail == kNoSlot) {
    intern_index_.insert(h, slot);
  } else {
    interned_[tail].next = slot;  // hash collision: chain behind the last one
  }
  return interned_.back().text->c_str();
}

void TraceRecorder::advance() {
  if (overwritten_ == 0 && active_ + 1 < chunks_.size()) {
    ++active_;  // spare chunk from a previous clear()
  } else if (ring_chunks_ != 0 && chunks_.size() >= ring_chunks_) {
    // Flight-recorder ring: reclaim the oldest chunk wholesale. It is full,
    // like every chunk but the active one.
    active_ = (active_ + 1) % chunks_.size();
    overwritten_ += kChunkEvents;
    total_ -= kChunkEvents;
  } else {
    chunks_.push_back(std::make_unique<Chunk>());
    active_ = chunks_.size() - 1;
  }
  next_ = chunks_[active_]->data();
  limit_ = next_ + kChunkEvents;
}

void TraceRecorder::clear() {
  active_ = 0;
  next_ = chunks_.empty() ? nullptr : chunks_[0]->data();
  limit_ = chunks_.empty() ? nullptr : next_ + kChunkEvents;
  total_ = 0;
  current_ = 0;
  overwritten_ = 0;
}

namespace {

const char* phase_code(TracePhase p) {
  switch (p) {
    case TracePhase::Complete: return "X";
    case TracePhase::Instant: return "i";
    case TracePhase::AsyncBegin: return "b";
    case TracePhase::AsyncEnd: return "e";
    case TracePhase::Counter: return "C";
  }
  return "i";
}

/// Chrome timestamps are microseconds; emit with nanosecond precision.
void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out += buf;
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  std::string line;
  line.reserve(256);
  os << "{\"traceEvents\":[\n";
  os << R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"aqm-sim"}})";
  for (std::size_t t = 0; t < track_names_.size(); ++t) {
    line.clear();
    line += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    line += std::to_string(t);
    line += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    json::string(line, track_names_[t]);
    line += "}}";
    os << line;
  }
  for_each([&](const TraceEvent& e) {
    line.clear();
    line += ",\n{\"ph\":\"";
    line += phase_code(e.phase);
    line += "\",\"pid\":1,\"tid\":";
    line += std::to_string(e.track);
    line += ",\"ts\":";
    append_us(line, e.ts_ns);
    if (e.phase == TracePhase::Complete) {
      line += ",\"dur\":";
      append_us(line, e.dur_ns);
    }
    line += ",\"cat\":\"";
    line += to_string(e.cat);
    line += "\",\"name\":";
    json::string(line, e.name != nullptr ? e.name : "?");
    if (e.phase == TracePhase::Instant) line += ",\"s\":\"t\"";
    if (e.id != 0 || e.phase == TracePhase::AsyncBegin || e.phase == TracePhase::AsyncEnd) {
      line += ",\"id\":\"";
      line += std::to_string(e.id);
      line += "\"";
    }
    if (e.argc > 0) {
      line += ",\"args\":{";
      for (std::uint8_t i = 0; i < e.argc; ++i) json::member(line, e.args[i].key, e.args[i].value);
      line += "}";
    }
    line += "}";
    os << line;
  });
  os << "\n]}\n";
}

}  // namespace aqm::obs
