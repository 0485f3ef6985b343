// Shared plumbing of the end-to-end benchmark: the span recorder that the
// traced run uses, the per-iteration result record, the simulated-outcome
// digest and the engine drain loop every workload ends with.
//
// The benchmark times only its own calls into the library (set-up calls,
// engine-run slices and the handler calls the engine makes back into
// benchmark code). Untraced runs pass a null recorder, so a span costs one
// pointer test and the simulation is byte-for-byte the same either way.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed call. `name` is "<layer>.<call>"; `parent` indexes the
/// enclosing span (kNoParent at the top); `id` groups the spans of one
/// invocation or packet burst (0 = none).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;
  std::uint64_t id;
};

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// In-memory span store. Single-threaded, like the engine it observes.
class SpanRecorder {
 public:
  std::uint32_t open(const char* name, std::uint64_t id) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, stack_.empty() ? kNoParent : stack_.back(), id});
    stack_.push_back(idx);
    spans_[idx].start_ns = host_ns();  // last, so bookkeeping is not timed
    return idx;
  }
  void close(std::uint32_t idx) {
    spans_[idx].end_ns = host_ns();
    stack_.pop_back();
  }
  void clear() {
    spans_.clear();
    stack_.clear();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a no-op when the recorder is null (untraced runs).
class Scoped {
 public:
  Scoped(SpanRecorder* rec, const char* name, std::uint64_t id = 0)
      : rec_(rec), idx_(rec != nullptr ? rec->open(name, id) : 0) {}
  ~Scoped() {
    if (rec_ != nullptr) rec_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t idx_;
};

/// FNV-1a over 64-bit words: the `sim_digest` of one iteration.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Workload size: `full` is what the benchmark measures, `tiny` is the
/// self-test size (same code paths, a fraction of the work).
enum class Scale { Full, Tiny };

struct RunOptions {
  std::uint64_t seed = 1;
  Scale scale = Scale::Full;
  SpanRecorder* spans = nullptr;  // null: untraced
};

/// Everything one iteration of a workload produces.
struct IterationResult {
  double setup_s = 0.0;  // host: workload start -> first engine event
  double run_s = 0.0;    // host: engine run until fully drained
  std::vector<std::int64_t> slice_ns;  // host time of each engine-run slice

  // Protected operations (reserved or high-priority messages).
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::vector<std::int64_t> latency_ns;  // simulated, one per delivered op

  // Unprotected operations, reported beside the protected ones.
  std::uint64_t other_attempted = 0;
  std::uint64_t other_failed = 0;

  std::uint64_t events = 0;
  std::size_t pending_max = 0;

  /// Layer counts from the library's public stats, by metric name.
  std::map<std::string, double> counts;
  Digest digest;
  std::vector<std::string> failed_checks;

  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
};

/// Runs the engine in slices of `slice` simulated time until no event is
/// pending, one "sim.slice" span per slice, and records each slice's host
/// time. Fails the iteration if the clock passes `limit` with events still
/// pending (a workload that never drains).
inline void drain(aqm::sim::Engine& engine, aqm::Duration slice, aqm::TimePoint limit,
                  SpanRecorder* spans, IterationResult& r) {
  while (engine.pending() > 0) {
    if (engine.pending() > r.pending_max) r.pending_max = engine.pending();
    if (engine.now() > limit) {
      r.check(false, "engine still has pending events past the drain limit");
      return;
    }
    const std::int64_t t = host_ns();
    {
      Scoped s(spans, "sim.slice");
      engine.run_until(engine.now() + slice);
    }
    r.slice_ns.push_back(host_ns() - t);
  }
}

/// a / b as a double; 0 when nothing was attempted.
[[nodiscard]] inline double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// Derives the per-component seed `k` of a workload seed (splitmix64).
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

IterationResult run_city_fanin(const RunOptions& opt);
IterationResult run_rtcorba_mix(const RunOptions& opt);
IterationResult run_adaptive_reservation(const RunOptions& opt);

}  // namespace perfbench
