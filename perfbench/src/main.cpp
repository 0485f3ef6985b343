// perfbench: end-to-end and per-layer benchmark of the DRE-middleware
// simulator.
//
//   perfbench --workload <city_fanin|rtcorba_mix|adaptive_reservation>
//             --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--spans-out FILE]
//
// One process runs one workload. Every iteration builds the workload from
// scratch with the same seed, runs the engine until it drains and checks
// the outcome. After one warm-up iteration that is checked but not timed,
// a fixed number of timed iterations runs (see run()), each on the CPU
// where the workload runs fastest at that moment; time left over from
// --seconds is idle padding. setup_s is the median over the timed
// iterations, run_s the sum of per-slice minima over them. Simulated
// outcomes must be identical in every iteration.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced iterations and reports the per-layer metrics instead, plus
// the cost-model closure line. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed check prints it
// with "correct": false and exits 1.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0), in BENCHMARK.json order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"run_s", "s"},       {"peak_rss_mb", "MiB"},
    {"qos_delivered", "ratio"}, {"qos_p50_ms", "ms"}, {"qos_p99_ms", "ms"},
};

// The per-layer metrics (--trace 1), in BENCHMARK.json order. A layer that
// is idle on a workload reports 0 (see README.md).
constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_s", "s"},
    {"sim.pending_max", "count"},
    {"net.sent", "count"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"net.delivery_ratio", "ratio"},
    {"net.hops", "count"},
    {"net.flows", "count"},
    {"net.bottleneck_enqueued", "count"},
    {"net.bottleneck_drops", "count"},
    {"net.reserved_util_max", "ratio"},
    {"net.send_ns.p50", "ns"},
    {"net.send_ns.p99", "ns"},
    {"net.install_ns.p50", "ns"},
    {"net.self_s", "s"},
    {"os.utilization", "ratio"},
    {"os.reserved_util", "ratio"},
    {"os.busy_sim_s", "s"},
    {"os.self_s", "s"},
    {"orb.requests_sent", "count"},
    {"orb.dispatched", "count"},
    {"orb.replies_ok", "count"},
    {"orb.timeouts", "count"},
    {"orb.retries", "count"},
    {"orb.deadline_missed", "count"},
    {"orb.dispatch_rejected", "count"},
    {"orb.ok_ratio", "ratio"},
    {"orb.batches_sent", "count"},
    {"orb.msgs_per_batch", "count"},
    {"orb.invoke_ns.p50", "ns"},
    {"orb.invoke_ns.p99", "ns"},
    {"orb.self_s", "s"},
    {"core.apply_ns.p50", "ns"},
    {"core.update_ns.p50", "ns"},
    {"core.epoch_ns.p50", "ns"},
    {"core.epochs", "count"},
    {"core.restamps_applied", "count"},
    {"core.restamps_rejected", "count"},
    {"core.restamp_ratio", "ratio"},
    {"core.self_s", "s"},
    {"obs.watched_flows", "count"},
    {"obs.breaches", "count"},
    {"obs.recoveries", "count"},
    {"obs.health_events", "count"},
    {"obs.report_ns", "ns"},
    {"obs.self_s", "s"},
    {"quo.transitions", "count"},
    {"quo.frames_filtered_ratio", "ratio"},
    {"quo.self_s", "s"},
    {"imgproc.images", "count"},
    {"imgproc.edge_ns.p50", "ns"},
    {"imgproc.self_s", "s"},
    {"bench.self_s", "s"},
    {"trace.run_s", "s"},
    {"trace.overhead", "ratio"},
    {"trace.unattributed_share", "ratio"},
    {"trace.spans", "count"},
};

// Layers whose self time the closure line sums, in print order.
constexpr const char* kLayers[] = {"bench", "net", "os",  "orb",
                                   "core",  "obs", "quo", "imgproc"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::Full;
  std::string spans_out;
};

struct Workload {
  const char* name;
  IterationResult (*run)(const RunOptions&);
  // Host seconds one full-size iteration may take: about twice its time on
  // a quiet host, so the timed iterations still fit --seconds on a slow one.
  double budget_s;
};

constexpr Workload kWorkloads[] = {
    {"city_fanin", run_city_fanin, 1.4},
    {"rtcorba_mix", run_rtcorba_mix, 0.6},
    {"adaptive_reservation", run_adaptive_reservation, 0.8},
};

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Moves the process to the CPU of `cpus` on which a tiny-scale iteration
/// of the workload runs fastest right now, and returns that CPU (-1: left
/// where it was). On a shared host other tenants load some cores for
/// minutes at a time; every iteration of a process on such a core took up
/// to 1.7x as long as on a quiet core of the same host.
int pin_to_quietest(const std::vector<int>& cpus, const Workload& w, std::uint64_t seed) {
  if (cpus.size() < 2) return -1;
  int best = -1;
  std::int64_t best_ns = 0;
  for (const int c : cpus) {
    if (!pin_to(c)) continue;
    // Twice: the first run after a move starts on cold caches.
    for (int k = 0; k < 2; ++k) {
      const std::int64_t t = host_ns();
      w.run(RunOptions{seed, Scale::Tiny, nullptr});
      const std::int64_t ns = host_ns() - t;
      if (best < 0 || ns < best_ns) {
        best = c;
        best_ns = ns;
      }
    }
  }
  if (best >= 0) pin_to(best);
  return best;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--scale full|tiny] [--spans-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--scale") {
        if (v != "full" && v != "tiny") usage("--scale takes full or tiny");
        a.scale = v == "tiny" ? Scale::Tiny : Scale::Full;
      } else if (k == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
template <typename T>
double percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1]);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Resident-set high-water mark of this process image. Read from VmHWM,
/// not getrusage: ru_maxrss survives execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Debug / sanitizer builds time something other than what users run.
std::string build_flags() {
  std::string flags;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  flags += " sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  flags += " sanitizer";
#endif
#endif
#ifndef NDEBUG
  flags += " assertions";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") flags += " debug";
  return flags.empty() ? "none" : flags.substr(1);
}

/// Per-layer view of one traced iteration.
struct LayerTimes {
  std::map<std::string, double> self_s;  // run-phase self time by layer
  double slices_s = 0.0;                 // sum of engine-run slices
  double sim_self_s = 0.0;               // slice time no handler span covers
  std::map<std::string, std::vector<double>> call_ns;  // per span name
  std::size_t spans = 0;
};

LayerTimes analyze(const std::vector<Span>& spans) {
  LayerTimes lt;
  lt.spans = spans.size();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::uint32_t> root(spans.size(), 0);
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent == kNoParent ? i : root[s.parent];
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    lt.call_ns[s.name].push_back(static_cast<double>(dur));
    const bool run_phase = std::strcmp(spans[root[i]].name, "sim.slice") == 0;
    if (!run_phase) continue;
    const double self = static_cast<double>(dur - child_ns[i]) / 1e9;
    if (std::strcmp(s.name, "sim.slice") == 0) {
      lt.slices_s += static_cast<double>(dur) / 1e9;
      lt.sim_self_s += self;
    } else {
      const std::string name = s.name;
      lt.self_s[name.substr(0, name.find('.'))] += self;
    }
  }
  return lt;
}

/// Writes spans as TSV, times relative to the first span's start.
bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "# span\tname\tstart_ns\tend_ns\tparent\tid\n";
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << i << '\t' << s.name << '\t' << s.start_ns - base << '\t' << s.end_ns - base << '\t'
      << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent)) << '\t' << s.id
      << '\n';
  }
  return static_cast<bool>(f);
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + args.workload);

  std::cout << "fingerprint: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\" compiler=\"" << PERFBENCH_COMPILER
            << "\" build_type=" << PERFBENCH_BUILD_TYPE << " flags=" << build_flags()
            << "\n";
  if (build_flags() != "none") {
    std::cout << "WARNING: not an optimized release build; host times are not comparable\n";
  }

  SpanRecorder recorder;
  std::vector<std::string> problems;  // distinct failed checks, first-seen order
  const auto note = [&](const std::string& p) {
    if (std::find(problems.begin(), problems.end(), p) == problems.end()) problems.push_back(p);
  };
  const auto once = [&](bool traced) {
    if (traced) recorder.clear();
    RunOptions opt{args.seed, args.scale, traced ? &recorder : nullptr};
    IterationResult r = workload->run(opt);
    for (const std::string& f : r.failed_checks) note(f);
    return r;
  };

  // Warm-up: checked, its digest is the reference, not timed. Peak memory
  // is read right after it, so it measures one build-and-run of the
  // workload and not heap drift over the iterations that follow.
  const std::int64_t t0 = host_ns();
  const IterationResult ref = once(false);
  const double peak_rss = peak_rss_mib();

  // run_s is built slice by slice. The simulation is deterministic, so
  // every iteration runs the same engine slices; each slice's fastest time
  // over the untraced iterations is summed. Interference from other
  // tenants comes in bursts: the median iteration of a run drifts with
  // them by 20% or more between runs, while the sum of per-slice minima
  // takes each slice from an iteration that ran it undisturbed. Per-layer
  // host times come from the fastest traced iteration.
  // The number of timed iterations follows from --seconds and the
  // workload's budget only, never from how many fit: a faster build would
  // otherwise get more samples and so lower minima. --trace 1 alternates
  // untraced and traced iterations, at least one of each.
  const int timed = std::max(1, static_cast<int>(args.seconds / workload->budget_s) - 1);
  const int iterations = args.trace ? std::max(2, timed) : timed;
  std::vector<double> setup_s;
  std::vector<double> run_s;                 // whole untraced iterations
  std::vector<std::int64_t> best_slice_ns;   // per-slice minima over them
  double traced_run_s = 0.0;
  LayerTimes layers;        // of the fastest traced iteration
  std::vector<Span> kept;   // its spans, written to --spans-out
  int traced = 0;
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> chosen_cpus;  // per timed iteration, for the record
  for (int i = 0; i < iterations; ++i) {
    const bool traced_iter = args.trace && i % 2 == 1;
    chosen_cpus.push_back(pin_to_quietest(cpus, *workload, args.seed));
    const IterationResult r = once(traced_iter);
    if (r.digest.value() != ref.digest.value()) {
      note(traced_iter ? "sim_digest differs in a traced iteration"
                       : "sim_digest differs between iterations");
    }
    if (!traced_iter) {
      setup_s.push_back(r.setup_s);
      run_s.push_back(r.run_s);
      if (best_slice_ns.empty()) {
        best_slice_ns = r.slice_ns;
      } else if (r.slice_ns.size() != best_slice_ns.size()) {
        note("engine slice count differs between iterations");
      } else {
        for (std::size_t k = 0; k < best_slice_ns.size(); ++k) {
          best_slice_ns[k] = std::min(best_slice_ns[k], r.slice_ns[k]);
        }
      }
    } else if (++traced == 1 || r.run_s < traced_run_s) {
      traced_run_s = r.run_s;
      layers = analyze(recorder.spans());
      kept = recorder.spans();
    }
  }
  const std::int64_t left_ns = t0 + static_cast<std::int64_t>(args.seconds * 1e9) - host_ns();
  if (left_ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left_ns));

  // --- simulated outcomes (identical in every iteration) ---------------------
  std::vector<std::int64_t> lat = ref.latency_ns;
  std::sort(lat.begin(), lat.end());
  const double p50_ms = percentile(lat, 0.50) / 1e6;
  const double p99_ms = percentile(lat, 0.99) / 1e6;
  // p99 needs at least ten samples beyond it; the tiny self-test size is
  // exempt (it checks determinism, not latency).
  if (ref.attempted == 0 || (args.scale == Scale::Full && lat.size() < 1000)) {
    note("fewer than 1000 protected latency samples");
  }
  const std::size_t beyond_p99 =
      lat.size() - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(lat.size())));
  const double run_best = *std::min_element(run_s.begin(), run_s.end());
  std::int64_t slices_ns = 0;
  for (const std::int64_t ns : best_slice_ns) slices_ns += ns;
  const double run_slices = static_cast<double>(slices_ns) / 1e9;

  std::cout << "workload " << args.workload << " seed " << args.seed
            << ": sim_digest " << hex(ref.digest.value()) << ", " << run_s.size()
            << " untraced + " << traced << " traced iterations after 1 warm-up\n";
  std::cout << "  protected ops: attempted " << ref.attempted << ", delivered "
            << ref.delivered << ", latency samples " << lat.size() << " (" << beyond_p99
            << " beyond p99)\n";
  std::cout << "  unprotected ops: attempted " << ref.other_attempted << ", failed "
            << ref.other_failed << " (best effort / low priority, lost by design)\n";
  std::cout << "  engine events per iteration " << ref.events << "; run_s median "
            << num(median(run_s)) << " s, fastest " << num(run_best)
            << " s, sum of per-slice minima " << num(run_slices) << " s over "
            << best_slice_ns.size() << " slices\n";

  std::vector<std::pair<const Metric*, double>> out;
  if (!args.trace) {
    const double values[] = {median(setup_s),
                             run_slices,
                             peak_rss,
                             ratio(ref.delivered, ref.attempted),
                             p50_ms,
                             p99_ms};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    std::map<std::string, double> v(ref.counts.begin(), ref.counts.end());
    v["sim.events"] = static_cast<double>(ref.events);
    v["sim.ns_per_event"] =
        run_slices * 1e9 / static_cast<double>(std::max<std::uint64_t>(ref.events, 1));
    v["sim.self_s"] = layers.sim_self_s;
    v["sim.pending_max"] = static_cast<double>(ref.pending_max);
    double attributed = layers.sim_self_s;
    for (const char* layer : kLayers) {
      const double s = layers.self_s[layer];
      v[std::string(layer) + ".self_s"] = s;
      attributed += s;
    }
    const auto calls = [&](const char* span, const char* metric, double q) {
      std::vector<double> d = layers.call_ns[span];
      std::sort(d.begin(), d.end());
      v[metric] = percentile(d, q);
    };
    calls("net.send", "net.send_ns.p50", 0.50);
    calls("net.send", "net.send_ns.p99", 0.99);
    calls("net.install", "net.install_ns.p50", 0.50);
    calls("orb.invoke", "orb.invoke_ns.p50", 0.50);
    calls("orb.invoke", "orb.invoke_ns.p99", 0.99);
    calls("core.apply", "core.apply_ns.p50", 0.50);
    calls("core.update", "core.update_ns.p50", 0.50);
    calls("core.epoch", "core.epoch_ns.p50", 0.50);
    calls("obs.report", "obs.report_ns", 0.50);
    calls("imgproc.edge", "imgproc.edge_ns.p50", 0.50);
    v["trace.run_s"] = traced_run_s;
    v["trace.overhead"] = traced_run_s / run_best - 1.0;
    v["trace.unattributed_share"] = 1.0 - attributed / traced_run_s;
    v["trace.spans"] = static_cast<double>(layers.spans);
    for (const Metric& m : kPerLayer) out.emplace_back(&m, v[m.name]);

    // Cost-model closure of the fastest traced iteration: per-layer self
    // times plus sim.self_s against its run_s, and against the fastest
    // untraced iteration.
    std::cout << "closure " << args.workload << ": sim.self " << num(layers.sim_self_s) << " s";
    for (const char* layer : kLayers) {
      std::cout << " + " << layer << " " << num(layers.self_s[layer]) << " s";
    }
    std::cout << " = " << num(attributed) << " s of traced run_s " << num(traced_run_s)
              << " s; fastest untraced iteration " << num(run_best) << " s; tracing overhead "
              << num(100.0 * v["trace.overhead"]) << "%; unattributed "
              << num(100.0 * v["trace.unattributed_share"]) << "%\n";
    if (!args.spans_out.empty() && !write_spans(args.spans_out, kept)) {
      note("could not write " + args.spans_out);
    }
  }
  for (const auto& [m, value] : out) {
    std::cout << "  " << m->name << " = " << num(value) << " " << m->unit << "\n";
  }
  for (const std::string& p : problems) std::cout << "CHECK FAILED: " << p << "\n";

  // Machine-readable record (the wrapper stamps the host fingerprint on it)
  // and the result line, which must come last.
  const bool correct = problems.empty();
  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < out.size(); ++i) {
    metrics << (i ? ", " : "") << "\"" << out[i].first->name << "\": {\"value\": "
            << num(out[i].second) << ", \"unit\": \"" << out[i].first->unit << "\"}";
  }
  metrics << "}";
  std::ostringstream samples;
  for (std::size_t i = 0; i < run_s.size(); ++i) samples << (i ? ", " : "") << num(run_s[i]);
  std::ostringstream cpu_list;
  for (std::size_t i = 0; i < chosen_cpus.size(); ++i) {
    cpu_list << (i ? ", " : "") << chosen_cpus[i];
  }
  std::cout << "record: {\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"sim_digest\": \""
            << hex(ref.digest.value()) << "\", \"qos_samples\": " << lat.size()
            << ", \"unprotected_attempted\": " << ref.other_attempted
            << ", \"unprotected_failed\": " << ref.other_failed
            << ", \"run_s_median\": " << num(median(run_s))
            << ", \"run_s_fastest\": " << num(run_best) << ", \"run_s_samples\": ["
            << samples.str() << "], \"iteration_cpus\": [" << cpu_list.str()
            << "], \"build_flags\": \"" << build_flags()
            << "\", \"metrics\": " << metrics.str() << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ref.attempted
            << ", \"failed\": " << ref.attempted - ref.delivered
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return correct ? 0 : 1;
}
}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
