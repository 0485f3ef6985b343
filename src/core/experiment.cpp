#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json.hpp"
#include "sim/engine.hpp"

namespace aqm::core {
namespace {

bool parse_jobs_value(const char* text, unsigned& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == nullptr || *end != '\0' || v > 4096) return false;
  out = static_cast<unsigned>(v);
  return true;
}

[[noreturn]] void jobs_usage_error(const char* arg) {
  std::fprintf(stderr, "invalid --jobs argument: %s (expected --jobs N with N in 0..4096; 0 = all cores)\n",
               arg);
  std::exit(2);
}

/// One sidecar: its flag (`--<name> FILE` or `--<name>=FILE`), where the
/// parsed path lands, and the document written there.
struct SidecarFlag {
  const char* name;
  Sidecar bit;
  std::string ExperimentOptions::*path;
  void (*write)(std::ostream&, const std::vector<obs::NamedTrialObs>&);
};

constexpr SidecarFlag kSidecarFlags[] = {
    {"trace", kTraceSidecar, &ExperimentOptions::trace_path, obs::write_trace_sidecar},
    {"metrics", kMetricsSidecar, &ExperimentOptions::metrics_path, obs::write_metrics_sidecar},
    {"slo", kSloSidecar, &ExperimentOptions::slo_path, obs::write_health_sidecar},
    {"flight", kFlightSidecar, &ExperimentOptions::flight_path, obs::write_flight_sidecar},
};

/// `--name` alone (value in the next argument) or `--name=VALUE` (sets
/// `value`); false when `arg` is neither.
bool match_flag(const char* arg, const char* name, const char*& value) {
  if (std::strncmp(arg, "--", 2) != 0) return false;
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg + 2, name, n) != 0) return false;
  if (arg[2 + n] == '\0') return true;
  if (arg[2 + n] != '=') return false;
  value = arg + 3 + n;
  return true;
}

[[noreturn]] void usage_error(const char* prog, const char* what, const char* arg,
                              unsigned sidecars) {
  std::fprintf(stderr, "%s: %s\nusage: %s [--jobs N]", what, arg, prog);
  for (const SidecarFlag& f : kSidecarFlags) {
    if ((sidecars & f.bit) != 0) std::fprintf(stderr, " [--%s FILE]", f.name);
  }
  std::fputc('\n', stderr);
  std::exit(2);
}

}  // namespace

namespace detail {
void report_trial_done(bool enabled) {
  if (!enabled) return;
  // Progress goes to stderr so the experiment's stdout stays a clean,
  // deterministic report regardless of trial completion order.
  std::fputc('.', stderr);
  std::fflush(stderr);
}
}  // namespace detail

ExperimentOptions parse_experiment_options(int& argc, char** argv, unsigned sidecars) {
  ExperimentOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    const SidecarFlag* sidecar = nullptr;
    for (const SidecarFlag& f : kSidecarFlags) {
      if (match_flag(arg, f.name, value)) {
        sidecar = &f;
        break;
      }
    }
    if (sidecar != nullptr) {
      if ((sidecars & sidecar->bit) == 0) {
        usage_error(argv[0], "unsupported argument", arg, sidecars);
      }
      if (value == nullptr && i + 1 < argc) value = argv[++i];
      if (value == nullptr || *value == '\0') {
        std::fprintf(stderr, "missing file argument after %s\n", arg);
        std::exit(2);
      }
      opts.*sidecar->path = value;
      continue;
    }
    if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 >= argc) jobs_usage_error(arg);
      value = argv[++i];
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      value = arg + 7;
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      value = arg + 2;
    } else {
      usage_error(argv[0], "unknown argument", arg, sidecars);
    }
    if (!parse_jobs_value(value, opts.jobs)) jobs_usage_error(value);
  }
  argc = std::min(argc, 1);
  argv[argc] = nullptr;
  return opts;
}

unsigned ExperimentOptions::sidecars() const {
  unsigned set = kNoSidecars;
  for (const SidecarFlag& f : kSidecarFlags) {
    if (!(this->*f.path).empty()) set |= f.bit;
  }
  return set;
}

void write_sidecars(const ExperimentOptions& opts,
                    const std::vector<obs::NamedTrialObs>& trials) {
  for (const SidecarFlag& f : kSidecarFlags) {
    const std::string& path = opts.*f.path;
    if (path.empty()) continue;
    if (!obs::json::write_file(path, [&](std::ostream& os) { f.write(os, trials); })) {
      std::fprintf(stderr, "failed to write %s sidecar to %s\n", f.name, path.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "%s sidecar written to %s\n", f.name, path.c_str());
  }
}

TrialObserver::TrialObserver(sim::Engine& engine, unsigned sidecars)
    : engine_(engine), sidecars_(sidecars) {
  if (wants(kTraceSidecar)) {
    trace_ = std::make_shared<obs::TraceRecorder>();
    engine_.set_tracer(trace_.get());
  }
  if (wants(kSloSidecar) || wants(kFlightSidecar)) {
    hub_ = std::make_unique<obs::TelemetryHub>();
    engine_.set_telemetry(hub_.get());
    if (trace_ != nullptr) {
      hub_->set_dump_source(trace_.get());
    } else {
      engine_.set_tracer(&hub_->flight());
    }
  }
}

void TrialObserver::finish(obs::TrialObs& out) {
  if (hub_ != nullptr) {
    hub_->finalize(engine_.now());
    out.health = hub_->report();
    out.flight_dumps = hub_->dumps();
    engine_.set_telemetry(nullptr);
    if (trace_ == nullptr) engine_.set_tracer(nullptr);
  }
  out.trace = trace_;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64 finalizer over (base + golden-ratio stride * (index + 1)).
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace aqm::core
