#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

[[noreturn]] void unknown_argument_error(const char* prog, const char* arg) {
  std::fprintf(stderr,
               "unknown argument: %s\n"
               "usage: %s [--jobs N] [--trace FILE] [--metrics FILE] [--slo FILE] "
               "[--flight FILE]\n",
               arg, prog);
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

ExperimentOptions parse_experiment_options(int& argc, char** argv) {
  ExperimentOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    bool value_in_next = false;
    std::string* path_target = nullptr;
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      value = arg + 7;
    } else if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      value_in_next = true;
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      value = arg + 2;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      value = arg + 8;
      path_target = &opts.trace_path;
    } else if (std::strcmp(arg, "--trace") == 0) {
      value_in_next = true;
      path_target = &opts.trace_path;
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      value = arg + 10;
      path_target = &opts.metrics_path;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      value_in_next = true;
      path_target = &opts.metrics_path;
    } else if (std::strncmp(arg, "--slo=", 6) == 0) {
      value = arg + 6;
      path_target = &opts.slo_path;
    } else if (std::strcmp(arg, "--slo") == 0) {
      value_in_next = true;
      path_target = &opts.slo_path;
    } else if (std::strncmp(arg, "--flight=", 9) == 0) {
      value = arg + 9;
      path_target = &opts.flight_path;
    } else if (std::strcmp(arg, "--flight") == 0) {
      value_in_next = true;
      path_target = &opts.flight_path;
    } else {
      unknown_argument_error(argv[0], arg);
    }
    if (value_in_next) {
      if (i + 1 >= argc) {
        if (path_target != nullptr) {
          std::fprintf(stderr, "missing file argument after %s\n", arg);
          std::exit(2);
        }
        jobs_usage_error(arg);
      }
      value = argv[++i];
    }
    if (path_target != nullptr) {
      if (value == nullptr || *value == '\0') {
        std::fprintf(stderr, "missing file argument after %s\n", arg);
        std::exit(2);
      }
      *path_target = value;
    } else if (!parse_jobs_value(value, opts.jobs)) {
      jobs_usage_error(value);
    }
  }
  argc = std::min(argc, 1);
  argv[argc] = nullptr;
  return opts;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64 finalizer over (base + golden-ratio stride * (index + 1)).
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace aqm::core
