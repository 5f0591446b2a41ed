#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// Shared vocabulary of the benchmark program: the clock, the command-line
/// options every workload receives, and the Outcome a run reports.
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock), the one timebase of every span
/// and latency sample.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase. A traced run splits it between its
  /// untraced, traced (and, for local_*, unchecked) phases.
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its span log (empty: not written).
  std::string spans_out;
};

/// One reported number, with its unit and the sample count behind it
/// (0 for counters and derived ratios). `label` is the workload's own name
/// for a generic end-to-end metric (ops_per_s is steps_per_s on local_*).
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string label;
};

/// Everything one workload run reports: metrics by name, the operation
/// tally, and the correctness checks that failed.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0, const std::string& label = "") {
    metrics[name] = Metric{value, unit, samples, label};
  }

  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }

  [[nodiscard]] bool correct() const { return failures.empty(); }
};

/// Each workload repeats its set-up until at least kSetupBudgetS seconds of
/// it have been timed, and at least kSetupMinRepeats times; setup_s is the
/// median. One set-up takes milliseconds, so a handful of them would read
/// mostly noise.
inline constexpr std::size_t kSetupMinRepeats = 11;
inline constexpr std::size_t kSetupMaxRepeats = 2000;
inline constexpr double kSetupBudgetS = 0.5;

/// Whether to time another set-up, given the seconds of those timed so far.
inline bool more_setups(const std::vector<double>& timed) {
  double total = 0;
  for (double t : timed) total += t;
  return timed.size() < kSetupMinRepeats ||
         (total < kSetupBudgetS && timed.size() < kSetupMaxRepeats);
}

/// Equal windows a timed phase is cut into after one warm-up window of the
/// same length; throughput and latency percentiles are reported as medians
/// over them.
inline constexpr std::size_t kWindows = 40;

/// Window length for a timed phase of `seconds`, warm-up included.
inline std::uint64_t window_ns_for(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9 / (kWindows + 1));
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// User + system CPU time of this process so far, seconds.
double cpu_seconds();

}  // namespace perfbench
