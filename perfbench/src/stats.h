#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

/// Latency statistics: nearest-rank percentiles over a histogram whose
/// buckets are under 1% wide — never power-of-two bucket estimates.
namespace perfbench {

/// The middle of `values` (mean of the two middle values for an even
/// count); 0 when empty.
double median(std::vector<double> values);

/// A latency histogram with log-linear buckets: values below 128 exact,
/// above that 128 buckets per power of two, so no bucket is wider than
/// 1/128 (0.8%) of the values it holds. A percentile is the nearest-rank
/// bucket's midpoint, clamped to the observed min and max, so it is within
/// 0.4% of the true order statistic; the mean is exact. Memory is fixed
/// however many samples arrive.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 7;  // 128 buckets per power of two

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value);
  /// Smallest and largest value bucket `index` holds.
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t index);
  [[nodiscard]] static std::uint64_t bucket_high(std::size_t index);

  void record(std::uint64_t value);
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// p in (0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0;
};

/// Latencies binned by the window of the run they started in (the run is
/// cut into equal windows), so a run can report the median over its
/// windows: a stall from outside the program that hits a few windows does
/// not move it. Samples after the last window count in total() only.
class WindowedLatency {
 public:
  WindowedLatency(std::uint64_t start_ns, std::uint64_t window_ns,
                  std::size_t windows)
      : start_ns_(start_ns), window_ns_(window_ns), windows_(windows) {}

  void record(std::uint64_t begin_ns, std::uint64_t duration_ns);
  void merge(const WindowedLatency& other);

  [[nodiscard]] const LatencyHistogram& total() const { return total_; }
  [[nodiscard]] const std::vector<LatencyHistogram>& windows() const {
    return windows_;
  }
  [[nodiscard]] double window_seconds() const {
    return static_cast<double>(window_ns_) / 1e9;
  }

 private:
  std::uint64_t start_ns_;
  std::uint64_t window_ns_;
  std::vector<LatencyHistogram> windows_;
  LatencyHistogram total_;
};

/// CPU time the host took from this virtual machine so far: the steal
/// column of /proc/stat over all CPUs, in seconds. 0 where not reported
/// (bare metal).
double host_steal_seconds();

/// Reads host_steal_seconds() at every window boundary of a timed phase,
/// from a thread of its own, so each window's stolen time is known.
class StealSampler {
 public:
  StealSampler(std::uint64_t start_ns, std::uint64_t window_ns,
               std::size_t windows);
  ~StealSampler() { stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Waits for the last boundary (call once the phase has run past it)
  /// and returns the seconds stolen during each window.
  std::vector<double> finish();

 private:
  void stop();

  std::vector<double> readings_;  // one per boundary reached
  std::size_t boundaries_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// A run's end-to-end figures as medians over its windows.
struct WindowedSummary {
  std::uint64_t count = 0;  ///< samples in the windows counted
  std::size_t windows = 0;  ///< windows counted
  double ops_per_s = 0;     ///< median window throughput
  double p50_us = 0;        ///< median window p50
  double p99_us = 0;        ///< median window p99
};

/// `samples_per_op`: latency samples making up one operation of the
/// throughput (3 advances per barrier phase on local_*). `steal`, when
/// given (seconds per window), restricts the medians to the windows the
/// host took least CPU from: every window that lost under 1% of the
/// machine's CPU time, or the quietest quarter when fewer did (ties at the
/// cut kept), so contention on the host outside the program does not read
/// as a change in it. Without steal every window counts.
WindowedSummary summarize_windows(const WindowedLatency& latency,
                                  double samples_per_op = 1,
                                  const std::vector<double>& steal = {});

/// Mean of `sum` over `count` (0 when count is 0).
inline double mean_of(double sum, double count) {
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace perfbench
