#include "stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

std::size_t LatencyHistogram::bucket_of(std::uint64_t value) {
  constexpr std::uint64_t kLinear = 1ULL << kSubBits;
  if (value < kLinear) return static_cast<std::size_t>(value);
  const unsigned shift = static_cast<unsigned>(std::bit_width(value)) - 1 - kSubBits;
  const std::uint64_t sub = (value >> shift) - kLinear;  // in [0, 128)
  return static_cast<std::size_t>(kLinear + shift * kLinear + sub);
}

std::uint64_t LatencyHistogram::bucket_low(std::size_t index) {
  constexpr std::uint64_t kLinear = 1ULL << kSubBits;
  if (index < kLinear) return index;
  const std::uint64_t k = index - kLinear;
  return (kLinear + k % kLinear) << (k / kLinear);
}

std::uint64_t LatencyHistogram::bucket_high(std::size_t index) {
  constexpr std::uint64_t kLinear = 1ULL << kSubBits;
  if (index < kLinear) return index;
  return bucket_low(index) + (1ULL << ((index - kLinear) / kLinear)) - 1;
}

void LatencyHistogram::record(std::uint64_t value) {
  const std::size_t index = bucket_of(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  min_ = count_ == 0 ? value : std::min(min_, value);
  max_ = std::max(max_, value);
  ++count_;
  sum_ += static_cast<double>(value);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  if (rank == count_) return static_cast<double>(max_);  // exact at the top
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const double mid = (static_cast<double>(bucket_low(i)) +
                          static_cast<double>(bucket_high(i))) / 2.0;
      return std::clamp(mid, static_cast<double>(min_), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

void WindowedLatency::record(std::uint64_t begin_ns, std::uint64_t duration_ns) {
  total_.record(duration_ns);
  if (begin_ns < start_ns_ || window_ns_ == 0) return;
  const std::uint64_t index = (begin_ns - start_ns_) / window_ns_;
  if (index < windows_.size()) windows_[index].record(duration_ns);
}

void WindowedLatency::merge(const WindowedLatency& other) {
  total_.merge(other.total_);
  for (std::size_t i = 0; i < windows_.size() && i < other.windows_.size(); ++i) {
    windows_[i].merge(other.windows_[i]);
  }
}

double host_steal_seconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  unsigned long long v[8] = {};
  const int fields = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                 &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  // /proc/stat counts clock ticks (USER_HZ).
  static const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  return fields == 8 && ticks_per_s > 0 ? static_cast<double>(v[7]) / ticks_per_s
                                        : 0.0;
}

StealSampler::StealSampler(std::uint64_t start_ns, std::uint64_t window_ns,
                           std::size_t windows)
    : boundaries_(windows + 1) {
  readings_.reserve(boundaries_);
  thread_ = std::thread([this, start_ns, window_ns] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 0; k < boundaries_; ++k) {
      const auto at = Clock::time_point(std::chrono::nanoseconds(start_ns + k * window_ns));
      if (cv_.wait_until(lock, at, [this] { return stop_; })) return;
      readings_.push_back(host_steal_seconds());
    }
  });
}

void StealSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<double> StealSampler::finish() {
  if (thread_.joinable()) thread_.join();
  std::vector<double> out;
  if (readings_.size() != boundaries_) return out;
  for (std::size_t k = 1; k < readings_.size(); ++k) {
    out.push_back(readings_[k] - readings_[k - 1]);
  }
  return out;
}

WindowedSummary summarize_windows(const WindowedLatency& latency,
                                  double samples_per_op,
                                  const std::vector<double>& steal) {
  const auto& windows = latency.windows();
  double cut = std::numeric_limits<double>::infinity();
  if (steal.size() == windows.size() && !windows.empty()) {
    std::vector<double> sorted = steal;
    std::sort(sorted.begin(), sorted.end());
    // A window that lost under 1% of the machine's CPU time always counts.
    const double negligible = 0.01 * latency.window_seconds() *
                              std::max(1u, std::thread::hardware_concurrency());
    cut = std::max(sorted[(sorted.size() - 1) / 4], negligible);
  }
  WindowedSummary out;
  std::vector<double> rate, p50, p99;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (std::isfinite(cut) && steal[i] > cut) continue;
    const LatencyHistogram& w = windows[i];
    ++out.windows;
    out.count += w.count();
    rate.push_back(static_cast<double>(w.count()) / samples_per_op /
                   latency.window_seconds());
    p50.push_back(w.percentile(50) / 1e3);
    p99.push_back(w.percentile(99) / 1e3);
  }
  out.ops_per_s = median(rate);
  out.p50_us = median(p50);
  out.p99_us = median(p99);
  return out;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's footprint when that was larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace perfbench
