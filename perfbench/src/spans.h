#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// In-memory span recording for the traced run. A span is one call into a
/// layer's public seam, timed from the benchmark's side: name, start, end,
/// the enclosing span on the same thread, the thread, and a step or cycle
/// key. Self time is a span's duration minus the time its children cover;
/// children on one thread nest and never overlap, so that is the sum of
/// their durations.
///
/// Per-name totals (count, total time, self time) accumulate for every
/// span as it closes; the raw spans themselves are kept only up to a cap
/// and written out when the run ends, so memory stays bounded however fast
/// the workload steps.
namespace perfbench {

enum class SpanName : std::uint8_t {
  kAdvance,       ///< Phaser::advance
  kSetBlocked,    ///< StateStore::set_blocked
  kClearBlocked,  ///< StateStore::clear_blocked
  kCheck,         ///< snapshot call → on_scan (one analysis)
  kSnapshot,      ///< StateStore::snapshot
  kPublish,       ///< Site::publish_now
  kSiteCheck,     ///< Site::check_now
  kPut,           ///< SliceStore::put_slice / put_slice_delta
  kRead,          ///< SliceStore::snapshot_since / snapshot
  kCount,
};

const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kAdvance;
  std::uint32_t thread = 0;
  std::uint64_t id = 0;      ///< unique within the log, from 1
  std::uint64_t parent = 0;  ///< enclosing span's id, 0 for a root
  std::uint64_t key = 0;     ///< step or cycle id (0 when none)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;  ///< summed durations of closed children

  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
  /// Duration minus the children's share, never negative.
  [[nodiscard]] std::uint64_t self_ns() const {
    const std::uint64_t d = duration_ns();
    return child_ns < d ? d - child_ns : 0;
  }
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;

  void add(const Span& span) {
    ++count;
    total_ns += static_cast<double>(span.duration_ns());
    self_ns += static_cast<double>(span.self_ns());
  }
  void merge(const SpanTotals& other) {
    count += other.count;
    total_ns += other.total_ns;
    self_ns += other.self_ns;
  }
  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : total_ns / static_cast<double>(count) / 1e3;
  }
  [[nodiscard]] double self_mean_us() const {
    return count == 0 ? 0.0 : self_ns / static_cast<double>(count) / 1e3;
  }
};

class SpanLog {
 public:
  static constexpr std::size_t kDefaultKeep = 200000;

  /// `keep`: how many closed spans to retain for write().
  explicit SpanLog(std::size_t keep = kDefaultKeep);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span on the calling thread, nested in that thread's innermost
  /// open span. Timestamps come from the caller, so tests can feed exact
  /// values.
  void open(SpanName name, std::uint64_t start_ns, std::uint64_t key = 0);

  /// Closes the calling thread's innermost open span at `end_ns`, charges
  /// its duration to its parent, folds it into the totals and returns it.
  /// A close with nothing open returns an empty span.
  Span close(std::uint64_t end_ns);

  /// True iff the calling thread's innermost open span is `name`.
  [[nodiscard]] bool innermost_is(SpanName name);

  /// The totals of `name` over every thread. Call once recording threads
  /// have finished.
  [[nodiscard]] SpanTotals totals(SpanName name) const;

  /// Probes open spans only while recording (set-up and teardown are not
  /// traced). Starts true.
  void set_recording(bool on) { recording_.store(on); }
  [[nodiscard]] bool recording() const { return recording_.load(); }

  /// Writes the kept spans as tab-separated lines (header first), sorted
  /// by start time. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct ThreadLog {
    std::uint32_t thread = 0;
    std::vector<Span> stack;
    std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)> totals{};
    std::vector<Span> kept;
  };

  /// The calling thread's log (created on first use). A thread records
  /// into one SpanLog at a time; moving to another starts a fresh entry.
  ThreadLog& local();

  const std::uint64_t serial_;
  const std::size_t keep_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<bool> recording_{true};
  mutable std::mutex mutex_;  // guards threads_
  std::vector<std::unique_ptr<ThreadLog>> threads_;
};

}  // namespace perfbench
