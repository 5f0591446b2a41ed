#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/observer.h"
#include "trace/format.h"

/// Capture side of the trace subsystem: an EventObserver that persists
/// everything it hears to a trace file. Attach one through
/// `VerifierConfig::observer` (or `dist::Site::Config::observer`) and the
/// run becomes replayable offline — `dist::Site` (hence
/// `net::site_from_env()`) and the bench harness do so automatically when
/// ARMUS_TRACE names a path.
namespace armus::trace {

class Recorder final : public EventObserver {
 public:
  struct Options {
    std::string path;

    /// Free-form header metadata ("mode", "model", …) surfaced by
    /// `armus-trace stats` and used by `verify` to pick its comparison
    /// policy. recorder_from_env() fills in the ARMUS_* environment.
    std::vector<std::pair<std::string, std::string>> meta;

    /// Segment rotation (docs/TRACE_FORMAT.md §5): when non-zero, the
    /// recorder closes the current file once it reaches this many bytes
    /// and continues in `<path>.1`, `<path>.2`, … — so a long-running
    /// producer can record forever with bounded per-file size. Rotation
    /// happens strictly *between* records (a record, in particular a
    /// REPORT, never straddles segments) and every new segment starts
    /// with a full header plus a checkpoint of the live state
    /// (registrations and blocked statuses), so each segment replays
    /// standalone and the full set merges losslessly.
    /// recorder_from_env() reads ARMUS_TRACE_MAX_BYTES.
    std::uint64_t max_segment_bytes = 0;

    /// Time-based rotation: when non-zero, a segment is also rotated once
    /// it is older than this many seconds (checked on the next append —
    /// an idle recorder does not rotate). ARMUS_TRACE_MAX_SECONDS.
    std::uint64_t max_segment_seconds = 0;
  };

  /// Creates (truncates) the trace file and writes the header. Throws
  /// TraceError when the path cannot be created — a requested trace that
  /// silently goes nowhere would be worse than a loud failure.
  explicit Recorder(Options options);

  /// Flushes and closes. Events arriving after destruction began are lost;
  /// stop verifiers/sites first.
  ~Recorder() override;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void flush();
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Records written across every segment (checkpoint re-emissions
  /// included).
  [[nodiscard]] std::uint64_t records_written() const;

  /// Segments created so far (1 while rotation never triggered).
  [[nodiscard]] std::uint64_t segments() const;

  /// True once a write failed (disk full, EIO). The failure is logged
  /// loudly exactly once and capture stops — the traced program keeps
  /// running, but the trace must not be trusted past its last record.
  [[nodiscard]] bool failed() const;

  // --- EventObserver (thread-safe; events serialise on one mutex) --------
  void on_task_registered(TaskId task, PhaserUid phaser,
                          Phase local_phase) override;
  void on_task_deregistered(TaskId task, PhaserUid phaser) override;
  void on_blocked(const BlockedStatus& status) override;
  void on_block_rollback(TaskId task) override;
  void on_unblocked(TaskId task) override;
  void on_scan(const ScanInfo& info) override;
  void on_report(const DeadlockReport& report) override;

 private:
  void append_locked(Record record);
  void flush_locked();

  /// True when the size or age budget is exhausted and at least one real
  /// record landed in the current segment (an over-budget checkpoint alone
  /// must not re-rotate forever).
  [[nodiscard]] bool rotation_due_locked(std::uint64_t now_ns) const;

  /// Flushes and closes the current segment, opens `<path>.<n>` with a
  /// fresh header, and re-emits the live state (registrations then blocked
  /// statuses) so the new segment replays standalone.
  void rotate_locked(std::uint64_t now_ns);

  std::string path_;
  Options options_;
  mutable std::mutex mutex_;
  std::unique_ptr<TraceWriter> writer_;
  bool failed_ = false;
  std::uint64_t segment_ = 0;
  std::uint64_t segment_opened_ns_ = 0;
  std::uint64_t records_total_ = 0;
  std::uint64_t segment_records_ = 0;  ///< non-checkpoint records this segment

  /// Last status recorded per live task: avoidance rechecks re-publish an
  /// unchanged status every poll period, which must not bloat the trace —
  /// an identical re-publish is dropped, as is an UNBLOCKED for a task
  /// that never blocked (clear_blocked is a no-op there too).
  std::unordered_map<TaskId, BlockedStatus> live_;

  /// The status each task held *before* its latest recorded BLOCKED
  /// (absent value = the task was not blocked). on_block_rollback undoes
  /// the publish from here: the store rolled back to exactly this state.
  std::unordered_map<TaskId, std::optional<BlockedStatus>> previous_;

  /// Current registrations (task -> phaser -> local phase), mirrored from
  /// the registry events so a rotated segment can start from a checkpoint.
  /// Ordered maps keep checkpoint emission deterministic.
  std::map<TaskId, std::map<PhaserUid, Phase>> regs_;
};

/// The process-wide recorder named by ARMUS_TRACE, created lazily on
/// first use and shared by every verifier that attaches through an env
/// path (nullptr when the variable is unset). One process writes one
/// trace, however many verifiers/sites it hosts — their events interleave
/// into a single timeline. "%p" in the path expands to the pid, so
/// multi-process runs that inherit one environment still get one file
/// per process. ARMUS_TRACE_MAX_BYTES / ARMUS_TRACE_MAX_SECONDS bound the
/// segments (0 / unset = never rotate). Throws on an uncreatable path.
std::shared_ptr<Recorder> recorder_from_env();

/// The on-disk name of segment `index` of a rotated trace: `base` itself
/// for 0, `base.<index>` afterwards.
std::string segment_path(const std::string& base, std::uint64_t index);

/// All existing segments of `base`, in rotation order (just `{base}` for
/// an unrotated trace). Stops at the first missing index.
std::vector<std::string> segment_paths(const std::string& base);

}  // namespace armus::trace
