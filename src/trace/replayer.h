#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dependency_state.h"
#include "core/incremental_checker.h"
#include "core/state_store.h"
#include "core/task_registry.h"
#include "trace/format.h"

/// Replay side of the trace subsystem: feed a recorded event stream back
/// into a StateStore and TaskRegistry (Replayer), and re-run the deadlock
/// analysis offline (OfflineVerifier), under the same or a *different*
/// graph model than the live run used. `tools/armus_trace.cc` is the CLI over this;
/// tests/trace_test.cc pins replay ≡ live.
namespace armus::trace {

/// A record tagged with the trace file it came from (index into the
/// MergedTrace input list).
struct TimedRecord {
  Record record;
  std::size_t source = 0;
};

/// One or more trace files merged into a single timeline ordered by
/// absolute steady-clock timestamp. Per-process monotonic clocks share one
/// base on a host, so traces of a multi-process run (one ARMUS_TRACE file
/// per site process) interleave in true order; ties keep input order.
class MergedTrace {
 public:
  /// Loads every path fully; throws TraceError on any unreadable or
  /// malformed input.
  explicit MergedTrace(const std::vector<std::string>& paths);

  /// Merges traces already held in memory (the fuzz harness replays
  /// mutants without touching disk). Same strictness as the path form.
  static MergedTrace from_bytes(const std::vector<std::string>& buffers);

  [[nodiscard]] const std::vector<TraceHeader>& headers() const {
    return headers_;
  }
  [[nodiscard]] const std::vector<TimedRecord>& records() const {
    return records_;
  }

 private:
  MergedTrace() = default;
  void add(TraceReader reader, std::size_t source);
  void finish();

  std::vector<TraceHeader> headers_;
  std::vector<TimedRecord> records_;
};

/// Expands every base path to its on-disk rotation segments (`p`, `p.1`,
/// `p.2`, … — see Recorder's segment rotation): the CLI spelling
/// `armus-trace verify run.trace` replays the whole rotated set without
/// naming each segment. Paths without extra segments pass through
/// unchanged; explicit segment names are not re-expanded.
std::vector<std::string> expand_segments(const std::vector<std::string>& paths);

/// The snapshot a checker sees: stored waits overlaid with the current
/// registrations — the replay-side mirror of Verifier::current_snapshot.
std::vector<BlockedStatus> merged_snapshot(const StateStore& store,
                                           const TaskRegistry& registry);

/// Applies state records (BLOCKED / UNBLOCKED / TASK_REGISTERED /
/// TASK_DEREGISTERED) to a store + registry pair; SCAN and REPORT records
/// are ignored — scheduling analyses is the caller's policy.
class Replayer {
 public:
  Replayer(StateStore* store, TaskRegistry* registry)
      : store_(store), registry_(registry) {}

  void apply(const Record& record);

 private:
  StateStore* store_;
  TaskRegistry* registry_;
};

/// Replays a merged trace and re-runs the deadlock analysis, reproducing
/// the live run's scan schedule: every recorded SCAN triggers one check
/// over the replayed state (the recorded run checked exactly then, so a
/// deadlock it saw is on the timeline — replay-to-end would miss cycles
/// that were later rescued). The result carries both verdicts for
/// comparison.
class OfflineVerifier {
 public:
  struct Options {
    /// Model for the offline analysis (kAuto = the §5.1 density rule, the
    /// library default — not necessarily what the live run used; the CLI
    /// seeds this from the trace header's ARMUS_GRAPH_MODEL meta).
    /// Override to re-verify a capture under a different model.
    GraphModel model = GraphModel::kAuto;

    /// Run one check per recorded SCAN (default). Off = only the final
    /// check (when final_scan is set).
    bool scan_at_records = true;

    /// Run one extra check after the last record.
    bool final_scan = false;

    /// Replay pacing: 0 (default) = as fast as possible; 1 = original
    /// timing; k = k× faster than recorded.
    double speed = 0.0;
  };

  struct Result {
    /// Deadlocks the offline analysis found, deduplicated by task set.
    std::vector<DeadlockReport> replayed;

    /// Deadlocks the live run recorded (REPORT records), deduplicated.
    std::vector<DeadlockReport> recorded;

    std::uint64_t records = 0;  ///< records applied
    std::uint64_t scans = 0;    ///< offline checks run

    /// Same deadlock-or-not verdict.
    [[nodiscard]] bool verdicts_match() const {
      return replayed.empty() == recorded.empty();
    }

    /// Same set of cycle task sets (fingerprint equality, order-free).
    [[nodiscard]] bool cycles_match() const;

    /// Every recorded deadlock reappeared in the replay (the guarantee the
    /// trace-ordering contract makes unconditional; the replay may surface
    /// *additional* cycles the live run's scan timing never reported).
    [[nodiscard]] bool recorded_subset_of_replayed() const;
  };

  explicit OfflineVerifier(Options options);

  /// Consumes the whole trace. Callable once per instance.
  Result run(const MergedTrace& trace);

 private:
  void check_now(Result* result);

  Options options_;
  DependencyState store_;
  TaskRegistry registry_;
  IncrementalChecker incremental_;
};

}  // namespace armus::trace
