#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/checker.h"
#include "core/dependency_state.h"
#include "core/incremental_checker.h"
#include "core/observer.h"
#include "core/state_store.h"
#include "core/task_registry.h"

/// The verification layer of Armus (§5): owns the resource-dependency state
/// and runs the deadlock checker in one of two modes.
///
/// * **Detection**: a dedicated scanner thread analyses the blocked statuses
///   every `period` (100 ms in the paper's local runs) and reports existing
///   deadlocks through a callback. Lower overhead; reports after the fact.
/// * **Avoidance**: every task checks the graph synchronously *before*
///   blocking; if the block would never complete, the blocking operation is
///   interrupted with a DeadlockAvoidedError so the program can recover.
namespace armus {

enum class VerifyMode { kOff, kDetection, kAvoidance };

std::string to_string(VerifyMode mode);
VerifyMode verify_mode_from_string(const std::string& name);

struct VerifierConfig {
  VerifyMode mode = VerifyMode::kDetection;
  GraphModel model = GraphModel::kAuto;

  /// Detection scan period. The paper runs local detection at 100 ms and
  /// distributed detection at 200 ms.
  std::chrono::milliseconds period{100};

  /// Avoidance mode: how often an already-blocked task re-runs the doom
  /// check. A deadlock cycle is closed by its *last* blocker — that one is
  /// interrupted synchronously by before_block — but the paper's §2.1
  /// behaviour ("an exception is raised in Lines 8 and 11", i.e. in every
  /// stuck task) requires the earlier blockers to notice too; they poll at
  /// this period while waiting.
  std::chrono::milliseconds avoidance_recheck{10};

  /// Detection mode: run the local scanner thread. Distributed sites (§5.2)
  /// disable it — their checker operates on the *global* store snapshot
  /// instead, driven by dist::Site.
  bool scanner_enabled = true;

  /// The blocked-status store this Verifier reads and writes. nullptr (the
  /// default) gives the Verifier a fresh process-local DependencyState.
  /// The seam is for wrappers (timing probes, test schedulers): the
  /// Verifier claims the store, and constructing a second Verifier on a
  /// store that a live one holds throws std::invalid_argument. Verifiers
  /// that must see each other's tasks are dist::Site instances over one
  /// dist::SliceStore (dist::Cluster in one process).
  std::shared_ptr<StateStore> store;

  /// Invoked by the detection scanner once per newly found deadlock
  /// (deduplicated by task set). Defaults to logging via util::log_error.
  std::function<void(const DeadlockReport&)> on_deadlock;

  /// Passive listener on everything this verifier sees: blocked-status
  /// publishes and withdrawals, registration changes (wired into the task
  /// registry), analyses, and reports. nullptr (the default) = none.
  /// `trace::Recorder` plugs in here to persist the run; core/ knows only
  /// this interface. The env spelling lives at the top of the stack:
  /// `obs::observer_from_env()` returns the recorder ARMUS_TRACE names
  /// (dist::Site attaches it by default).
  std::shared_ptr<EventObserver> observer;

  /// Reads ARMUS_MODE, ARMUS_GRAPH_MODEL, ARMUS_CHECK_PERIOD_MS,
  /// ARMUS_AVOIDANCE_RECHECK_MS and ARMUS_SCANNER. Non-positive periods and
  /// malformed values raise std::invalid_argument.
  static VerifierConfig from_env();
};

/// Thrown by avoidance mode when a blocking operation would deadlock. The
/// operation did not block; the program may recover (e.g. deregister from
/// the offending barrier, as the X10 examples in §2.1 do).
class DeadlockAvoidedError : public std::runtime_error {
 public:
  explicit DeadlockAvoidedError(DeadlockReport report);
  [[nodiscard]] const DeadlockReport& report() const { return report_; }

 private:
  DeadlockReport report_;
};

class Verifier {
 public:
  /// Claims `config.store`; throws std::invalid_argument when another
  /// live Verifier holds it.
  explicit Verifier(VerifierConfig config = {});
  ~Verifier();

  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  // --- Application-layer hooks (the "task observer" of §5.3) -------------

  /// Publishes `status` ahead of the task blocking. In avoidance mode, runs
  /// the check; if the task would never unblock, withdraws the status and
  /// throws DeadlockAvoidedError. Publish, check and withdrawal form one
  /// critical section per Verifier, so another task's doom check never
  /// sees a cycle this block closed and is about to withdraw. In detection
  /// mode simply records it.
  void before_block(const BlockedStatus& status);

  /// Withdraws the blocked status once the task resumes (or gives up).
  void after_unblock(TaskId task);

  /// Avoidance-mode poll for a task that is already blocked: re-publishes
  /// `status` and throws DeadlockAvoidedError (after withdrawing it) when
  /// the task has become doomed since it blocked. No-op in other modes.
  void recheck_blocked(const BlockedStatus& status);

  // --- Analysis ------------------------------------------------------------

  /// Runs one synchronous analysis of the current state (updates stats but
  /// does not fire callbacks). When the change epoch (store version +
  /// registry version) is unchanged since the previous analysis, returns
  /// the cached result without copying a snapshot or touching the graph.
  CheckResult check_now();

  /// One detection-scanner tick, run synchronously: analyse the state and
  /// report new deadlocks through on_deadlock. Returns false when the scan
  /// was skipped because the change epoch is unchanged — the O(changed)
  /// steady-state guarantee (zero snapshot copies, zero graph builds),
  /// pinned by Stats::scans_skipped / graphs_built. The scanner thread
  /// calls this every period; tests and benchmarks drive it directly.
  bool scan_now();

  /// The blocked statuses as the checker sees them: stored waits overlaid
  /// with the *current* registrations from the task registry, so that
  /// registrations performed while a task is already blocked (PL `reg`,
  /// X10 `clocked` by the parent) are never missed.
  [[nodiscard]] std::vector<BlockedStatus> current_snapshot() const;

  /// All deadlocks reported by the detection scanner so far.
  [[nodiscard]] std::vector<DeadlockReport> reported() const;

  // --- Lifecycle -------------------------------------------------------------

  /// Starts the detection scanner (no-op unless mode == kDetection; the
  /// constructor already calls this).
  void start();

  /// Stops the scanner; safe to call repeatedly.
  void stop();

  // --- Introspection -----------------------------------------------------

  [[nodiscard]] VerifyMode mode() const { return config_.mode; }
  [[nodiscard]] GraphModel model() const { return config_.model; }
  [[nodiscard]] const VerifierConfig& config() const { return config_; }

  /// The blocked-status store (local by default, possibly a wrapper — see
  /// VerifierConfig::store). All of the Verifier's own reads/writes go
  /// through this interface too.
  StateStore& state() { return *store_; }
  [[nodiscard]] const StateStore& state() const { return *store_; }
  [[nodiscard]] const std::shared_ptr<StateStore>& store() const {
    return store_;
  }

  TaskRegistry& registry() { return registry_; }
  [[nodiscard]] const TaskRegistry& registry() const { return registry_; }

  struct Stats {
    std::uint64_t checks = 0;
    std::uint64_t deadlocks_found = 0;
    std::uint64_t avoidance_interrupts = 0;
    std::uint64_t sg_builds = 0;
    std::uint64_t wfg_builds = 0;
    std::uint64_t total_edges = 0;
    std::uint64_t max_edges = 0;

    /// Scanner ticks skipped because the change epoch was unchanged (no
    /// snapshot copy, no graph work).
    std::uint64_t scans_skipped = 0;

    /// Analyses that actually materialised a graph (an unchanged-state
    /// check served from cache does not count). Steady state: 0.
    std::uint64_t graphs_built = 0;

    /// Of the graph maintenance rounds, how many applied task-level deltas
    /// vs. rebuilt from scratch (IncrementalChecker passthrough).
    std::uint64_t incremental_applies = 0;
    std::uint64_t full_rebuilds = 0;

    /// Average graph size per analysis — the paper's Table 3 "Edges" rows.
    [[nodiscard]] double mean_edges() const {
      return checks == 0 ? 0.0 : static_cast<double>(total_edges) /
                                     static_cast<double>(checks);
    }
  };

  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// Optional task display names used in reports ("task observer" metadata).
  void set_task_name(TaskId task, std::string name);
  [[nodiscard]] std::string task_name(TaskId task) const;

  /// Renders a report using registered task names.
  [[nodiscard]] std::string describe(const DeadlockReport& report) const;

 private:
  /// The change epoch a scan observed: store version + registry version,
  /// read *before* the snapshot so a concurrent mutation can only make the
  /// next scan conservative (an extra scan), never miss one.
  struct Epoch {
    std::uint64_t store_version = 0;
    std::uint64_t registry_version = 0;
  };

  void scanner_loop();
  void record_check(const CheckResult& result);

  /// Forwards one completed analysis to the config observer (no-op when
  /// none is attached). Called outside the internal locks.
  void notify_scan(std::size_t blocked, const CheckResult& result);

  /// Records the status with the observer, then publishes it to the store
  /// (withdrawing the record again if the publish throws) — the
  /// trace-ordering half of before_block/recheck_blocked.
  void publish_blocked(const BlockedStatus& status);

  [[nodiscard]] Epoch read_epoch() const;
  /// True iff the store is versioned and `epoch` matches the last committed
  /// one. Caller holds check_mutex_.
  [[nodiscard]] bool epoch_unchanged_locked(const Epoch& epoch) const;
  /// Records `epoch` after a successful analysis. Caller holds check_mutex_.
  void commit_epoch_locked(const Epoch& epoch);

  /// Avoidance mode: publishes `status`, runs the doom check and, when the
  /// task can never unblock, withdraws the status and throws
  /// DeadlockAvoidedError — all under avoid_mutex_.
  void publish_and_check_doomed(const BlockedStatus& status);

  VerifierConfig config_;
  std::shared_ptr<StateStore> store_;
  TaskRegistry registry_;

  /// Avoidance mode's critical section: held across one task's publish,
  /// doom check and withdrawal. Outermost lock: taken before check_mutex_
  /// and mutex_, never while holding either.
  std::mutex avoid_mutex_;

  /// Guards the incremental checker and the epoch bookkeeping. The two
  /// mutexes DO nest (scan_now's skip branch and check_now's cached branch
  /// take mutex_ for stats while holding check_mutex_); the mandatory
  /// order is check_mutex_ before mutex_ — never acquire check_mutex_
  /// while holding mutex_.
  mutable std::mutex check_mutex_;
  IncrementalChecker incremental_;
  Epoch last_epoch_;
  bool epoch_valid_ = false;

  mutable std::mutex mutex_;  // guards stats_, reported_, names_, fingerprints_
  Stats stats_;
  std::vector<DeadlockReport> reported_;
  std::unordered_set<std::uint64_t> fingerprints_;
  std::unordered_map<TaskId, std::string> names_;

  std::mutex scanner_mutex_;
  std::condition_variable scanner_cv_;
  bool stop_requested_ = false;
  std::thread scanner_;
};

/// Process-wide task→verifier bindings plus the default verifier, in one
/// place (this used to be three loose globals). Two layers:
///
///   * **fallback** — the verifier used by runtime objects constructed
///     without an explicit one. Starts as nullptr (verification off).
///   * **per-task bindings** — multi-site (distributed) runs have phasers
///     spanning sites, but each task must report its blocking events to its
///     *own* site's Armus instance (§5.2). The runtime binds a task at
///     spawn and unbinds at termination; dist::Cluster::bind_task routes a
///     task to its site; phasers resolve per-task bookkeeping through the
///     binding when present (unless the phaser itself is unchecked).
///
/// Bindings are sharded by task id, so binding/unbinding on task spawn and
/// exit never serialises distinct tasks.
class VerifierRegistry {
 public:
  static VerifierRegistry& instance();

  /// The process default. nullptr = verification off.
  [[nodiscard]] Verifier* fallback() const;
  void set_fallback(Verifier* verifier);

  /// Binds `task` to `verifier`; nullptr unbinds.
  void bind(TaskId task, Verifier* verifier);
  void unbind(TaskId task);

  /// The task's own binding, nullptr when unbound.
  [[nodiscard]] Verifier* bound(TaskId task) const;

 private:
  VerifierRegistry() = default;

  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<TaskId, Verifier*> map;
  };

  Shard& shard_for(TaskId task) { return shards_[task % kShards]; }
  const Shard& shard_for(TaskId task) const { return shards_[task % kShards]; }

  std::atomic<Verifier*> fallback_{nullptr};
  std::array<Shard, kShards> shards_;
};

// The call-site spelling of the registry operations; use these everywhere
// (VerifierRegistry::instance() exists for holding a reference).
Verifier* default_verifier();
void set_default_verifier(Verifier* verifier);
void bind_task_verifier(TaskId task, Verifier* verifier);
void unbind_task_verifier(TaskId task);
Verifier* task_verifier(TaskId task);  ///< nullptr when unbound

}  // namespace armus
