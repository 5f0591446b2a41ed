#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/blocked_status.h"

/// The pluggable blocked-status store of the verification library (§5.1).
///
/// The paper's architecture separates *maintaining* the blocked statuses
/// (frequent, per-task) from *checking* them (periodic, whole-snapshot).
/// This interface is the seam between the two: a Verifier performs every
/// state read/write through it. The library's implementation is the
/// process-local DependencyState (sharded, lock-striped); wrappers around
/// it (timing probes, test schedulers) plug in through VerifierConfig::store.
///
/// One Verifier holds a store at a time: the Verifier constructor claims
/// it and throws std::invalid_argument if another live Verifier already
/// holds it. Statuses are shared between Verifiers only as dist::Site
/// slices, which carry each task's registrations (§5.2).
namespace armus {

class StateStore {
 public:
  StateStore() = default;
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;
  virtual ~StateStore() = default;

  /// Publishes (or replaces) the blocked status of `status.task`. A task has
  /// at most one live status; re-publishing overwrites.
  virtual void set_blocked(BlockedStatus status) = 0;

  /// Removes the blocked status of `task` (no-op if absent).
  virtual void clear_blocked(TaskId task) = 0;

  /// Copies all current blocked statuses, sorted by task id so downstream
  /// graph construction (and tests) are deterministic.
  [[nodiscard]] virtual std::vector<BlockedStatus> snapshot() const = 0;

  /// Number of currently blocked tasks.
  [[nodiscard]] virtual std::size_t blocked_count() const = 0;

  /// Removes every status this store is responsible for (used between test
  /// cases / site restarts).
  virtual void clear() = 0;

  /// Monotonic change epoch: advances whenever the store's visible contents
  /// change (a successful set_blocked that alters a status, a clear_blocked
  /// that removes one, a clear of a non-empty store). Two equal non-zero
  /// epochs mean "nothing changed in between", which is what lets a
  /// periodic checker skip the snapshot + graph build entirely at steady
  /// state.
  ///
  /// Returns kUnversioned (0) when the implementation cannot provide the
  /// guarantee; callers must then treat every read as potentially changed.
  /// Versioned implementations never return 0.
  [[nodiscard]] virtual std::uint64_t version() const { return kUnversioned; }

  /// The version() sentinel of stores that cannot track change epochs.
  static constexpr std::uint64_t kUnversioned = 0;

 private:
  friend class Verifier;
  /// Set while a Verifier holds this store (see the namespace comment).
  std::atomic<bool> claimed_{false};
};

}  // namespace armus
