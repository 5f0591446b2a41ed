#include "core/verifier.h"

#include <atomic>

#include "graph/cycle.h"
#include "util/env.h"
#include "util/log.h"

namespace armus {

std::string to_string(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff: return "off";
    case VerifyMode::kDetection: return "detection";
    case VerifyMode::kAvoidance: return "avoidance";
  }
  return "?";
}

VerifyMode verify_mode_from_string(const std::string& name) {
  if (name == "off") return VerifyMode::kOff;
  if (name == "detection") return VerifyMode::kDetection;
  if (name == "avoidance") return VerifyMode::kAvoidance;
  throw std::invalid_argument("unknown verify mode: '" + name + "'");
}

namespace {

/// A scan/recheck period must be positive — zero or negative would spin the
/// scanner or divide the recheck loop by nothing; fail loudly instead.
std::chrono::milliseconds positive_period_from_env(const std::string& name,
                                                   std::int64_t fallback) {
  std::int64_t ms = util::env_int(name, fallback);
  if (ms <= 0) {
    throw std::invalid_argument(name + " must be positive, got " +
                                std::to_string(ms));
  }
  return std::chrono::milliseconds(ms);
}

}  // namespace

VerifierConfig VerifierConfig::from_env() {
  VerifierConfig config;
  if (auto mode = util::env_str("ARMUS_MODE")) {
    config.mode = verify_mode_from_string(*mode);
  }
  if (auto model = util::env_str("ARMUS_GRAPH_MODEL")) {
    config.model = graph_model_from_string(*model);
  }
  config.period =
      positive_period_from_env("ARMUS_CHECK_PERIOD_MS", config.period.count());
  config.avoidance_recheck = positive_period_from_env(
      "ARMUS_AVOIDANCE_RECHECK_MS", config.avoidance_recheck.count());
  config.scanner_enabled =
      util::env_bool("ARMUS_SCANNER", config.scanner_enabled);
  return config;
}

DeadlockAvoidedError::DeadlockAvoidedError(DeadlockReport report)
    : std::runtime_error(report.to_string()), report_(std::move(report)) {}

Verifier::Verifier(VerifierConfig config)
    : config_(std::move(config)),
      store_(config_.store ? config_.store
                           : std::make_shared<DependencyState>()),
      incremental_(config_.model) {
  if (store_->claimed_.exchange(true)) {
    throw std::invalid_argument(
        "this StateStore is held by another live Verifier; Verifiers share "
        "statuses through dist::Site slices (dist::Cluster in one process)");
  }
  if (!config_.on_deadlock) {
    config_.on_deadlock = [this](const DeadlockReport& report) {
      util::log_error(describe(report));
    };
  }
  // The registry is owned by this verifier, so one attachment covers both
  // halves of the event stream (statuses here, registrations there).
  registry_.set_observer(config_.observer.get());
  start();
}

Verifier::~Verifier() {
  stop();
  store_->claimed_.store(false);
}

void Verifier::start() {
  if (config_.mode != VerifyMode::kDetection || !config_.scanner_enabled) return;
  std::lock_guard<std::mutex> lock(scanner_mutex_);
  if (scanner_.joinable()) return;
  stop_requested_ = false;
  scanner_ = std::thread([this] { scanner_loop(); });
}

void Verifier::stop() {
  {
    std::lock_guard<std::mutex> lock(scanner_mutex_);
    stop_requested_ = true;
  }
  scanner_cv_.notify_all();
  if (scanner_.joinable()) scanner_.join();
}

void Verifier::scanner_loop() {
  std::unique_lock<std::mutex> lock(scanner_mutex_);
  // Only this thread reads or writes the outage latch, so it lives on the
  // stack: one structured store_outage event per transition (down on the
  // first failed scan, up on the first scan that succeeds again), not a
  // stderr line per failed period.
  bool store_down = false;
  for (;;) {
    if (scanner_cv_.wait_for(lock, config_.period,
                             [this] { return stop_requested_; })) {
      return;
    }
    lock.unlock();
    try {
      scan_now();
      if (store_down) {
        store_down = false;
        if (EventObserver* obs = config_.observer.get()) {
          obs->on_store_outage(0, false, "scan");
        }
      }
    } catch (const std::exception& e) {
      // A pluggable store (VerifierConfig::store) may fail transiently —
      // e.g. dist::StoreUnavailableError during an outage. The scanner
      // must outlive the outage, not terminate the process.
      if (!store_down) {
        store_down = true;
        util::log_error(std::string("scan failed: ") + e.what());
        if (EventObserver* obs = config_.observer.get()) {
          obs->on_store_outage(0, true, "scan");
        }
      }
    }
    lock.lock();
  }
}

std::vector<BlockedStatus> Verifier::current_snapshot() const {
  auto snapshot = store_->snapshot();
  for (BlockedStatus& status : snapshot) registry_.merge_into(status);
  return snapshot;
}

Verifier::Epoch Verifier::read_epoch() const {
  // The store version is read first and committed only after a successful
  // analysis, so an exception (e.g. a store outage) can never mark a state
  // as scanned that was not.
  return Epoch{store_->version(), registry_.version()};
}

bool Verifier::epoch_unchanged_locked(const Epoch& epoch) const {
  return epoch_valid_ && epoch.store_version != StateStore::kUnversioned &&
         epoch.store_version == last_epoch_.store_version &&
         epoch.registry_version == last_epoch_.registry_version;
}

void Verifier::commit_epoch_locked(const Epoch& epoch) {
  last_epoch_ = epoch;
  epoch_valid_ = epoch.store_version != StateStore::kUnversioned;
}

bool Verifier::scan_now() {
  Epoch epoch = read_epoch();
  {
    std::lock_guard<std::mutex> lock(check_mutex_);
    if (epoch_unchanged_locked(epoch)) {
      std::lock_guard<std::mutex> stats_lock(mutex_);
      ++stats_.scans_skipped;
      return false;
    }
  }
  // One store read per tick: blocked_count() would cost a second full
  // snapshot round-trip on remote-backed stores.
  auto snapshot = current_snapshot();
  CheckResult result;
  {
    std::lock_guard<std::mutex> lock(check_mutex_);
    result = incremental_.check(snapshot);
  }
  notify_scan(snapshot.size(), result);
  if (!snapshot.empty()) {
    record_check(result);
    for (const DeadlockReport& report : result.reports) {
      bool fresh = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        fresh = fingerprints_.insert(report.fingerprint()).second;
        if (fresh) {
          reported_.push_back(report);
          ++stats_.deadlocks_found;
        }
      }
      if (fresh) {
        if (EventObserver* obs = config_.observer.get()) obs->on_report(report);
        if (config_.on_deadlock) config_.on_deadlock(report);
      }
    }
  }
  // Committed only now: a throwing on_deadlock callback leaves the epoch
  // open, so the next tick re-runs the (cached) analysis and delivers the
  // reports that did not make it out — already-delivered ones stay
  // deduplicated by their fingerprints.
  std::lock_guard<std::mutex> lock(check_mutex_);
  commit_epoch_locked(epoch);
  return true;
}

void Verifier::record_check(const CheckResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.checks;
  if (result.model_used == GraphModel::kSg) {
    ++stats_.sg_builds;
  } else {
    ++stats_.wfg_builds;
  }
  stats_.total_edges += result.edges;
  stats_.max_edges = std::max<std::uint64_t>(stats_.max_edges, result.edges);
}

void Verifier::before_block(const BlockedStatus& status) {
  if (config_.mode == VerifyMode::kOff) return;
  if (config_.mode == VerifyMode::kAvoidance) {
    publish_and_check_doomed(status);
    return;
  }
  publish_blocked(status);
}

void Verifier::recheck_blocked(const BlockedStatus& status) {
  if (config_.mode != VerifyMode::kAvoidance) return;
  publish_and_check_doomed(status);
}

void Verifier::publish_blocked(const BlockedStatus& status) {
  // Observer before store: any analysis that sees this status snapshots
  // after set_blocked committed, hence after the BLOCKED record — so its
  // SCAN record lands later in the trace and a replay at that scan point
  // sees the same state the live checker saw.
  EventObserver* obs = config_.observer.get();
  if (obs) obs->on_blocked(status);
  try {
    store_->set_blocked(status);
  } catch (...) {
    // The publish failed (e.g. a store outage): checkers still see the
    // task's *previous* visible status (a store withdraws a failed
    // update), so the observer must roll the record back the same way.
    if (obs) obs->on_block_rollback(status.task);
    throw;
  }
}

void Verifier::publish_and_check_doomed(const BlockedStatus& status) {
  // One critical section from publish to withdrawal: a cycle this block
  // closes is broken by the withdrawal below before another task's doom
  // check can see it, so a task merely waiting behind that cycle is never
  // interrupted for it.
  std::lock_guard<std::mutex> avoid_lock(avoid_mutex_);
  const TaskId task = status.task;
  publish_blocked(status);
  // No epoch bookkeeping here: avoidance mode runs no scanner, and the
  // preceding set_blocked moved the epoch anyway.
  auto snapshot = current_snapshot();
  CheckResult result;
  bool doomed = false;
  {
    // The incremental checker keeps the graph (and its SCC analysis) alive
    // across doom checks: a poll over an unchanged state costs one delta
    // comparison plus one DFS, not a rebuild.
    std::lock_guard<std::mutex> lock(check_mutex_);
    result = incremental_.check(snapshot);
    doomed = task_is_doomed(incremental_.built(), snapshot, task);
  }
  record_check(result);
  notify_scan(snapshot.size(), result);

  if (!doomed) return;

  // The block would never complete: withdraw the status and interrupt the
  // operation. The report aggregates every cycle present plus this task.
  if (EventObserver* obs = config_.observer.get()) obs->on_unblocked(task);
  store_->clear_blocked(task);
  DeadlockReport merged;
  merged.model = result.model_used;
  for (const DeadlockReport& part : result.reports) {
    merged.tasks.insert(merged.tasks.end(), part.tasks.begin(), part.tasks.end());
    merged.resources.insert(merged.resources.end(), part.resources.begin(),
                            part.resources.end());
  }
  merged.tasks.push_back(task);
  std::sort(merged.tasks.begin(), merged.tasks.end());
  merged.tasks.erase(std::unique(merged.tasks.begin(), merged.tasks.end()),
                     merged.tasks.end());
  std::sort(merged.resources.begin(), merged.resources.end());
  merged.resources.erase(
      std::unique(merged.resources.begin(), merged.resources.end()),
      merged.resources.end());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.avoidance_interrupts;
  }
  if (EventObserver* obs = config_.observer.get()) obs->on_report(merged);
  throw DeadlockAvoidedError(std::move(merged));
}

void Verifier::after_unblock(TaskId task) {
  if (config_.mode == VerifyMode::kOff) return;
  // Observer first, mirroring before_block: an analysis that no longer
  // sees the status snapshotted after the withdrawal, hence after the
  // UNBLOCKED record.
  if (EventObserver* obs = config_.observer.get()) obs->on_unblocked(task);
  store_->clear_blocked(task);
}

CheckResult Verifier::check_now() {
  Epoch epoch = read_epoch();
  {
    std::lock_guard<std::mutex> lock(check_mutex_);
    if (epoch_unchanged_locked(epoch) && incremental_.has_result()) {
      CheckResult result = incremental_.last_result();
      record_check(result);
      return result;
    }
  }
  auto snapshot = current_snapshot();
  CheckResult result;
  {
    std::lock_guard<std::mutex> lock(check_mutex_);
    result = incremental_.check(snapshot);
    commit_epoch_locked(epoch);
  }
  record_check(result);
  notify_scan(snapshot.size(), result);
  return result;
}

void Verifier::notify_scan(std::size_t blocked, const CheckResult& result) {
  EventObserver* obs = config_.observer.get();
  if (obs == nullptr) return;
  obs->on_scan(scan_info(blocked, result));
}

std::vector<DeadlockReport> Verifier::reported() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reported_;
}

Verifier::Stats Verifier::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(check_mutex_);
    IncrementalChecker::Stats inc = incremental_.stats();
    out.graphs_built = inc.graphs_built;
    out.incremental_applies = inc.delta_applies;
    out.full_rebuilds = inc.full_rebuilds;
  }
  return out;
}

void Verifier::reset_stats() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = Stats{};
    reported_.clear();
    fingerprints_.clear();
  }
  std::lock_guard<std::mutex> lock(check_mutex_);
  incremental_.reset_stats();
}

void Verifier::set_task_name(TaskId task, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  names_[task] = std::move(name);
}

std::string Verifier::task_name(TaskId task) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = names_.find(task);
  if (it != names_.end()) return it->second;
  return "t" + std::to_string(task);
}

std::string Verifier::describe(const DeadlockReport& report) const {
  std::string out = "deadlock (" + armus::to_string(report.model) + "): tasks [";
  for (std::size_t i = 0; i < report.tasks.size(); ++i) {
    if (i) out += ", ";
    out += task_name(report.tasks[i]);
  }
  out += "] events [";
  for (std::size_t i = 0; i < report.resources.size(); ++i) {
    if (i) out += ", ";
    out += armus::to_string(report.resources[i]);
  }
  out += "]";
  return out;
}

VerifierRegistry& VerifierRegistry::instance() {
  // Leaked intentionally: tasks may unbind during static destruction.
  static VerifierRegistry* registry = new VerifierRegistry();
  return *registry;
}

Verifier* VerifierRegistry::fallback() const {
  return fallback_.load(std::memory_order_acquire);
}

void VerifierRegistry::set_fallback(Verifier* verifier) {
  fallback_.store(verifier, std::memory_order_release);
}

void VerifierRegistry::bind(TaskId task, Verifier* verifier) {
  Shard& shard = shard_for(task);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (verifier == nullptr) {
    shard.map.erase(task);
  } else {
    shard.map[task] = verifier;
  }
}

void VerifierRegistry::unbind(TaskId task) { bind(task, nullptr); }

Verifier* VerifierRegistry::bound(TaskId task) const {
  const Shard& shard = shard_for(task);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(task);
  return it == shard.map.end() ? nullptr : it->second;
}

Verifier* default_verifier() { return VerifierRegistry::instance().fallback(); }

void set_default_verifier(Verifier* verifier) {
  VerifierRegistry::instance().set_fallback(verifier);
}

void bind_task_verifier(TaskId task, Verifier* verifier) {
  VerifierRegistry::instance().bind(task, verifier);
}

void unbind_task_verifier(TaskId task) {
  VerifierRegistry::instance().unbind(task);
}

Verifier* task_verifier(TaskId task) {
  return VerifierRegistry::instance().bound(task);
}

}  // namespace armus
