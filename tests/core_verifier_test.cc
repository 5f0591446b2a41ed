// Tests for the Verifier facade: detection scanning, avoidance interrupts,
// report deduplication, statistics and env-based configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "core/dependency_state.h"
#include "core/verifier.h"

namespace armus {
namespace {

using namespace std::chrono_literals;

BlockedStatus status(TaskId task, std::vector<Resource> waits,
                     std::vector<RegEntry> registered) {
  BlockedStatus s;
  s.task = task;
  s.waits = std::move(waits);
  s.registered = std::move(registered);
  return s;
}

/// A 2-task cycle: t1 waits (p1,1) impeded by t2; t2 waits (p2,1) impeded
/// by t1.
void plant_cycle(Verifier& v) {
  v.state().set_blocked(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
  v.state().set_blocked(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
}

TEST(VerifierDetectionTest, ScannerReportsPlantedCycle) {
  std::mutex m;
  std::condition_variable cv;
  std::vector<DeadlockReport> got;

  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.period = 5ms;
  config.on_deadlock = [&](const DeadlockReport& r) {
    std::lock_guard<std::mutex> lock(m);
    got.push_back(r);
    cv.notify_all();
  };
  Verifier verifier(config);
  plant_cycle(verifier);

  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 2s, [&] { return !got.empty(); }));
  EXPECT_EQ(got[0].tasks, (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(verifier.reported().size(), got.size());
}

TEST(VerifierDetectionTest, SameDeadlockReportedOnce) {
  std::atomic<int> reports{0};
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.period = 2ms;
  config.on_deadlock = [&](const DeadlockReport&) { ++reports; };
  Verifier verifier(config);
  plant_cycle(verifier);
  std::this_thread::sleep_for(100ms);  // dozens of scan periods
  EXPECT_EQ(reports.load(), 1);
  EXPECT_EQ(verifier.stats().deadlocks_found, 1u);
}

TEST(VerifierDetectionTest, NoFalsePositiveOnAcyclicState) {
  std::atomic<int> reports{0};
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.period = 2ms;
  config.on_deadlock = [&](const DeadlockReport&) { ++reports; };
  Verifier verifier(config);
  verifier.state().set_blocked(status(1, {{1, 1}}, {{1, 1}}));
  verifier.state().set_blocked(status(2, {{1, 1}}, {{1, 1}}));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(reports.load(), 0);
}

TEST(VerifierDetectionTest, UnblockClearsState) {
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.period = 1000ms;  // scanner effectively idle
  Verifier verifier(config);
  verifier.before_block(status(7, {{1, 1}}, {}));
  EXPECT_EQ(verifier.state().blocked_count(), 1u);
  verifier.after_unblock(7);
  EXPECT_EQ(verifier.state().blocked_count(), 0u);
}

TEST(VerifierAvoidanceTest, ThrowsWhenBlockWouldCloseCycle) {
  VerifierConfig config;
  config.mode = VerifyMode::kAvoidance;
  Verifier verifier(config);

  // First blocker: no cycle yet, passes.
  EXPECT_NO_THROW(verifier.before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}})));
  // Second blocker closes the cycle: interrupted.
  try {
    verifier.before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
    FAIL() << "expected DeadlockAvoidedError";
  } catch (const DeadlockAvoidedError& e) {
    EXPECT_EQ(e.report().tasks, (std::vector<TaskId>{1, 2}));
  }
  // The interrupted task's status must have been withdrawn.
  EXPECT_EQ(verifier.state().blocked_count(), 1u);
  EXPECT_EQ(verifier.stats().avoidance_interrupts, 1u);
}

TEST(VerifierAvoidanceTest, SelfDeadlockInterruptedImmediately) {
  VerifierConfig config;
  config.mode = VerifyMode::kAvoidance;
  Verifier verifier(config);
  // Waiting two phases ahead of its own signal: a length-1 cycle.
  EXPECT_THROW(verifier.before_block(status(3, {{1, 2}}, {{1, 0}})),
               DeadlockAvoidedError);
  EXPECT_EQ(verifier.state().blocked_count(), 0u);
}

TEST(VerifierAvoidanceTest, IndependentBlockersPass) {
  VerifierConfig config;
  config.mode = VerifyMode::kAvoidance;
  Verifier verifier(config);
  EXPECT_NO_THROW(verifier.before_block(status(1, {{1, 1}}, {{1, 1}})));
  EXPECT_NO_THROW(verifier.before_block(status(2, {{1, 1}}, {{1, 1}})));
  EXPECT_EQ(verifier.state().blocked_count(), 2u);
}

/// A DependencyState wrapper that pauses `pause_task`'s set_blocked after
/// the publish, until release() or `max_pause`: it holds open the window
/// between a block's publish and its doom check.
class PausingStore final : public StateStore {
 public:
  PausingStore(TaskId pause_task, std::chrono::milliseconds max_pause)
      : pause_task_(pause_task), max_pause_(max_pause) {}

  void set_blocked(BlockedStatus status) override {
    TaskId task = status.task;
    inner_.set_blocked(std::move(status));
    if (task != pause_task_) return;
    std::unique_lock<std::mutex> lock(mutex_);
    paused_ = true;
    cv_.notify_all();
    cv_.wait_for(lock, max_pause_, [this] { return released_; });
  }
  void clear_blocked(TaskId task) override { inner_.clear_blocked(task); }
  [[nodiscard]] std::vector<BlockedStatus> snapshot() const override {
    return inner_.snapshot();
  }
  [[nodiscard]] std::size_t blocked_count() const override {
    return inner_.blocked_count();
  }
  void clear() override { inner_.clear(); }
  [[nodiscard]] std::uint64_t version() const override {
    return inner_.version();
  }

  void wait_paused() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return paused_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  DependencyState inner_;
  TaskId pause_task_;
  std::chrono::milliseconds max_pause_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool released_ = false;
};

TEST(VerifierAvoidanceTest, OnlyATaskOnTheClosedCycleIsInterrupted) {
  // t2's block closes the cycle t1 <-> t2, and the store pauses t2 between
  // its publish and its doom check. In that window t3 blocks: it waits
  // behind the cycle (impeded by t2) but is not on it. t2's withdrawal
  // breaks the cycle, so t3 must not be interrupted. The pause ends when
  // t3's block returns or after 250 ms: a t3 check inside the window is
  // the bug; a t3 that waits for t2's critical section is the fix.
  auto store = std::make_shared<PausingStore>(2, 250ms);
  VerifierConfig config;
  config.mode = VerifyMode::kAvoidance;
  config.store = store;
  Verifier verifier(config);

  verifier.before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
  std::atomic<bool> t2_interrupted{false};
  std::thread t2([&] {
    try {
      verifier.before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
    } catch (const DeadlockAvoidedError&) {
      t2_interrupted = true;
    }
  });
  store->wait_paused();
  std::atomic<bool> t3_interrupted{false};
  std::thread t3([&] {
    try {
      verifier.before_block(status(3, {{1, 1}}, {{1, 1}}));
    } catch (const DeadlockAvoidedError&) {
      t3_interrupted = true;
    }
    store->release();
  });
  t3.join();
  t2.join();

  EXPECT_TRUE(t2_interrupted);
  EXPECT_FALSE(t3_interrupted);
  EXPECT_EQ(verifier.stats().avoidance_interrupts, 1u);
  EXPECT_EQ(verifier.state().blocked_count(), 2u);  // t1 and t3
}

TEST(VerifierOffTest, HooksAreNoOps) {
  VerifierConfig config;
  config.mode = VerifyMode::kOff;
  Verifier verifier(config);
  verifier.before_block(status(1, {{1, 1}}, {{1, 0}}));
  EXPECT_EQ(verifier.state().blocked_count(), 0u);
}

TEST(VerifierStatsTest, CountsChecksAndModels) {
  VerifierConfig config;
  config.mode = VerifyMode::kAvoidance;
  config.model = GraphModel::kSg;
  Verifier verifier(config);
  verifier.before_block(status(1, {{1, 1}}, {{1, 1}}));
  verifier.before_block(status(2, {{1, 1}}, {{1, 1}}));
  auto stats = verifier.stats();
  EXPECT_EQ(stats.checks, 2u);
  EXPECT_EQ(stats.sg_builds, 2u);
  EXPECT_EQ(stats.wfg_builds, 0u);
  verifier.reset_stats();
  EXPECT_EQ(verifier.stats().checks, 0u);
}

TEST(VerifierStatsTest, MeanEdgesTracksGraphSizes) {
  Verifier::Stats stats;
  stats.checks = 4;
  stats.total_edges = 10;
  EXPECT_DOUBLE_EQ(stats.mean_edges(), 2.5);
  EXPECT_DOUBLE_EQ(Verifier::Stats{}.mean_edges(), 0.0);
}

TEST(VerifierNamesTest, DescribeUsesRegisteredNames) {
  VerifierConfig config;
  config.mode = VerifyMode::kOff;
  Verifier verifier(config);
  verifier.set_task_name(1, "worker-1");
  DeadlockReport report;
  report.tasks = {1, 2};
  report.resources = {{3, 1}};
  std::string text = verifier.describe(report);
  EXPECT_NE(text.find("worker-1"), std::string::npos);
  EXPECT_NE(text.find("t2"), std::string::npos);
  EXPECT_NE(text.find("p3@1"), std::string::npos);
}

TEST(VerifierRegistryTest, SnapshotMergesLiveRegistrations) {
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.period = 1000ms;
  Verifier verifier(config);
  verifier.before_block(status(1, {{1, 1}}, {}));
  // Registration arrives *after* the task blocked (e.g. a parent's reg).
  verifier.registry().set_entry(1, 2, 0);
  auto snapshot = verifier.current_snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].registered.size(), 1u);
  EXPECT_EQ(snapshot[0].registered[0].phaser, 2u);
}

TEST(VerifierRegistryTest, RegistryValueWinsOverStoredStatus) {
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.period = 1000ms;
  Verifier verifier(config);
  verifier.before_block(status(1, {{1, 5}}, {{2, 0}}));
  verifier.registry().set_entry(1, 2, 3);  // fresher phase
  auto snapshot = verifier.current_snapshot();
  ASSERT_EQ(snapshot[0].registered.size(), 1u);
  EXPECT_EQ(snapshot[0].registered[0].local_phase, 3u);
}

TEST(VerifierConfigTest, FromEnvParsesSettings) {
  ::setenv("ARMUS_MODE", "avoidance", 1);
  ::setenv("ARMUS_GRAPH_MODEL", "wfg", 1);
  ::setenv("ARMUS_CHECK_PERIOD_MS", "250", 1);
  VerifierConfig config = VerifierConfig::from_env();
  EXPECT_EQ(config.mode, VerifyMode::kAvoidance);
  EXPECT_EQ(config.model, GraphModel::kWfg);
  EXPECT_EQ(config.period.count(), 250);
  ::unsetenv("ARMUS_MODE");
  ::unsetenv("ARMUS_GRAPH_MODEL");
  ::unsetenv("ARMUS_CHECK_PERIOD_MS");
}

TEST(VerifierConfigTest, FromEnvRejectsNonPositivePeriods) {
  ::setenv("ARMUS_CHECK_PERIOD_MS", "0", 1);
  EXPECT_THROW(VerifierConfig::from_env(), std::invalid_argument);
  ::setenv("ARMUS_CHECK_PERIOD_MS", "-5", 1);
  EXPECT_THROW(VerifierConfig::from_env(), std::invalid_argument);
  ::unsetenv("ARMUS_CHECK_PERIOD_MS");

  ::setenv("ARMUS_AVOIDANCE_RECHECK_MS", "0", 1);
  EXPECT_THROW(VerifierConfig::from_env(), std::invalid_argument);
  ::unsetenv("ARMUS_AVOIDANCE_RECHECK_MS");
}

TEST(VerifierConfigTest, FromEnvHonoursScannerToggle) {
  ::unsetenv("ARMUS_SCANNER");  // shield against the ambient shell
  EXPECT_TRUE(VerifierConfig::from_env().scanner_enabled);  // default on
  ::setenv("ARMUS_SCANNER", "off", 1);
  EXPECT_FALSE(VerifierConfig::from_env().scanner_enabled);
  ::setenv("ARMUS_SCANNER", "1", 1);
  EXPECT_TRUE(VerifierConfig::from_env().scanner_enabled);
  ::setenv("ARMUS_SCANNER", "maybe", 1);
  EXPECT_THROW(VerifierConfig::from_env(), std::invalid_argument);
  ::unsetenv("ARMUS_SCANNER");
}

TEST(VerifierRegistryApiTest, AliasesAndRegistryAgree) {
  VerifierConfig config;
  config.mode = VerifyMode::kOff;
  Verifier site_a(config), site_b(config);
  auto& registry = VerifierRegistry::instance();

  set_default_verifier(&site_a);
  EXPECT_EQ(registry.fallback(), &site_a);
  EXPECT_EQ(default_verifier(), &site_a);

  bind_task_verifier(41, &site_b);
  EXPECT_EQ(registry.bound(41), &site_b);
  EXPECT_EQ(task_verifier(41), &site_b);
  registry.unbind(41);
  EXPECT_EQ(task_verifier(41), nullptr);
  set_default_verifier(nullptr);
}

TEST(VerifierConfigTest, ModeNamesRoundTrip) {
  for (VerifyMode m :
       {VerifyMode::kOff, VerifyMode::kDetection, VerifyMode::kAvoidance}) {
    EXPECT_EQ(verify_mode_from_string(to_string(m)), m);
  }
  EXPECT_THROW(verify_mode_from_string("nope"), std::invalid_argument);
}

TEST(DefaultVerifierTest, SetAndGet) {
  EXPECT_EQ(default_verifier(), nullptr);
  VerifierConfig config;
  config.mode = VerifyMode::kOff;
  Verifier v(config);
  set_default_verifier(&v);
  EXPECT_EQ(default_verifier(), &v);
  set_default_verifier(nullptr);
}

TEST(ReportTest, FingerprintStableAndDistinct) {
  DeadlockReport a, b, c;
  a.tasks = {1, 2, 3};
  b.tasks = {1, 2, 3};
  c.tasks = {1, 2, 4};
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_NE(a.to_string().find("t1"), std::string::npos);
}

}  // namespace
}  // namespace armus
