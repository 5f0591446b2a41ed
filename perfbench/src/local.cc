// local_avoid / local_detect: the paper's Tables 1-2 shape. Three SPMD
// tasks (threads) advance one phaser as fast as they can, over a verifier
// whose store also holds 256 parked, acyclic chain statuses — the rest of a
// large program blocked elsewhere — so every analysis sees a ~259-task
// graph. Avoidance runs a doom check inside every blocking advance;
// detection only records statuses and scans every 100 ms.

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "inputs.h"
#include "phaser/phaser.h"
#include "probes.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using armus::BlockedStatus;
using armus::TaskId;

constexpr std::size_t kTasks = 3;
constexpr std::size_t kParked = 256;
constexpr std::chrono::milliseconds kScanPeriod{100};

enum class Checking { kAvoidance, kDetection, kOff };

/// Deadlock reports delivered by the detection scanner.
class ReportSink {
 public:
  void push(const armus::DeadlockReport& report) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reports_.push_back(report);
    }
    cv_.notify_all();
  }

  /// Waits until a report naming exactly `tasks` (sorted) arrives.
  bool wait_for(const std::vector<TaskId>& tasks,
                std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] {
      for (const auto& report : reports_) {
        if (report.tasks == tasks) return true;
      }
      return false;
    });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<armus::DeadlockReport> reports_;
};

/// One built instance of the program: the verifier with its parked
/// statuses, and the barrier the SPMD tasks step through. Members are
/// destroyed in reverse order, so the phaser goes before its verifier.
struct LocalProgram {
  std::shared_ptr<armus::DependencyState> state;
  std::shared_ptr<ReportSink> reports = std::make_shared<ReportSink>();
  std::unique_ptr<armus::Verifier> verifier;  // null when unchecked
  std::shared_ptr<armus::ph::Phaser> phaser;
  std::vector<TaskId> tasks;
};

/// Set-up: verifier, 256 parked statuses through before_block, the phaser
/// and its registrations, and a first full check.
std::unique_ptr<LocalProgram> build_program(
    Checking checking, std::uint64_t seed, SpanLog* log,
    const std::shared_ptr<TimingObserver>& observer) {
  auto program = std::make_unique<LocalProgram>();
  program->state = std::make_shared<armus::DependencyState>();
  if (checking != Checking::kOff) {
    armus::VerifierConfig config;
    config.mode = checking == Checking::kAvoidance ? armus::VerifyMode::kAvoidance
                                                   : armus::VerifyMode::kDetection;
    config.model = armus::GraphModel::kAuto;
    config.period = kScanPeriod;
    if (log != nullptr) {
      config.store = std::make_shared<TimingStateStore>(program->state, *log);
    } else {
      config.store = program->state;
    }
    config.observer = observer;
    config.on_deadlock = [sink = program->reports](const armus::DeadlockReport& r) {
      sink->push(r);
    };
    program->verifier = std::make_unique<armus::Verifier>(std::move(config));

    std::vector<TaskId> parked(kParked);
    std::vector<armus::PhaserUid> phasers(kParked + 1);
    for (auto& t : parked) t = armus::fresh_task_id();
    for (auto& p : phasers) p = armus::fresh_phaser_uid();
    for (const BlockedStatus& status :
         chain_statuses(derive_seed(seed, 1), parked, phasers)) {
      program->verifier->before_block(status);
    }
  }
  program->phaser = armus::ph::Phaser::create(program->verifier.get());
  for (std::size_t i = 0; i < kTasks; ++i) {
    program->tasks.push_back(armus::fresh_task_id());
    program->phaser->register_task(program->tasks.back(), 0);
  }
  if (program->verifier) program->verifier->check_now();
  return program;
}

struct StepResult {
  std::uint64_t phases = 0;  ///< barrier phases every task completed
  WindowedLatency latency{0, 0, 0};  ///< every advance() call
  std::vector<double> steal;         ///< host steal per window
  std::uint64_t errors = 0;          ///< advance() calls that threw
  bool consistent = true;  ///< every advance returned the next phase and
                           ///< all tasks stopped on the same phase
};

/// Runs the SPMD tasks for `seconds`. The first task past the deadline
/// fixes a common final phase two ahead of its own — no task can be more
/// than one phase ahead of another — so every task stops on it and none is
/// left waiting at the barrier.
StepResult run_steps(LocalProgram& program, double seconds, SpanLog* log) {
  const std::size_t n = program.tasks.size();
  constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t window_ns = window_ns_for(seconds);
  std::atomic<std::uint64_t> limit{kNoLimit};
  std::atomic<std::uint64_t> start{0};
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<WindowedLatency> latency(n, WindowedLatency(0, 0, 0));
  std::vector<armus::Phase> start_phase(n), end_phase(n);
  std::vector<std::uint64_t> errors(n, 0);
  std::vector<char> consistent(n, 1);

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      const TaskId task = program.tasks[i];
      armus::Phase phase = program.phaser->local_phase(task);
      start_phase[i] = phase;
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      latency[i] = WindowedLatency(start.load(), window_ns, kWindows);
      const std::uint64_t deadline = start.load() + window_ns * kWindows;
      while (phase < limit.load()) {
        const std::uint64_t t0 = now_ns();
        if (t0 >= deadline) {
          std::uint64_t expected = kNoLimit;
          limit.compare_exchange_strong(expected, phase + 2);
          if (phase >= limit.load()) break;
        }
        armus::Phase got = 0;
        try {
          if (log != nullptr) {
            SpanScope span(*log, SpanName::kAdvance, phase + 1);
            got = program.phaser->advance(task);
          } else {
            got = program.phaser->advance(task);
          }
        } catch (const std::exception&) {
          // Leave the barrier so the other tasks are not stranded.
          ++errors[i];
          program.phaser->deregister(task);
          break;
        }
        latency[i].record(t0, now_ns() - t0);
        if (got != phase + 1) consistent[i] = 0;
        phase = got;
      }
      end_phase[i] = phase;
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  start.store(now_ns() + window_ns);  // the first window warms up
  StealSampler steal(start.load(), window_ns, kWindows);
  go.store(true);
  for (auto& t : threads) t.join();

  StepResult result;
  result.phases = end_phase[0] - start_phase[0];
  result.latency = WindowedLatency(start.load(), window_ns, kWindows);
  result.steal = steal.finish();
  for (std::size_t i = 0; i < n; ++i) {
    result.errors += errors[i];
    result.consistent = result.consistent && consistent[i] != 0 &&
                        end_phase[i] == end_phase[0] &&
                        start_phase[i] == start_phase[0];
    result.latency.merge(latency[i]);
  }
  return result;
}

/// A planted two-task cycle over fresh ids: x holds a and waits for b to
/// reach phase 1, y holds b and waits for a.
std::array<BlockedStatus, 2> planted_cycle() {
  const TaskId x = armus::fresh_task_id();
  const TaskId y = armus::fresh_task_id();
  const armus::PhaserUid a = armus::fresh_phaser_uid();
  const armus::PhaserUid b = armus::fresh_phaser_uid();
  std::array<BlockedStatus, 2> cycle;
  cycle[0].task = x;
  cycle[0].waits = {{b, 1}};
  cycle[0].registered = {{a, 0}};
  cycle[1].task = y;
  cycle[1].waits = {{a, 1}};
  cycle[1].registered = {{b, 0}};
  return cycle;
}

/// Positive control for avoidance: closing a planted cycle must raise
/// DeadlockAvoidedError naming both tasks.
bool planted_cycle_avoided(armus::Verifier& verifier) {
  const auto cycle = planted_cycle();
  verifier.before_block(cycle[0]);
  bool raised = false;
  try {
    verifier.before_block(cycle[1]);
    verifier.after_unblock(cycle[1].task);
  } catch (const armus::DeadlockAvoidedError& e) {
    const auto& tasks = e.report().tasks;
    raised = std::find(tasks.begin(), tasks.end(), cycle[0].task) != tasks.end() &&
             std::find(tasks.begin(), tasks.end(), cycle[1].task) != tasks.end();
  }
  verifier.after_unblock(cycle[0].task);
  return raised;
}

/// Positive control for detection: a planted cycle must be reported within
/// three scan periods.
bool planted_cycle_detected(armus::Verifier& verifier, ReportSink& reports) {
  const auto cycle = planted_cycle();
  for (const BlockedStatus& status : cycle) verifier.before_block(status);
  const bool found =
      reports.wait_for({cycle[0].task, cycle[1].task}, 3 * kScanPeriod);
  for (const BlockedStatus& status : cycle) verifier.after_unblock(status.task);
  return found;
}

/// One measured phase: set-up repeated (more_setups; the last program is
/// kept), the timed steps, and the verifier's view of them.
struct Measured {
  std::vector<double> setup_s;
  StepResult steps;
  std::uint64_t blocking_advances = 0;
  armus::Verifier::Stats stats;
  double cpu_s = 0;
  std::unique_ptr<LocalProgram> program;
};

Measured measure(Checking checking, std::uint64_t seed, double seconds,
              SpanLog* log, const std::shared_ptr<TimingObserver>& observer) {
  Measured phase;
  // Set-up is not traced: the probes record the timed steps only.
  if (log != nullptr) log->set_recording(false);
  while (more_setups(phase.setup_s)) {
    phase.program.reset();
    const std::uint64_t t0 = now_ns();
    phase.program = build_program(checking, seed, log, observer);
    phase.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  LocalProgram& program = *phase.program;
  if (program.verifier) program.verifier->reset_stats();
  const std::uint64_t version0 = program.state->version();
  const double cpu0 = cpu_seconds();
  if (log != nullptr) log->set_recording(true);
  phase.steps = run_steps(program, seconds, log);
  if (log != nullptr) log->set_recording(false);
  phase.cpu_s = cpu_seconds() - cpu0;
  // Every blocking advance publishes one status and withdraws it: two
  // store epoch bumps.
  phase.blocking_advances = (program.state->version() - version0) / 2;
  if (program.verifier) phase.stats = program.verifier->stats();
  return phase;
}

}  // namespace

Outcome run_local(const Options& options, bool avoidance) {
  const Checking checking = avoidance ? Checking::kAvoidance : Checking::kDetection;
  // A traced run splits its time three ways: untraced (the reference for
  // tracing overhead), traced, and unchecked (the Table 1/2 baseline).
  const double phase_s = options.trace ? options.seconds / 3 : options.seconds;
  Outcome out;

  Measured run = measure(checking, options.seed, phase_s, nullptr, nullptr);
  LocalProgram& program = *run.program;
  const WindowedSummary steps =
      summarize_windows(run.steps.latency, kTasks, run.steps.steal);
  const std::uint64_t advances = run.steps.latency.total().count();

  // Correctness checks and positive controls.
  out.attempted = advances;
  out.failed = run.steps.errors;
  out.check(run.steps.errors == 0, "an advance() threw");
  out.check(run.steps.consistent,
            "advance() skipped a phase or tasks stopped on different phases");
  out.check(run.steps.phases > 0, "no barrier phase completed");
  if (avoidance) {
    out.check(run.stats.checks >= run.blocking_advances,
              "fewer doom checks (" + std::to_string(run.stats.checks) +
                  ") than blocking advances (" +
                  std::to_string(run.blocking_advances) + ")");
    out.check(run.blocking_advances > 0, "no advance blocked");
    out.check(planted_cycle_avoided(*program.verifier),
              "planted cycle did not raise DeadlockAvoidedError");
  } else {
    out.check(program.verifier->reported().empty(),
              "a deadlock was reported on a deadlock-free run");
    out.check(run.stats.checks > 0, "the scanner never analysed the state");
    out.check(planted_cycle_detected(*program.verifier, *program.reports),
              "planted cycle not reported within 3 scan periods");
  }

  out.set("setup_s", median(run.setup_s), "s", run.setup_s.size());
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.set("ops_per_s", steps.ops_per_s, "1/s", run.steps.phases, "steps_per_s");
  out.set("op_us_p50", steps.p50_us, "us", steps.count, "step_us_p50");
  out.set("op_us_p99", steps.p99_us, "us", steps.count, "step_us_p99");
  out.set("error_rate", out.attempted ? static_cast<double>(out.failed) /
                                            static_cast<double>(out.attempted)
                                      : 0.0,
          "ratio", out.attempted);
  run.program.reset();
  if (!options.trace) return out;

  // Traced phase: timing store + observer around the same program.
  SpanLog log;
  auto observer = std::make_shared<TimingObserver>(log);
  Measured traced = measure(checking, options.seed, phase_s, &log, observer);
  traced.program.reset();
  const WindowedSummary traced_steps =
      summarize_windows(traced.steps.latency, kTasks, traced.steps.steal);

  // Unchecked phase: the same program with the verifier off.
  Measured unchecked = measure(Checking::kOff, options.seed, phase_s, nullptr, nullptr);
  unchecked.program.reset();
  const WindowedSummary plain =
      summarize_windows(unchecked.steps.latency, kTasks, unchecked.steps.steal);
  out.check(unchecked.steps.errors == 0 && traced.steps.errors == 0,
            "an advance() threw in the traced or unchecked phase");

  const SpanTotals advance = log.totals(SpanName::kAdvance);
  const SpanTotals set_blocked = log.totals(SpanName::kSetBlocked);
  const SpanTotals clear_blocked = log.totals(SpanName::kClearBlocked);
  const SpanTotals snapshot = log.totals(SpanName::kSnapshot);
  const SpanTotals check = log.totals(SpanName::kCheck);
  const double scans = static_cast<double>(observer->scans.load());
  const armus::Verifier::Stats& vs = traced.stats;

  out.set("phaser.self_us", advance.self_mean_us(), "us", advance.count);
  out.set("phaser.unchecked_step_us", plain.p50_us, "us", plain.count);
  out.set("core.set_blocked_us", set_blocked.mean_us(), "us", set_blocked.count);
  out.set("core.set_blocked_count", static_cast<double>(set_blocked.count), "count");
  out.set("core.clear_blocked_us", clear_blocked.mean_us(), "us", clear_blocked.count);
  out.set("core.clear_blocked_count", static_cast<double>(clear_blocked.count), "count");
  out.set("core.registry_events",
          mean_of(static_cast<double>(observer->registry_events.load()),
                  static_cast<double>(traced.steps.latency.total().count())),
          "1/step", traced.steps.latency.total().count());
  out.set("core.snapshot_us", snapshot.mean_us(), "us", snapshot.count);
  out.set("core.snapshot_count", static_cast<double>(snapshot.count), "count");
  out.set("core.check_us", check.mean_us(), "us", check.count);
  out.set("core.check_count", static_cast<double>(check.count), "count");
  out.set("core.check_nodes", scans ? observer->nodes.load() / scans : 0.0, "count");
  out.set("core.check_edges", scans ? observer->edges.load() / scans : 0.0, "count");
  out.set("core.incremental_ratio",
          mean_of(static_cast<double>(vs.incremental_applies),
                  static_cast<double>(vs.incremental_applies + vs.full_rebuilds)),
          "ratio");
  out.set("core.scans_skipped_ratio",
          mean_of(static_cast<double>(vs.scans_skipped),
                  static_cast<double>(vs.checks + vs.scans_skipped)),
          "ratio");
  out.set("core.overhead_x", plain.p50_us > 0 ? steps.p50_us / plain.p50_us : 0.0, "x");
  out.set("proc.cpu_s", run.cpu_s, "s");
  out.set("proc.cpu_per_op_us",
          mean_of(run.cpu_s * 1e6, static_cast<double>(run.steps.phases)), "us");
  out.set("bench.tracing_overhead",
          steps.p50_us > 0 ? traced_steps.p50_us / steps.p50_us : 0.0, "x");
  if (!options.spans_out.empty()) log.write(options.spans_out);
  return out;
}

}  // namespace perfbench
