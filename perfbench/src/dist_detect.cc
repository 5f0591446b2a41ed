// dist_detect: §5.2's periodic publish/check, end to end. Four dist::Sites,
// each with its own net::RemoteStore connection to one in-process
// net::KvServer, publish and check every 20 ms; each site also holds 64
// parked chain statuses, so the merged graph has ~256 tasks and publishes
// go out as delta frames. An open-loop generator closes a fresh 4-site
// ring cycle at each seeded due time (one edge per site, through
// Verifier::before_block); detection latency runs from the due time to
// each site's on_deadlock. A cycle is broken once all four sites report it.

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/site.h"
#include "inputs.h"
#include "probes.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using armus::BlockedStatus;
using armus::TaskId;

constexpr std::size_t kSites = 4;
constexpr std::size_t kParkedPerSite = 64;
constexpr std::chrono::milliseconds kPeriod{20};
constexpr std::uint64_t kPeriodNs = 20'000'000;
/// A cycle must be reported by every site within this many periods.
constexpr std::uint64_t kReportPeriods = 10;
/// Mean offered load: cycles closed per second.
constexpr double kCyclesPerSecond = 40;
/// The traced run fails unless the hop means add up to the mean detection
/// latency within this band (README, "Hop sum").
constexpr double kHopSumLow = 0.9;
constexpr double kHopSumHigh = 1.1;

/// Start of the check running on this thread (traced run): on_deadlock
/// fires inside check_now, so the report can name the check that found it.
thread_local std::uint64_t t_check_start = 0;

struct Cycle {
  std::array<TaskId, kSites> tasks{};  // ascending: a report lists them so
  std::array<armus::PhaserUid, kSites> phasers{};
  std::uint64_t due_ns = 0;
  std::uint64_t close_start_ns = 0;  ///< generator began closing it
  std::uint64_t close_ns = 0;        ///< all four edges published locally
  std::array<std::uint64_t, kSites> report_ns{};
  std::array<std::uint64_t, kSites> report_check_ns{};
  std::array<std::uint32_t, kSites> reports{};
  bool queued = false;
  bool broken = false;

  [[nodiscard]] bool fully_reported() const {
    return std::all_of(reports.begin(), reports.end(),
                       [](std::uint32_t r) { return r > 0; });
  }
  /// The status site `i` publishes: t_i holds p_i at phase 0 and waits for
  /// p_{i+1} to reach phase 1, which t_{i+1} holds back.
  [[nodiscard]] BlockedStatus edge(std::size_t i) const {
    BlockedStatus status;
    status.task = tasks[i];
    status.registered = {{phasers[i], 0}};
    status.waits = {{phasers[(i + 1) % kSites], 1}};
    return status;
  }
};

/// The cycles of one phase and the reports that arrive for them. Reports
/// come in on the sites' checker threads; the generator thread closes and
/// breaks cycles.
class Tracker {
 public:
  explicit Tracker(std::vector<Cycle> cycles) : cycles_(std::move(cycles)) {
    for (std::size_t i = 0; i < cycles_.size(); ++i) {
      by_task_[cycles_[i].tasks[0]] = i;
    }
  }

  void on_report(std::size_t site, const armus::DeadlockReport& report) {
    const std::uint64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = report.tasks.empty() ? by_task_.end()
                                   : by_task_.find(report.tasks.front());
    if (it == by_task_.end() ||
        !std::equal(report.tasks.begin(), report.tasks.end(),
                    cycles_[it->second].tasks.begin(),
                    cycles_[it->second].tasks.end())) {
      ++unexpected_;
      return;
    }
    Cycle& cycle = cycles_[it->second];
    if (cycle.reports[site]++ == 0) {
      cycle.report_ns[site] = now;
      cycle.report_check_ns[site] = t_check_start;
    }
    if (cycle.fully_reported() && !cycle.queued) {
      cycle.queued = true;
      to_break_.push_back(it->second);
      cv_.notify_all();
    }
  }

  /// Generator side: sleeps until `until_ns`, breaking every fully
  /// reported cycle in the meantime. Returns early when nothing is
  /// outstanding and `stop_when_idle` is set.
  void serve_until(std::uint64_t until_ns, bool stop_when_idle,
                   const std::vector<std::unique_ptr<armus::dist::Site>>& sites) {
    const auto deadline = Clock::time_point(std::chrono::nanoseconds(until_ns));
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (stop_when_idle && closed_ == broken_) return;
      if (!cv_.wait_until(lock, deadline, [&] { return !to_break_.empty(); })) {
        return;
      }
      const std::size_t index = to_break_.front();
      to_break_.pop_front();
      lock.unlock();
      for (std::size_t i = 0; i < kSites; ++i) {
        sites[i]->verifier().after_unblock(cycles_[index].tasks[i]);
      }
      lock.lock();
      cycles_[index].broken = true;
      ++broken_;
    }
  }

  /// Closes cycle `index`, due at `due_ns`: one edge per site.
  void close(std::size_t index, std::uint64_t due_ns,
             const std::vector<std::unique_ptr<armus::dist::Site>>& sites) {
    Cycle& cycle = cycles_[index];
    cycle.due_ns = due_ns;
    cycle.close_start_ns = now_ns();
    for (std::size_t i = 0; i < kSites; ++i) {
      sites[i]->verifier().before_block(cycle.edge(i));
    }
    cycle.close_ns = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    ++closed_;
  }

  /// Withdraws the edges of cycles never fully reported (end of phase).
  void break_leftovers(const std::vector<std::unique_ptr<armus::dist::Site>>& sites) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Cycle& cycle : cycles_) {
      if (cycle.broken || cycle.close_ns == 0) continue;
      for (std::size_t i = 0; i < kSites; ++i) {
        sites[i]->verifier().after_unblock(cycle.tasks[i]);
      }
      cycle.broken = true;
    }
  }

  /// Read once every thread that touches the tracker has stopped.
  [[nodiscard]] const std::vector<Cycle>& cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t unexpected() const { return unexpected_; }

 private:
  std::vector<Cycle> cycles_;
  std::unordered_map<TaskId, std::size_t> by_task_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::size_t> to_break_;
  std::size_t closed_ = 0;
  std::size_t broken_ = 0;
  std::uint64_t unexpected_ = 0;
};

/// One set-up of the program: server, a RemoteStore per site (behind a
/// probe in the traced run) and the sites with their parked statuses.
/// Destroyed in reverse: sites first, server last.
struct Deployment {
  std::unique_ptr<armus::net::KvServer> server;
  std::vector<std::shared_ptr<armus::net::RemoteStore>> clients;
  std::vector<std::shared_ptr<TimingSliceStore>> probes;
  std::vector<std::shared_ptr<TimingObserver>> observers;  // traced run only
  std::vector<std::unique_ptr<armus::dist::Site>> sites;
};

std::unique_ptr<Deployment> deploy(std::uint64_t seed,
                                   const std::shared_ptr<Tracker>& tracker,
                                   SpanLog* log) {
  auto d = std::make_unique<Deployment>();
  d->server = std::make_unique<armus::net::KvServer>();
  d->server->start();
  for (std::size_t i = 0; i < kSites; ++i) {
    armus::net::RemoteStore::Config rc;
    rc.port = d->server->port();
    d->clients.push_back(std::make_shared<armus::net::RemoteStore>(rc));
    std::shared_ptr<armus::dist::SliceStore> store = d->clients.back();
    if (log != nullptr) {
      d->probes.push_back(std::make_shared<TimingSliceStore>(store, *log));
      store = d->probes.back();
    }
    armus::dist::Site::Config sc;
    sc.id = static_cast<armus::dist::SiteId>(i);
    sc.publish_period = kPeriod;
    sc.check_period = kPeriod;
    sc.model = armus::GraphModel::kAuto;
    sc.on_deadlock = [tracker, i](const armus::DeadlockReport& report) {
      tracker->on_report(i, report);
    };
    // Never the environment's trace/event defaults: a silent observer, or
    // in the traced run one that sums the merged graphs the site checks.
    if (log != nullptr) {
      d->observers.push_back(std::make_shared<TimingObserver>(*log));
      sc.observer = d->observers.back();
    } else {
      sc.observer = std::make_shared<armus::EventObserver>();
    }
    d->sites.push_back(std::make_unique<armus::dist::Site>(std::move(sc), store));

    std::vector<TaskId> parked(kParkedPerSite);
    std::vector<armus::PhaserUid> phasers(kParkedPerSite + 1);
    for (auto& t : parked) t = armus::fresh_task_id();
    for (auto& p : phasers) p = armus::fresh_phaser_uid();
    for (const BlockedStatus& status :
         chain_statuses(derive_seed(seed, 10 + i), parked, phasers)) {
      d->sites.back()->verifier().before_block(status);
    }
  }
  for (auto& site : d->sites) site->publish_now();
  for (auto& site : d->sites) site->check_now();
  return d;
}

/// The traced run's replacement for Site::start: the same publisher and
/// checker loops (wait one period, then step), with every step timed.
class TracedLoops {
 public:
  struct Step {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t self_ns = 0;  ///< minus the store round trips inside
    bool effective = false;     ///< a publish that wrote / a check that ran
  };

  TracedLoops(Deployment& d, SpanLog& log)
      : publishes_(kSites), checks_(kSites), d_(d), log_(log) {
    for (std::size_t i = 0; i < kSites; ++i) {
      threads_.emplace_back([this, i] { loop(i, true); });
      threads_.emplace_back([this, i] { loop(i, false); });
    }
  }
  ~TracedLoops() { stop(); }
  TracedLoops(const TracedLoops&) = delete;
  TracedLoops& operator=(const TracedLoops&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Per site, in start order. Read after stop().
  std::vector<std::vector<Step>> publishes_;
  std::vector<std::vector<Step>> checks_;

 private:
  void loop(std::size_t i, bool publisher) {
    armus::dist::Site& site = *d_.sites[i];
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, kPeriod, [this] { return stop_; })) return;
      lock.unlock();
      Step step;
      step.start_ns = now_ns();
      if (publisher) {
        SpanScope span(log_, SpanName::kPublish, i);
        site.publish_now();
        const Span s = span.finish();
        step.effective = s.child_ns > 0;  // a put went out
        step.self_ns = s.self_ns();
      } else {
        t_check_start = step.start_ns;
        const std::uint64_t before = site.stats().checks;
        SpanScope span(log_, SpanName::kSiteCheck, i);
        site.check_now();
        const Span s = span.finish();
        step.effective = site.stats().checks > before;
        step.self_ns = s.self_ns();
      }
      step.end_ns = now_ns();
      (publisher ? publishes_ : checks_)[i].push_back(step);
      lock.lock();
    }
  }

  Deployment& d_;
  SpanLog& log_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

struct Measured {
  std::vector<double> setup_s;
  std::shared_ptr<Tracker> tracker;
  std::uint64_t window_start_ns = 0;
  std::uint64_t window_ns = 0;
  double cpu_s = 0;
  std::array<std::vector<armus::DeadlockReport>, kSites> reported;
  std::array<armus::dist::Site::Stats, kSites> site_stats{};
  ServerSample server_before, server_after;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<TracedLoops> loops;  // traced run only; stopped already
};

Measured measure(const Options& options, double seconds, SpanLog* log) {
  Measured m;
  // Fresh ids for every cycle, so no report is deduplicated against
  // another cycle's.
  const auto n = static_cast<std::size_t>(kCyclesPerSecond * seconds);
  m.window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::vector<std::uint64_t> due =
      arrival_schedule(derive_seed(options.seed, 2), n, m.window_ns);
  std::vector<Cycle> cycles(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (auto& t : cycles[k].tasks) t = armus::fresh_task_id();
    for (auto& p : cycles[k].phasers) p = armus::fresh_phaser_uid();
  }

  if (log != nullptr) log->set_recording(false);
  while (more_setups(m.setup_s)) {
    m.deployment.reset();
    m.tracker = std::make_shared<Tracker>(cycles);
    const std::uint64_t t0 = now_ns();
    m.deployment = deploy(options.seed, m.tracker, log);
    m.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  Deployment& d = *m.deployment;
  Tracker& tracker = *m.tracker;

  m.server_before = sample_server(*d.server);
  const double cpu0 = cpu_seconds();
  if (log != nullptr) {
    log->set_recording(true);
    m.loops = std::make_unique<TracedLoops>(d, *log);
  } else {
    for (auto& site : d.sites) site->start();
  }
  m.window_start_ns = now_ns();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t due_ns = m.window_start_ns + due[k];
    tracker.serve_until(due_ns, false, d.sites);
    tracker.close(k, due_ns, d.sites);
  }
  const std::uint64_t last_due = m.window_start_ns + (n ? due.back() : 0);
  tracker.serve_until(last_due + (kReportPeriods + 2) * kPeriodNs, true, d.sites);
  if (m.loops) {
    m.loops->stop();
  } else {
    for (auto& site : d.sites) site->stop();
  }
  if (log != nullptr) log->set_recording(false);
  m.cpu_s = cpu_seconds() - cpu0;
  m.server_after = sample_server(*d.server);
  tracker.break_leftovers(d.sites);
  for (std::size_t i = 0; i < kSites; ++i) {
    m.reported[i] = d.sites[i]->reported();
    m.site_stats[i] = d.sites[i]->stats();
  }
  return m;
}

struct Detections {
  LatencyHistogram latency;  ///< due → report, ns, per (cycle, site)
  std::uint64_t failed_cycles = 0;
  std::uint64_t last_report_ns = 0;
  double late_ms_mean = 0;
};

Detections detections(const Measured& m) {
  Detections out;
  double late = 0;
  for (const Cycle& c : m.tracker->cycles()) {
    late += static_cast<double>(c.close_start_ns - c.due_ns) / 1e6;
    bool ok = c.fully_reported();
    for (std::size_t j = 0; j < kSites; ++j) {
      if (c.reports[j] == 0) continue;
      const std::uint64_t latency = c.report_ns[j] - c.due_ns;
      out.latency.record(latency);
      out.last_report_ns = std::max(out.last_report_ns, c.report_ns[j]);
      if (latency > kReportPeriods * kPeriodNs) ok = false;
    }
    if (!ok) ++out.failed_cycles;
  }
  out.late_ms_mean = mean_of(late, static_cast<double>(m.tracker->cycles().size()));
  return out;
}

void check_reports(Outcome& out, const Measured& m) {
  const auto& cycles = m.tracker->cycles();
  out.check(m.tracker->unexpected() == 0,
            std::to_string(m.tracker->unexpected()) +
                " reports named no generated cycle");
  for (std::size_t j = 0; j < kSites; ++j) {
    std::uint64_t once = 0;
    for (const Cycle& c : cycles) once += c.reports[j] == 1 ? 1 : 0;
    out.check(once == cycles.size() && m.reported[j].size() == cycles.size(),
              "site " + std::to_string(j) + " reported " +
                  std::to_string(m.reported[j].size()) + " deadlocks for " +
                  std::to_string(cycles.size()) + " cycles (" +
                  std::to_string(once) + " exactly once)");
  }
}

/// Mean of the traced run's per-hop times, over every (cycle, site)
/// detection: the generator's lateness, close → start of the publish that
/// completes the cycle in the store, that publish, its end → start of the
/// site's reporting check, and that check up to the report.
struct Hops {
  double late_ms = 0, wait_publish_ms = 0, publish_ms = 0, wait_check_ms = 0,
         check_ms = 0, detect_ms = 0;
  std::uint64_t samples = 0;
};

Hops hops(const Measured& m) {
  Hops h;
  const auto& publishes = m.loops->publishes_;
  for (const Cycle& c : m.tracker->cycles()) {
    if (!c.fully_reported()) continue;
    // Per site, the first writing publish that started after the edge was
    // published locally; the cycle is complete in the store when the last
    // of those four ends.
    const TracedLoops::Step* completing = nullptr;
    for (std::size_t i = 0; i < kSites; ++i) {
      const auto& list = publishes[i];
      auto it = std::find_if(list.begin(), list.end(), [&](const auto& s) {
        return s.effective && s.start_ns >= c.close_ns;
      });
      if (it == list.end()) {
        completing = nullptr;
        break;
      }
      if (completing == nullptr || it->end_ns > completing->end_ns) completing = &*it;
    }
    if (completing == nullptr) continue;
    for (std::size_t j = 0; j < kSites; ++j) {
      auto ms = [](std::uint64_t from, std::uint64_t to) {
        return (static_cast<double>(to) - static_cast<double>(from)) / 1e6;
      };
      h.late_ms += ms(c.due_ns, c.close_ns);
      h.wait_publish_ms += ms(c.close_ns, completing->start_ns);
      h.publish_ms += ms(completing->start_ns, completing->end_ns);
      h.wait_check_ms += ms(completing->end_ns, c.report_check_ns[j]);
      h.check_ms += ms(c.report_check_ns[j], c.report_ns[j]);
      h.detect_ms += ms(c.due_ns, c.report_ns[j]);
      ++h.samples;
    }
  }
  if (h.samples > 0) {
    const auto n = static_cast<double>(h.samples);
    for (double* v : {&h.late_ms, &h.wait_publish_ms, &h.publish_ms,
                      &h.wait_check_ms, &h.check_ms, &h.detect_ms}) {
      *v /= n;
    }
  }
  return h;
}

}  // namespace

Outcome run_dist_detect(const Options& options) {
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  Outcome out;

  Measured run = measure(options, phase_s, nullptr);
  Detections det = detections(run);
  const LatencyHistogram& latency = det.latency;
  // Up to the last report. This is the generator's offered load, fixed by
  // the schedule; it falls only when detection falls behind it, so it is a
  // liveness figure, not a throughput the program sets.
  const double elapsed_s =
      det.last_report_ns > run.window_start_ns
          ? seconds_between(run.window_start_ns, det.last_report_ns)
          : static_cast<double>(run.window_ns) / 1e9;

  out.attempted = run.tracker->cycles().size();
  out.failed = det.failed_cycles;
  out.check(out.attempted > 0, "no cycle was generated");
  out.check(det.failed_cycles == 0,
            std::to_string(det.failed_cycles) +
                " cycles not reported by all sites within " +
                std::to_string(kReportPeriods) + " periods");
  check_reports(out, run);

  out.set("setup_s", median(run.setup_s), "s", run.setup_s.size());
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.set("ops_per_s", static_cast<double>(latency.count()) / elapsed_s, "1/s",
          latency.count(), "detections_per_s");
  out.set("op_us_p50", latency.percentile(50) / 1e3, "us", latency.count(),
          "detect_us_p50");
  out.set("op_us_p99", latency.percentile(99) / 1e3, "us", latency.count(),
          "detect_us_p99");
  out.set("error_rate", mean_of(static_cast<double>(out.failed),
                                static_cast<double>(out.attempted)),
          "ratio", out.attempted);
  out.set("bench.generator_late_ms", det.late_ms_mean, "ms", out.attempted);
  if (!options.trace) return out;

  // Traced phase: probes around every RemoteStore, and the benchmark's own
  // publisher/checker loops in place of Site::start so each step is timed.
  SpanLog log;
  Measured traced = measure(options, phase_s, &log);
  Detections traced_det = detections(traced);
  const LatencyHistogram& traced_latency = traced_det.latency;
  out.check(traced_det.failed_cycles == 0,
            "traced phase: a cycle was not reported by all sites in time");
  check_reports(out, traced);

  std::uint64_t publishes = 0, skipped = 0, deltas = 0, checks = 0,
                checks_skipped = 0, fetched = 0;
  for (const auto& s : traced.site_stats) {
    publishes += s.publishes;
    skipped += s.publishes_skipped;
    deltas += s.delta_publishes;
    checks += s.checks;
    checks_skipped += s.checks_skipped;
    fetched += s.slices_fetched;
  }
  double publish_ns = 0, encode_ns = 0, check_ns = 0, merge_ns = 0;
  std::uint64_t writing = 0, analysing = 0;
  for (std::size_t i = 0; i < kSites; ++i) {
    for (const auto& s : traced.loops->publishes_[i]) {
      if (!s.effective) continue;
      ++writing;
      publish_ns += static_cast<double>(s.end_ns - s.start_ns);
      encode_ns += static_cast<double>(s.self_ns);
    }
    for (const auto& s : traced.loops->checks_[i]) {
      if (!s.effective) continue;
      ++analysing;
      check_ns += static_cast<double>(s.end_ns - s.start_ns);
      merge_ns += static_cast<double>(s.self_ns);
    }
  }
  const double publish_us = mean_of(publish_ns, static_cast<double>(writing)) / 1e3;
  const double check_us = mean_of(check_ns, static_cast<double>(analysing)) / 1e3;
  const Hops h = hops(traced);

  out.set("dist.publish_us", publish_us, "us", writing);
  out.set("dist.publish_count", static_cast<double>(writing), "count");
  out.set("dist.publish_skip_ratio",
          mean_of(static_cast<double>(skipped), static_cast<double>(publishes + skipped)),
          "ratio");
  out.set("dist.publish_delta_ratio",
          mean_of(static_cast<double>(deltas), static_cast<double>(publishes)), "ratio");
  out.set("dist.encode_us", mean_of(encode_ns, static_cast<double>(writing)) / 1e3,
          "us", writing);
  out.set("dist.check_us", check_us, "us", analysing);
  out.set("dist.check_skip_ratio",
          mean_of(static_cast<double>(checks_skipped),
                  static_cast<double>(checks + checks_skipped)),
          "ratio");
  out.set("dist.slices_fetched_per_check",
          mean_of(static_cast<double>(fetched), static_cast<double>(checks)), "count");
  out.set("dist.merge_check_us", mean_of(merge_ns, static_cast<double>(analysing)) / 1e3,
          "us", analysing);
  out.set("dist.wait_publish_ms", h.wait_publish_ms, "ms", h.samples);
  out.set("dist.wait_check_ms", h.wait_check_ms, "ms", h.samples);
  out.set("dist.detect_ms_mean", h.detect_ms, "ms", h.samples);
  // The hops as the layers report them (mean publish and check times of
  // every publish and check, not just the ones on the detection path)
  // must add up to the measured latency; the README states the tolerance.
  const double hop_sum_ratio =
      h.detect_ms > 0 ? (h.late_ms + h.wait_publish_ms + publish_us / 1e3 +
                         h.wait_check_ms + check_us / 1e3) /
                            h.detect_ms
                      : 0.0;
  out.set("dist.hop_sum_ratio", hop_sum_ratio, "x", h.samples);
  out.check(h.samples > 0 && hop_sum_ratio >= kHopSumLow && hop_sum_ratio <= kHopSumHigh,
            "hop times add up to " + std::to_string(hop_sum_ratio) +
                " of the detection latency over " + std::to_string(h.samples) +
                " detections, outside the stated tolerance");
  double scans = 0, nodes = 0, edges = 0;
  for (const auto& o : traced.deployment->observers) {
    scans += static_cast<double>(o->scans.load());
    nodes += static_cast<double>(o->nodes.load());
    edges += static_cast<double>(o->edges.load());
  }
  out.set("core.check_nodes", mean_of(nodes, scans), "count");
  out.set("core.check_edges", mean_of(edges, scans), "count");
  report_net(out, log, traced.deployment->probes, traced.deployment->clients,
             traced.server_before, traced.server_after,
             *traced.deployment->server->backing());
  out.set("proc.cpu_s", run.cpu_s, "s");
  out.set("proc.cpu_per_op_us",
          mean_of(run.cpu_s * 1e6, static_cast<double>(latency.count())), "us");
  out.set("bench.tracing_overhead",
          latency.count() > 0 ? traced_latency.percentile(50) / latency.percentile(50)
                              : 0.0,
          "x");
  if (!options.spans_out.empty()) log.write(options.spans_out);
  return out;
}

}  // namespace perfbench
