// Tests for the observability layer (docs/OBSERVABILITY.md): histogram
// percentile properties, the registry's deterministic JSON snapshot, the
// JSONL reporter's golden lines and dedup rules, MultiObserver fan-out,
// the env-configured observer stack feeding trace + events at once,
// Site store-outage transition events, armus-top's view building, and
// the Stats exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "core/checker.h"
#include "dist/codec.h"
#include "dist/site.h"
#include "net/kv_server.h"
#include "net/remote_store.h"
#include "obs/env.h"
#include "obs/export.h"
#include "obs/jsonl_reporter.h"
#include "obs/multi_observer.h"
#include "obs/registry.h"
#include "obs/top.h"
#include "trace/recorder.h"

namespace armus::obs {
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

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Records every callback as one description string, in order.
struct CaptureObserver final : EventObserver {
  std::vector<std::string> events;

  void on_task_registered(TaskId task, PhaserUid phaser, Phase phase) override {
    events.push_back("register t" + std::to_string(task) + " p" +
                     std::to_string(phaser) + "@" + std::to_string(phase));
  }
  void on_task_deregistered(TaskId task, PhaserUid phaser) override {
    events.push_back("deregister t" + std::to_string(task) + " p" +
                     std::to_string(phaser));
  }
  void on_blocked(const BlockedStatus& s) override {
    events.push_back("block t" + std::to_string(s.task));
  }
  void on_block_rollback(TaskId task) override {
    events.push_back("rollback t" + std::to_string(task));
  }
  void on_unblocked(TaskId task) override {
    events.push_back("unblock t" + std::to_string(task));
  }
  void on_scan(const ScanInfo& info) override {
    events.push_back("scan blocked=" + std::to_string(info.blocked));
  }
  void on_report(const DeadlockReport& report) override {
    events.push_back("report tasks=" + std::to_string(report.tasks.size()));
  }
  void on_store_outage(std::uint32_t site, bool down,
                       std::string_view op) override {
    events.push_back(std::string("outage site=") + std::to_string(site) +
                     (down ? " down " : " up ") + std::string(op));
  }
};

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, BucketLayout) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(10), 1023u);
}

TEST(HistogramTest, EmptyAndSingleSample) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);

  h.record(37);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  // One sample: every percentile is that sample (clamped to max).
  EXPECT_EQ(h.percentile(50), 37u);
  EXPECT_EQ(h.percentile(99.9), 37u);
  EXPECT_EQ(h.percentile(100), 37u);
  EXPECT_DOUBLE_EQ(h.mean(), 37.0);
}

TEST(HistogramTest, MeanIsExactAndMergesExactly) {
  // The mean comes from a running sum, not the buckets, so it is exact
  // even though the percentiles are bucketed.
  Histogram a;
  a.record(1);
  a.record(2);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);

  Histogram b;
  b.record(9);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_EQ(a.count(), 3u);
}

TEST(HistogramTest, PercentileLandsInTrueRankBucket) {
  // The documented accuracy contract: the estimate falls in the same
  // power-of-two bucket as the true rank-order statistic of a sorted
  // reference — checked over random vectors of assorted sizes.
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 25; ++trial) {
    std::size_t n = 1 + rng() % 500;
    Histogram h;
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t v = rng() % 1'000'000;
      h.record(v);
      values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {50.0, 90.0, 99.0, 100.0}) {
      auto rank = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(n)));
      if (rank == 0) rank = 1;
      std::uint64_t truth = values[rank - 1];
      EXPECT_EQ(Histogram::bucket_index(h.percentile(p)),
                Histogram::bucket_index(truth))
          << "trial " << trial << " n " << n << " p " << p << " truth "
          << truth << " estimate " << h.percentile(p);
    }
    EXPECT_EQ(h.percentile(100), values.back());  // p100 is exact
    EXPECT_EQ(h.min(), values.front());
    EXPECT_EQ(h.max(), values.back());
  }
}

// --- Registry ----------------------------------------------------------------

TEST(RegistryTest, CountersGaugesHistograms) {
  Registry registry;
  registry.counter_set("kv.requests", 3);
  registry.counter_add("kv.requests", 2);
  registry.counter_add("kv.errors", 1);
  EXPECT_EQ(registry.counter("kv.requests"), 5u);
  EXPECT_EQ(registry.counter("kv.errors"), 1u);
  EXPECT_EQ(registry.counter("absent"), 0u);

  registry.gauge_set("verifier.mean_edges", 2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("verifier.mean_edges"), 2.5);

  registry.record("publish_us", 7);
  registry.record("publish_us", 9);
  EXPECT_EQ(registry.histogram("publish_us").count(), 2u);
  EXPECT_EQ(registry.histogram("absent").count(), 0u);
}

TEST(RegistryTest, SnapshotJsonGolden) {
  // Sorted keys, no whitespace: the exact document is pinned so the
  // docs/OBSERVABILITY.md example cannot drift from the implementation.
  Registry registry;
  registry.counter_set("kv.requests", 5);
  registry.counter_set("kv.errors", 0);
  registry.gauge_set("verifier.mean_edges", 2.5);
  registry.record("publish_us", 0);
  registry.record("publish_us", 3);
  registry.record("publish_us", 200);
  EXPECT_EQ(
      registry.snapshot_json(),
      "{\"schema\":\"armus.obs.registry.v1\","
      "\"counters\":{\"kv.errors\":0,\"kv.requests\":5},"
      "\"gauges\":{\"verifier.mean_edges\":2.5},"
      "\"histograms\":{\"publish_us\":{\"count\":3,\"min\":0,\"max\":200,"
      "\"mean\":67.6667,\"p50\":3,\"p99\":200,\"p999\":200}}}");
}

TEST(RegistryTest, MergeHistogramsCopiesUnderPrefix) {
  Registry ops;
  ops.record("op.put_slice.latency_us", 12);
  ops.record("op.put_slice.latency_us", 40);

  Registry snapshot;
  snapshot.merge_histograms(ops, "kv.");
  EXPECT_EQ(snapshot.histogram("kv.op.put_slice.latency_us").count(), 2u);
  EXPECT_EQ(snapshot.histogram("op.put_slice.latency_us").count(), 0u);

  // Merge overwrites like the exporters: a second merge mirrors, never
  // accumulates.
  snapshot.merge_histograms(ops, "kv.");
  EXPECT_EQ(snapshot.histogram("kv.op.put_slice.latency_us").count(), 2u);
}

// --- JsonlReporter -----------------------------------------------------------

JsonlReporter::Options fixed_clock_options(const std::string& path) {
  JsonlReporter::Options options;
  options.path = path;
  options.clock = [] { return std::uint64_t{42}; };
  return options;
}

TEST(JsonlReporterTest, GoldenLines) {
  // One line per event, exactly as documented in docs/OBSERVABILITY.md —
  // these strings are the normative examples there.
  std::string path = testing::TempDir() + "/obs_golden.jsonl";
  {
    JsonlReporter reporter(fixed_clock_options(path));
    reporter.on_task_registered(7, 1, 0);
    reporter.on_blocked(status(7, {{1, 1}}, {{1, 1}, {2, 0}}));
    ScanInfo info;
    info.blocked = 2;
    info.nodes = 2;
    info.edges = 2;
    info.model_used = GraphModel::kWfg;
    info.reports = 1;
    reporter.on_scan(info);
    DeadlockReport report;
    report.model = GraphModel::kWfg;
    report.tasks = {7, 9};
    report.resources = {{1, 1}, {2, 1}};
    reporter.on_report(report);
    reporter.on_unblocked(7);
    reporter.on_task_deregistered(7, kAllPhasers);
    reporter.on_store_outage(3, true, "publish");
    EXPECT_EQ(reporter.lines_written(), 7u);
    EXPECT_FALSE(reporter.failed());
  }
  EXPECT_EQ(
      read_lines(path),
      (std::vector<std::string>{
          R"({"v":1,"event":"register","ts_ns":42,"task":7,"phaser":1,"phase":0})",
          R"({"v":1,"event":"block","ts_ns":42,"task":7,"waits":[[1,1]],"regs":[[1,1],[2,0]]})",
          R"({"v":1,"event":"scan","ts_ns":42,"blocked":2,"nodes":2,"edges":2,"model":"wfg","reports":1})",
          R"({"v":1,"event":"report","ts_ns":42,"model":"wfg","tasks":[7,9],"resources":[[1,1],[2,1]]})",
          R"({"v":1,"event":"unblock","ts_ns":42,"task":7})",
          R"({"v":1,"event":"deregister","ts_ns":42,"task":7,"phaser":0})",
          R"({"v":1,"event":"store_outage","ts_ns":42,"site":3,"down":true,"op":"publish"})",
      }));
}

TEST(JsonlReporterTest, DedupsRepublishesAndSpuriousUnblocks) {
  // The same rules as trace::Recorder, so the JSONL stream and the trace
  // of one run tell the same story.
  std::string path = testing::TempDir() + "/obs_dedup.jsonl";
  JsonlReporter reporter(fixed_clock_options(path));
  BlockedStatus s = status(5, {{1, 1}}, {{1, 1}});

  reporter.on_blocked(s);
  reporter.on_blocked(s);  // avoidance recheck re-publish: dropped
  EXPECT_EQ(reporter.lines_written(), 1u);

  reporter.on_unblocked(99);  // never blocked: dropped
  EXPECT_EQ(reporter.lines_written(), 1u);

  reporter.on_unblocked(5);
  EXPECT_EQ(reporter.lines_written(), 2u);
  reporter.on_blocked(s);  // re-blocking after unblock is a fresh line
  EXPECT_EQ(reporter.lines_written(), 3u);
}

TEST(JsonlReporterTest, RollbackRestoresPreviousStatus) {
  std::string path = testing::TempDir() + "/obs_rollback.jsonl";
  JsonlReporter reporter(fixed_clock_options(path));
  BlockedStatus first = status(5, {{1, 1}}, {{1, 1}});
  BlockedStatus second = status(5, {{1, 2}}, {{1, 2}});

  reporter.on_blocked(first);
  reporter.on_blocked(second);
  reporter.on_block_rollback(5);  // store rolled back to `first`
  EXPECT_EQ(reporter.lines_written(), 3u);

  // The reporter's live view is `first` again: re-publishing it dedups,
  // while a rollback with nothing pending is dropped.
  reporter.on_blocked(first);
  reporter.on_block_rollback(5);
  EXPECT_EQ(reporter.lines_written(), 3u);

  // A rollback of a first-ever block erases the task entirely.
  reporter.on_blocked(status(6, {{2, 1}}, {{2, 1}}));
  reporter.on_block_rollback(6);
  reporter.on_unblocked(6);  // not live: dropped
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[2].find("block_rollback"), std::string::npos);
}

TEST(JsonlReporterTest, UnopenablePathThrows) {
  JsonlReporter::Options options;
  options.path = testing::TempDir() + "/no/such/dir/events.jsonl";
  EXPECT_THROW(JsonlReporter reporter(std::move(options)), std::runtime_error);
}

// --- MultiObserver -----------------------------------------------------------

TEST(MultiObserverTest, FansOutEveryCallbackInOrder) {
  auto a = std::make_shared<CaptureObserver>();
  auto b = std::make_shared<CaptureObserver>();
  MultiObserver multi({a, nullptr, b});
  EXPECT_EQ(multi.targets().size(), 2u);

  multi.on_task_registered(1, 2, 0);
  multi.on_blocked(status(1, {{2, 1}}, {{2, 1}}));
  multi.on_block_rollback(1);
  multi.on_unblocked(1);
  multi.on_task_deregistered(1, 2);
  multi.on_scan(ScanInfo{});
  multi.on_report(DeadlockReport{});
  multi.on_store_outage(0, true, "scan");

  ASSERT_EQ(a->events.size(), 8u);
  EXPECT_EQ(a->events, b->events);
  EXPECT_EQ(a->events.front(), "register t1 p2@0");
  EXPECT_EQ(a->events.back(), "outage site=0 down scan");
}

TEST(MultiObserverTest, CombineCollapsesTrivialCases) {
  EXPECT_EQ(combine({}), nullptr);
  EXPECT_EQ(combine({nullptr, nullptr}), nullptr);

  auto solo = std::make_shared<CaptureObserver>();
  EXPECT_EQ(combine({nullptr, solo}), solo);  // no forwarding hop for one

  auto other = std::make_shared<CaptureObserver>();
  std::shared_ptr<EventObserver> both = combine({solo, other});
  ASSERT_NE(both, nullptr);
  EXPECT_NE(both, solo);
  auto* multi = dynamic_cast<MultiObserver*>(both.get());
  ASSERT_NE(multi, nullptr);
  EXPECT_EQ(multi->targets().size(), 2u);
}

// --- env wiring: ARMUS_TRACE + ARMUS_EVENTS feed one run ---------------------

TEST(ObserverFromEnvTest, TraceAndEventsBothReceive) {
  // recorder_from_env()/reporter_from_env() latch on first use, so this
  // is the single env-wiring test in the binary.
  std::string trace_path = testing::TempDir() + "/obs_env.trace";
  std::string events_path = testing::TempDir() + "/obs_env_%p.jsonl";
  ASSERT_EQ(setenv("ARMUS_TRACE", trace_path.c_str(), 1), 0);
  ASSERT_EQ(setenv("ARMUS_EVENTS", events_path.c_str(), 1), 0);

  std::shared_ptr<EventObserver> observer = observer_from_env();
  ASSERT_NE(observer, nullptr);
  // Both singletons resolved, and the combined observer is neither alone.
  std::shared_ptr<trace::Recorder> recorder = trace::recorder_from_env();
  std::shared_ptr<JsonlReporter> reporter = reporter_from_env();
  ASSERT_NE(recorder, nullptr);
  ASSERT_NE(reporter, nullptr);
  EXPECT_NE(observer.get(),
            static_cast<EventObserver*>(recorder.get()));
  EXPECT_NE(observer.get(),
            static_cast<EventObserver*>(reporter.get()));
  // %p expanded: the reporter's sink embeds the pid, not the literal.
  EXPECT_EQ(reporter->path().find("%p"), std::string::npos);

  // One event through the combined observer reaches both sinks; a second
  // observer_from_env() call reuses the same latched instances.
  observer->on_blocked(status(11, {{1, 1}}, {{1, 1}}));
  EXPECT_EQ(recorder->records_written(), 1u);
  EXPECT_EQ(reporter->lines_written(), 1u);

  std::shared_ptr<EventObserver> again = observer_from_env();
  ASSERT_NE(again, nullptr);
  again->on_unblocked(11);
  EXPECT_EQ(recorder->records_written(), 2u);
  EXPECT_EQ(reporter->lines_written(), 2u);

  reporter->on_scan(ScanInfo{});  // direct: reporter-only, trace untouched
  EXPECT_EQ(recorder->records_written(), 2u);

  auto lines = read_lines(reporter->path());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"event\":\"block\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"unblock\""), std::string::npos);

  unsetenv("ARMUS_TRACE");
  unsetenv("ARMUS_EVENTS");
}

// --- Site outage transitions -------------------------------------------------

TEST(SiteOutageTest, EmitsOneEventPerTransition) {
  auto capture = std::make_shared<CaptureObserver>();
  auto store = std::make_shared<dist::Store>();
  dist::Site::Config config;
  config.id = 4;
  config.observer = capture;
  dist::Site site(config, store);
  site.verifier().state().set_blocked(status(1, {{1, 1}}, {{1, 1}}));

  ASSERT_TRUE(site.publish_now());

  store->set_available(false);
  // Change the slice so the publishes reach the store rather than being
  // skipped as unchanged payloads.
  site.verifier().state().set_blocked(status(1, {{1, 2}}, {{1, 2}}));
  EXPECT_FALSE(site.publish_now());
  EXPECT_FALSE(site.publish_now());  // still the same outage: no new event
  EXPECT_FALSE(site.check_now());    // other op, same outage: no new event
  store->set_available(true);
  EXPECT_TRUE(site.publish_now());

  std::vector<std::string> outages;
  for (const std::string& event : capture->events) {
    if (event.rfind("outage", 0) == 0) outages.push_back(event);
  }
  EXPECT_EQ(outages, (std::vector<std::string>{"outage site=4 down publish",
                                               "outage site=4 up publish"}));
  EXPECT_EQ(site.stats().store_failures, 3u);
}

// --- armus-top view ----------------------------------------------------------

net::RemoteStore::Config client_config(std::uint16_t port) {
  net::RemoteStore::Config config;
  config.host = "127.0.0.1";
  config.port = port;
  config.connect_timeout = 200ms;
  return config;
}

TEST(TopViewTest, FindsCrossSiteCycleAndRenders) {
  net::KvServer server;
  server.start();
  net::RemoteStore client(client_config(server.port()));

  // The two-process demo's shape: each site publishes one half of the
  // classic two-phaser cycle; only the merged snapshot contains it.
  client.put_slice(
      1, dist::encode_statuses({status(1, {{1, 1}}, {{1, 1}, {2, 0}})}));
  client.put_slice(
      2, dist::encode_statuses({status(2, {{2, 1}}, {{2, 1}, {1, 0}})}));
  server.backing()->put_slice(9, "garbage");  // corrupt, must not blind us

  TopView view = build_top_view(client, GraphModel::kAuto);
  EXPECT_EQ(view.merged.size(), 2u);
  EXPECT_EQ(view.corrupt_slices, 1u);
  ASSERT_EQ(view.info.sites.size(), 3u);
  ASSERT_EQ(view.check.reports.size(), 1u);
  EXPECT_EQ(view.check.reports[0].tasks, (std::vector<TaskId>{1, 2}));

  std::string json = render_top_json(view);
  EXPECT_NE(json.find("\"schema\":\"armus.top.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"blocked_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"corrupt_slices\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tasks\":[1,2]"), std::string::npos);

  std::string table = render_top_table(view, "tcp://test");
  EXPECT_NE(table.find("DEADLOCK"), std::string::npos);
  EXPECT_NE(table.find("corrupt slices skipped: 1"), std::string::npos);

  // The dot dump is always the task-level WFG: both deadlocked tasks
  // appear even though the analysis may have preferred the SG.
  std::string dot = render_top_dot(view);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("t1"), std::string::npos);
  EXPECT_NE(dot.find("t2"), std::string::npos);

  server.backing()->set_available(false);
  EXPECT_THROW((void)build_top_view(client, GraphModel::kAuto),
               dist::StoreUnavailableError);
}

// --- exporters ---------------------------------------------------------------

TEST(ExportStatsTest, AllOverloadsPopulateTheRegistry) {
  Registry registry;

  Verifier::Stats vs;
  vs.checks = 4;
  vs.total_edges = 10;
  vs.max_edges = 5;
  export_stats(registry, "verifier", vs);
  EXPECT_EQ(registry.counter("verifier.checks"), 4u);
  EXPECT_EQ(registry.counter("verifier.max_edges"), 5u);
  EXPECT_DOUBLE_EQ(registry.gauge("verifier.mean_edges"), 2.5);

  dist::Site::Stats ss;
  ss.publishes = 7;
  ss.store_failures = 1;
  export_stats(registry, "site0", ss);
  EXPECT_EQ(registry.counter("site0.publishes"), 7u);
  EXPECT_EQ(registry.counter("site0.store_failures"), 1u);

  net::KvServer::Stats ks;
  ks.requests = 42;
  export_stats(registry, "kv", ks);
  EXPECT_EQ(registry.counter("kv.requests"), 42u);

  net::RemoteStore::Stats rs;
  rs.connects = 2;
  export_stats(registry, "client", rs);
  EXPECT_EQ(registry.counter("client.connects"), 2u);

  // Re-export overwrites: the registry mirrors, never accumulates.
  ks.requests = 50;
  export_stats(registry, "kv", ks);
  EXPECT_EQ(registry.counter("kv.requests"), 50u);

  std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"kv.requests\":50"), std::string::npos);
  EXPECT_NE(json.find("\"verifier.mean_edges\":2.5"), std::string::npos);
}

}  // namespace
}  // namespace armus::obs
