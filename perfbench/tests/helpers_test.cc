// Tests for the benchmark's own helpers: exact percentiles, span self-time
// arithmetic, the seeded inputs (deterministic schedule and chains) and the
// STATS histogram reader. Plain main; exits non-zero on the first failure.
//
// Run: python3 perfbench/run.py --self-test

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "dist/codec.h"
#include "inputs.h"
#include "probes.h"
#include "spans.h"
#include "stats.h"

namespace {

using namespace perfbench;

int checks = 0;

/// The reference the histogram is held to: the exact nearest-rank
/// percentile, the sample of rank ceil(p/100 * n). Reorders `samples`.
std::uint64_t percentile(std::vector<std::uint64_t>& samples, double p) {
  if (samples.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

#define CHECK(cond)                                                        \
  do {                                                                     \
    ++checks;                                                              \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      std::exit(1);                                                        \
    }                                                                      \
  } while (0)

void test_percentiles() {
  std::vector<std::uint64_t> empty;
  CHECK(percentile(empty, 50) == 0);

  std::vector<std::uint64_t> one{7};
  CHECK(percentile(one, 1) == 7 && percentile(one, 100) == 7);

  // 1..100 shuffled: nearest rank gives the value equal to the rank.
  std::vector<std::uint64_t> hundred;
  for (std::uint64_t v = 100; v >= 1; --v) hundred.push_back((v * 37) % 101);
  CHECK(percentile(hundred, 50) == 50);
  CHECK(percentile(hundred, 99) == 99);
  CHECK(percentile(hundred, 100) == 100);
  CHECK(percentile(hundred, 0.5) == 1);

  // Ten samples: p99 is rank ceil(9.9) = 10, the maximum.
  std::vector<std::uint64_t> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1000};
  CHECK(percentile(ten, 99) == 1000);
  CHECK(percentile(ten, 50) == 6);

  CHECK(median({}) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 2, 3}) == 2.5);
}

void test_histogram() {
  // Buckets tile the value range, each under 1% of its values wide.
  for (std::size_t i = 0; i < 128 * 30; ++i) {
    const std::uint64_t low = LatencyHistogram::bucket_low(i);
    const std::uint64_t high = LatencyHistogram::bucket_high(i);
    CHECK(LatencyHistogram::bucket_of(low) == i);
    CHECK(LatencyHistogram::bucket_of(high) == i);
    CHECK(LatencyHistogram::bucket_low(i + 1) == high + 1);
    CHECK(static_cast<double>(high - low + 1) <= 0.01 * static_cast<double>(low) ||
          low < 128);
  }

  // Percentiles land within 0.4% of the exact nearest-rank statistic.
  LatencyHistogram h;
  std::vector<std::uint64_t> exact;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = 1000 + x % 5'000'000;
    h.record(v);
    exact.push_back(v);
  }
  for (double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    const double truth = static_cast<double>(percentile(exact, p));
    CHECK(std::fabs(h.percentile(p) - truth) <= 0.004 * truth);
  }
  CHECK(h.percentile(100) == static_cast<double>(h.max()));
  CHECK(h.count() == 20000);

  LatencyHistogram small;
  for (std::uint64_t v : {5, 7, 9, 100}) small.record(v);
  CHECK(small.percentile(50) == 7 && small.percentile(100) == 100);
  CHECK(small.mean() == 30.25 && small.min() == 5);
  LatencyHistogram merged;
  merged.merge(small);
  merged.merge(small);
  CHECK(merged.count() == 8 && merged.percentile(50) == 7);

  // Windows: samples bin by start time; the median ignores one bad window.
  WindowedLatency w(1000, 100, 5);
  for (std::uint64_t win = 0; win < 5; ++win) {
    for (int i = 0; i < 10; ++i) w.record(1000 + win * 100 + i, win == 2 ? 9000 : 50);
  }
  w.record(999, 1);     // before the first window: total only
  w.record(1500, 1);    // after the last window: total only
  CHECK(w.total().count() == 52);
  WindowedSummary s = summarize_windows(w, 2);
  CHECK(s.count == 50);
  CHECK(std::fabs(s.ops_per_s - 10 / 2 / 100e-9) < 1);
  CHECK(s.p50_us == 0.05 && s.p99_us == 0.05);

  // Steal: windows the host took CPU from drop out of the medians.
  WindowedLatency stolen(1000, 100, 4);
  for (std::uint64_t win = 0; win < 4; ++win) {
    for (int i = 0; i < 10; ++i) {
      stolen.record(1000 + win * 100 + i, win == 1 || win == 2 ? 9000 : 50);
    }
  }
  const WindowedSummary quiet = summarize_windows(stolen, 1, {0, 5, 5, 0});
  CHECK(quiet.windows == 2 && quiet.p99_us == 0.05);
  CHECK(std::fabs(summarize_windows(stolen, 1).p99_us - 4.525) < 1e-9);
}

void test_self_time() {
  SpanLog log;
  log.open(SpanName::kAdvance, 0, 1);
  log.open(SpanName::kSetBlocked, 10);
  Span b = log.close(30);
  log.open(SpanName::kCheck, 40);
  log.open(SpanName::kSnapshot, 41);
  Span snap = log.close(43);
  Span c = log.close(45);
  Span a = log.close(100);
  CHECK(b.duration_ns() == 20 && b.self_ns() == 20);
  CHECK(snap.parent == c.id && c.parent == a.id && b.parent == a.id);
  CHECK(a.parent == 0 && a.key == 1);
  CHECK(c.duration_ns() == 5 && c.self_ns() == 3);
  CHECK(a.duration_ns() == 100 && a.child_ns == 25 && a.self_ns() == 75);

  SpanTotals advance = log.totals(SpanName::kAdvance);
  CHECK(advance.count == 1 && advance.total_ns == 100 && advance.self_ns == 75);
  CHECK(std::fabs(advance.self_mean_us() - 0.075) < 1e-12);

  // Nothing open: an empty span, no totals touched.
  Span none = log.close(200);
  CHECK(none.id == 0 && log.totals(SpanName::kAdvance).count == 1);

  // Children never make self time negative (clock skew between reads).
  Span skew;
  skew.start_ns = 10;
  skew.end_ns = 20;
  skew.child_ns = 15;
  CHECK(skew.self_ns() == 0);

  // Totals merge across threads; each thread nests on its own stack.
  std::thread other([&] {
    log.open(SpanName::kAdvance, 1000);
    log.close(1010);
  });
  other.join();
  CHECK(log.totals(SpanName::kAdvance).count == 2);
  CHECK(log.totals(SpanName::kAdvance).self_ns == 85);

  // Not recording: probes open nothing.
  log.set_recording(false);
  {
    SpanScope scope(log, SpanName::kPut);
    CHECK(scope.finish().id == 0);
  }
  CHECK(log.totals(SpanName::kPut).count == 0);
}

void test_schedule() {
  const std::uint64_t window = 10'000'000'000ULL;
  auto a = arrival_schedule(42, 1000, window);
  auto b = arrival_schedule(42, 1000, window);
  auto c = arrival_schedule(43, 1000, window);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a.size() == 1000);
  for (std::size_t i = 1; i < a.size(); ++i) CHECK(a[i] >= a[i - 1]);
  CHECK(a.back() < window);
  // Gaps are exponential: mean window/(n+1), and about 63% are shorter
  // than the mean (1 - 1/e) — far from a uniform grid's 0% or 100%.
  const double mean_gap = static_cast<double>(window) / 1001.0;
  std::size_t shorter = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (static_cast<double>(a[i] - a[i - 1]) < mean_gap) ++shorter;
  }
  CHECK(shorter > 550 && shorter < 710);
  CHECK(arrival_schedule(1, 0, window).empty());
}

void test_chains() {
  std::vector<armus::TaskId> tasks{11, 12, 13, 14, 15, 16, 17, 18};
  std::vector<armus::PhaserUid> phasers{21, 22, 23, 24, 25, 26, 27, 28, 29};
  auto a = chain_statuses(5, tasks, phasers);
  CHECK(a == chain_statuses(5, tasks, phasers));
  CHECK(a != chain_statuses(6, tasks, phasers));
  CHECK(a.size() == tasks.size());
  for (std::size_t i = 1; i < a.size(); ++i) CHECK(a[i - 1].task < a[i].task);
  // A chain: acyclic, so no model reports a deadlock...
  for (auto model : {armus::GraphModel::kWfg, armus::GraphModel::kSg,
                     armus::GraphModel::kAuto}) {
    CHECK(armus::check_deadlocks(a, model).reports.empty());
  }
  // ...and pointing the tail's wait at the head's phaser closes a cycle.
  auto waited_on = [&](armus::PhaserUid p) {
    for (const auto& s : a) {
      if (s.waits[0].phaser == p) return true;
    }
    return false;
  };
  armus::RegEntry head{};
  for (const auto& s : a) {
    if (!waited_on(s.registered[0].phaser)) head = s.registered[0];
  }
  std::vector<armus::BlockedStatus> closed = a;
  for (auto& s : closed) {
    if (s.waits[0].phaser == phasers.back()) {
      s.waits[0] = {head.phaser, head.local_phase + 1};
    }
  }
  CHECK(!armus::check_deadlocks(closed, armus::GraphModel::kWfg).reports.empty());

  auto p = fleet_payloads(7, 3, 64);
  CHECK(p == fleet_payloads(7, 3, 64));
  CHECK(p != fleet_payloads(7, 4, 64));
  CHECK(p[0] != p[1]);
  CHECK(armus::dist::decode_statuses(p[0]).size() == 64);
  CHECK(armus::dist::decode_statuses(p[1]).size() == 64);
}

void test_stats_reader() {
  const std::string json =
      "{\"schema\":\"armus.obs.registry.v1\",\"counters\":{\"kv.requests\":9},"
      "\"gauges\":{},\"histograms\":{\"kv.op.put_slice.latency_us\":{\"count\":"
      "4,\"min\":1,\"max\":9,\"mean\":3.25,\"p50\":3,\"p99\":9,\"p999\":9}}}";
  auto [count, mean] = histogram_count_mean(json, "kv.op.put_slice.latency_us");
  CHECK(count == 4 && mean == 3.25);
  auto [none, zero] = histogram_count_mean(json, "kv.op.get_slice.latency_us");
  CHECK(none == 0 && zero == 0);
}

}  // namespace

int main() {
  test_percentiles();
  test_histogram();
  test_self_time();
  test_schedule();
  test_chains();
  test_stats_reader();
  std::printf("perfbench_selftest: %d checks passed\n", checks);
  return 0;
}
