// Ablation for the networked slice store: armus-kv round-trip costs
// (PUT_SLICE, LIST_SLICES, full publish+check rounds) against the
// in-process store, plus the dist::CachedSliceReader decode-caching win —
// repeated reads over unchanged slices are O(changed), shown by the
// decodes counter staying flat.
//
// Two modes:
//   * default              — the Google Benchmark suite below.
//   * --json-out <path>    — a deterministic run that writes
//     BENCH_net_store.json (schema armus.bench.net_store.v1): loopback
//     publish-latency percentiles through obs::Histogram plus the
//     decode-cache counter invariants tools/check_bench_json.py pins in
//     CI. Counters carry the guarantees; latencies are the trajectory.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "dist/codec.h"
#include "dist/site.h"
#include "net/kv_server.h"
#include "net/remote_store.h"
#include "obs/registry.h"
#include "util/rng.h"

namespace {

using namespace armus;

std::vector<BlockedStatus> synthetic_statuses(int count) {
  util::Xoshiro256 rng(5);
  std::vector<BlockedStatus> statuses;
  for (int i = 1; i <= count; ++i) {
    BlockedStatus s;
    s.task = static_cast<TaskId>(i);
    s.waits.push_back(Resource{1 + rng.below(8), 1 + rng.below(4)});
    for (int r = 0; r < 3; ++r) {
      s.registered.push_back({1 + rng.below(8), rng.below(4)});
    }
    statuses.push_back(std::move(s));
  }
  return statuses;
}

net::RemoteStore::Config client_config(std::uint16_t port) {
  net::RemoteStore::Config config;
  config.port = port;
  return config;
}

/// One armus-kv PUT_SLICE round trip over loopback TCP.
void BM_RemotePutSlice(benchmark::State& state) {
  net::KvServer server;
  server.start();
  net::RemoteStore client(client_config(server.port()));
  std::string payload =
      dist::encode_statuses(synthetic_statuses(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.put_slice(1, payload));
  }
  state.counters["payload_bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(BM_RemotePutSlice)->Arg(8)->Arg(64)->Arg(512);

/// LIST_SLICES of N sites over loopback TCP.
void BM_RemoteSnapshot(benchmark::State& state) {
  net::KvServer server;
  server.start();
  net::RemoteStore client(client_config(server.port()));
  std::string payload = dist::encode_statuses(synthetic_statuses(32));
  for (dist::SiteId s = 0; s < static_cast<dist::SiteId>(state.range(0)); ++s) {
    client.put_slice(s, payload);
  }
  for (auto _ : state) {
    auto snapshot = client.snapshot();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["sites"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RemoteSnapshot)->Arg(4)->Arg(16)->Arg(64);

/// A site's full publish+check round, in-process store vs armus-kv: what
/// moving the store out of the process costs per §5.2 period.
void publish_check_round(benchmark::State& state,
                         std::shared_ptr<dist::SliceStore> store, int sites) {
  std::vector<std::unique_ptr<dist::Site>> cluster;
  for (int s = 0; s < sites; ++s) {
    dist::Site::Config config;
    config.id = static_cast<dist::SiteId>(s);
    cluster.push_back(std::make_unique<dist::Site>(config, store));
    for (int t = 0; t < 8; ++t) {
      BlockedStatus status;
      status.task = static_cast<TaskId>(s * 100 + t + 1);
      status.waits.push_back(Resource{static_cast<PhaserUid>(s + 1), 1});
      status.registered.push_back({static_cast<PhaserUid>(s + 1), 1});
      cluster.back()->verifier().state().set_blocked(status);
    }
    cluster.back()->publish_now();
  }
  dist::Site& probe = *cluster[0];
  for (auto _ : state) {
    probe.publish_now();
    probe.check_now();
  }
  state.counters["sites"] = static_cast<double>(sites);
}

void BM_InProcessPublishCheckRound(benchmark::State& state) {
  publish_check_round(state, std::make_shared<dist::Store>(),
                      static_cast<int>(state.range(0)));
}
BENCHMARK(BM_InProcessPublishCheckRound)->Arg(2)->Arg(8)->Arg(32);

void BM_RemotePublishCheckRound(benchmark::State& state) {
  net::KvServer server;
  server.start();
  publish_check_round(
      state, std::make_shared<net::RemoteStore>(client_config(server.port())),
      static_cast<int>(state.range(0)));
}
BENCHMARK(BM_RemotePublishCheckRound)->Arg(2)->Arg(8)->Arg(32);

/// One read through `reader`: a change-narrowed fetch, then the merged
/// status count.
std::size_t read_count(dist::CachedSliceReader& reader,
                       const dist::SliceStore& store) {
  reader.read(store);
  return reader.merged_count();
}

/// The decode-cache win: a merged count over N sites when slices never
/// change between reads. `decodes_per_read` collapses to ~0 with the
/// version cache (every payload served from cache); it would be N without.
void BM_CachedSliceReaderCountUnchanged(benchmark::State& state) {
  auto backing = std::make_shared<dist::Store>();
  int sites = static_cast<int>(state.range(0));
  std::string payload = dist::encode_statuses(synthetic_statuses(32));
  for (dist::SiteId s = 1; s <= static_cast<dist::SiteId>(sites); ++s) {
    backing->put_slice(s, payload);
  }
  dist::CachedSliceReader reader;
  (void)read_count(reader, *backing);  // warm the cache
  std::uint64_t decodes_before = reader.decodes();
  std::uint64_t reads = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_count(reader, *backing));
    ++reads;
  }
  state.counters["sites"] = static_cast<double>(sites);
  state.counters["decodes_per_read"] =
      reads == 0 ? 0.0
                 : static_cast<double>(reader.decodes() - decodes_before) /
                       static_cast<double>(reads);
}
BENCHMARK(BM_CachedSliceReaderCountUnchanged)->Arg(4)->Arg(16)->Arg(64);

/// Worst case for the cache: every read follows a republish of one slice,
/// so each round decodes exactly the changed slice (O(changed), not O(N)).
void BM_CachedSliceReaderCountOneChanged(benchmark::State& state) {
  auto backing = std::make_shared<dist::Store>();
  int sites = static_cast<int>(state.range(0));
  std::string payload = dist::encode_statuses(synthetic_statuses(32));
  for (dist::SiteId s = 1; s <= static_cast<dist::SiteId>(sites); ++s) {
    backing->put_slice(s, payload);
  }
  dist::CachedSliceReader reader;
  (void)read_count(reader, *backing);
  std::uint64_t decodes_before = reader.decodes();
  std::uint64_t reads = 0;
  for (auto _ : state) {
    backing->put_slice(1, payload);  // bump one slice's version
    benchmark::DoNotOptimize(read_count(reader, *backing));
    ++reads;
  }
  state.counters["sites"] = static_cast<double>(sites);
  state.counters["decodes_per_read"] =
      reads == 0 ? 0.0
                 : static_cast<double>(reader.decodes() - decodes_before) /
                       static_cast<double>(reads);
}
BENCHMARK(BM_CachedSliceReaderCountOneChanged)->Arg(4)->Arg(16)->Arg(64);

// --- deterministic JSON mode (--json-out) ------------------------------------

using Clock = std::chrono::steady_clock;

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

void append_histogram(std::ostringstream& json, const obs::Histogram& hist) {
  json << "{\n"
       << "      \"count\": " << hist.count() << ",\n"
       << "      \"min_us\": " << hist.min() << ",\n"
       << "      \"mean_us\": " << hist.mean() << ",\n"
       << "      \"p50_us\": " << hist.percentile(50) << ",\n"
       << "      \"p99_us\": " << hist.percentile(99) << ",\n"
       << "      \"p999_us\": " << hist.percentile(99.9) << ",\n"
       << "      \"max_us\": " << hist.max() << "\n    }";
}

/// kRounds PUT_SLICE publishes over loopback TCP, every round a genuinely
/// changed payload (no skip, no delta — RemoteStore::put_slice directly),
/// with per-publish latency percentiles. The counters prove the run was
/// clean: the server saw every request, nothing errored, the client never
/// reconnected.
void emit_publish_latency(std::ostringstream& json) {
  constexpr int kRounds = 400;
  constexpr int kTasks = 64;

  net::KvServer server;
  server.start();
  net::RemoteStore::Config config;
  config.port = server.port();
  net::RemoteStore client(config);

  std::vector<BlockedStatus> statuses = synthetic_statuses(kTasks);
  obs::Histogram latency;
  for (int round = 0; round < kRounds; ++round) {
    // Alternate one task's wait phase so each payload differs from the last.
    statuses[0].waits[0].phase = 1 + static_cast<Phase>(round % 2);
    std::string payload = dist::encode_statuses(statuses);
    auto t0 = Clock::now();
    client.put_slice(1, payload);
    latency.record(us_between(t0, Clock::now()));
  }
  net::KvServer::Stats server_stats = server.stats();
  net::RemoteStore::Stats client_stats = client.stats();
  server.stop();

  json << "    {\n      \"name\": \"publish_latency\",\n"
       << "      \"rounds\": " << kRounds << ",\n"
       << "      \"tasks_per_slice\": " << kTasks << ",\n"
       << "      \"latency_us\": ";
  append_histogram(json, latency);
  json << ",\n      \"counters\": {\n"
       << "        \"server_requests\": " << server_stats.requests << ",\n"
       << "        \"server_errors\": " << server_stats.errors << ",\n"
       << "        \"client_connects\": " << client_stats.connects << ",\n"
       << "        \"client_failures\": " << client_stats.failures << "\n"
       << "      }\n    }";
}

/// The CachedSliceReader decode-cache invariants as exact counters: reads
/// over an unchanged store decode nothing; each read after one republish
/// decodes exactly the one changed slice.
void emit_decode_cache(std::ostringstream& json) {
  constexpr int kSites = 16;
  constexpr int kReads = 200;

  auto backing = std::make_shared<dist::Store>();
  std::string payload = dist::encode_statuses(synthetic_statuses(32));
  for (dist::SiteId s = 1; s <= kSites; ++s) backing->put_slice(s, payload);
  dist::CachedSliceReader reader;
  (void)read_count(reader, *backing);  // warm the cache: every slice decodes once

  std::uint64_t before = reader.decodes();
  for (int i = 0; i < kReads; ++i) (void)read_count(reader, *backing);
  std::uint64_t decodes_unchanged = reader.decodes() - before;

  before = reader.decodes();
  for (int i = 0; i < kReads; ++i) {
    backing->put_slice(1, payload);  // bump one slice's version
    (void)read_count(reader, *backing);
  }
  std::uint64_t decodes_one_changed = reader.decodes() - before;

  json << "    {\n      \"name\": \"decode_cache\",\n"
       << "      \"sites\": " << kSites << ",\n"
       << "      \"reads\": " << kReads << ",\n"
       << "      \"counters\": {\n"
       << "        \"decodes_unchanged\": " << decodes_unchanged << ",\n"
       << "        \"decodes_one_changed\": " << decodes_one_changed << "\n"
       << "      }\n    }";
}

int run_json_mode(int argc, char** argv) {
  std::string path =
      armus::bench::json_out_path(argc, argv, "BENCH_net_store.json");

  std::ostringstream json;
  json << "{\n  \"schema\": \"armus.bench.net_store.v1\",\n"
       << "  \"workloads\": [\n";
  emit_publish_latency(json);
  json << ",\n";
  emit_decode_cache(json);
  json << "\n  ]\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << json.str() << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out", 10) == 0) {
      return run_json_mode(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
