// kv_fleet: the armus-kv publish path under a fleet. 200 sites' slices go
// through 2 RemoteStore connections from 2 threads in a closed loop, each
// thread owning 100 sites. Payloads are real encode_statuses output for 64
// chain statuses, and two contents alternate so every put changes its
// slice. After each pass over its sites a thread issues one snapshot_since
// from its last version, so reads run beside writes. net/ (event loop,
// protocol, socket I/O) and dist::Store's shards do the work; core/ none.

#include <array>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "probes.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kFleetSites = 200;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kStatusesPerSlice = 64;

using Payloads = std::vector<std::array<std::string, 2>>;

/// One set-up: the server and one connection per load thread (behind a
/// probe in the traced run), with every site published once and one full
/// read. Destroyed in reverse: connections first, server last.
struct Fleet {
  std::unique_ptr<armus::net::KvServer> server;
  std::vector<std::shared_ptr<armus::net::RemoteStore>> clients;
  std::vector<std::shared_ptr<TimingSliceStore>> probes;
  std::vector<std::shared_ptr<armus::dist::SliceStore>> stores;  // as called
  std::uint64_t ops = 0;  ///< client operations issued so far
};

std::unique_ptr<Fleet> deploy(const Payloads& payloads, SpanLog* log) {
  auto fleet = std::make_unique<Fleet>();
  fleet->server = std::make_unique<armus::net::KvServer>();
  fleet->server->start();
  for (std::size_t c = 0; c < kConnections; ++c) {
    armus::net::RemoteStore::Config rc;
    rc.port = fleet->server->port();
    fleet->clients.push_back(std::make_shared<armus::net::RemoteStore>(rc));
    fleet->stores.push_back(fleet->clients.back());
    if (log != nullptr) {
      fleet->probes.push_back(
          std::make_shared<TimingSliceStore>(fleet->clients.back(), *log));
      fleet->stores.back() = fleet->probes.back();
    }
  }
  for (std::size_t site = 0; site < kFleetSites; ++site) {
    fleet->stores[site * kConnections / kFleetSites]->put_slice(
        static_cast<armus::dist::SiteId>(site), payloads[site][0]);
  }
  (void)fleet->stores[0]->snapshot_since(0);
  fleet->ops = kFleetSites + 1;
  return fleet;
}

struct Load {
  WindowedLatency put{0, 0, 0};
  LatencyHistogram read;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
};

/// One load thread: passes over sites [begin, end), then one read, from
/// the warm-up until the last window ends. `last[site]` tracks which
/// payload the site holds.
Load run_connection(armus::dist::SliceStore& store, const Payloads& payloads,
                    std::size_t begin, std::size_t end, std::uint64_t start,
                    std::uint64_t window_ns, std::vector<int>& last) {
  Load load;
  load.put = WindowedLatency(start, window_ns, kWindows);
  const std::uint64_t deadline = start + window_ns * kWindows;
  std::uint64_t version = 0;
  for (int pass = 1; now_ns() < deadline; ++pass) {
    const int which = pass % 2;
    for (std::size_t site = begin; site < end; ++site) {
      std::string payload = payloads[site][which];
      const std::uint64_t t0 = now_ns();
      ++load.ops;
      try {
        store.put_slice(static_cast<armus::dist::SiteId>(site), std::move(payload));
      } catch (const std::exception&) {
        ++load.errors;
        continue;
      }
      load.put.record(t0, now_ns() - t0);
      last[site] = which;
    }
    const std::uint64_t t0 = now_ns();
    ++load.ops;
    try {
      version = store.snapshot_since(version).version;
    } catch (const std::exception&) {
      ++load.errors;
      continue;
    }
    load.read.record(now_ns() - t0);
  }
  return load;
}

struct Measured {
  std::vector<double> setup_s;
  Load load;  // both threads merged
  std::vector<double> steal;  // host steal per window
  double cpu_s = 0;
  ServerSample server_before, server_after;
  std::unique_ptr<Fleet> fleet;
};

Measured measure(const Payloads& payloads, double seconds, SpanLog* log,
                 Outcome& out) {
  Measured m;
  if (log != nullptr) log->set_recording(false);
  while (more_setups(m.setup_s)) {
    m.fleet.reset();
    const std::uint64_t t0 = now_ns();
    m.fleet = deploy(payloads, log);
    m.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  Fleet& fleet = *m.fleet;
  m.server_before = sample_server(*fleet.server);
  std::vector<int> last(kFleetSites, 0);
  std::vector<Load> loads(kConnections);
  if (log != nullptr) log->set_recording(true);
  const double cpu0 = cpu_seconds();
  const std::uint64_t window_ns = window_ns_for(seconds);
  const std::uint64_t start = now_ns() + window_ns;  // the first window warms up
  m.load.put = WindowedLatency(start, window_ns, kWindows);
  StealSampler steal(start, window_ns, kWindows);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      loads[c] = run_connection(*fleet.stores[c], payloads, c * kFleetSites / kConnections,
                                (c + 1) * kFleetSites / kConnections, start,
                                window_ns, last);
    });
  }
  for (auto& t : threads) t.join();
  m.steal = steal.finish();
  m.cpu_s = cpu_seconds() - cpu0;
  if (log != nullptr) log->set_recording(false);
  m.server_after = sample_server(*fleet.server);
  for (Load& load : loads) {
    m.load.put.merge(load.put);
    m.load.read.merge(load.read);
    m.load.ops += load.ops;
    m.load.errors += load.errors;
  }
  fleet.ops += m.load.ops;

  // Correctness: a final read returns each site's last payload, and the
  // server saw exactly the requests the clients sent, with no errors or
  // drops.
  armus::dist::DeltaSnapshot final_read = fleet.stores[0]->snapshot_since(0);
  ++fleet.ops;
  std::size_t matching = 0;
  for (const armus::dist::Slice& slice : final_read.changed) {
    if (slice.site < kFleetSites &&
        slice.payload == payloads[slice.site][last[slice.site]]) {
      ++matching;
    }
  }
  out.check(final_read.live_sites.size() == kFleetSites && matching == kFleetSites,
            "final read matched " + std::to_string(matching) + " of " +
                std::to_string(kFleetSites) + " sites' last payloads");
  const armus::net::KvServer::Stats s = fleet.server->stats();
  std::uint64_t retries = 0;
  for (const auto& client : fleet.clients) retries += client->stats().stale_retries;
  out.check(s.requests == fleet.ops + retries,
            "server handled " + std::to_string(s.requests) + " requests for " +
                std::to_string(fleet.ops + retries) + " client operations");
  out.check(s.errors == 0, "server sent " + std::to_string(s.errors) + " errors");
  out.check(s.dropped_backpressure + s.dropped_idle + s.dropped_protocol == 0,
            "server dropped connections");
  out.check(fleet.server->backing()->slice_count() == kFleetSites,
            "live slices != " + std::to_string(kFleetSites));
  out.check(m.load.errors == 0,
            std::to_string(m.load.errors) + " store calls threw");
  return m;
}

}  // namespace

Outcome run_kv_fleet(const Options& options) {
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  Outcome out;
  Payloads payloads;
  for (std::size_t site = 0; site < kFleetSites; ++site) {
    payloads.push_back(fleet_payloads(options.seed,
                                      static_cast<std::uint32_t>(site),
                                      kStatusesPerSlice));
  }

  Measured run = measure(payloads, phase_s, nullptr, out);
  const WindowedSummary put = summarize_windows(run.load.put, 1, run.steal);
  const LatencyHistogram& read = run.load.read;
  out.attempted = run.load.ops;
  out.failed = run.load.errors;
  out.set("setup_s", median(run.setup_s), "s", run.setup_s.size());
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.set("ops_per_s", put.ops_per_s, "1/s", put.count, "publishes_per_s");
  out.set("op_us_p50", put.p50_us, "us", put.count, "publish_us_p50");
  out.set("op_us_p99", put.p99_us, "us", put.count, "publish_us_p99");
  out.set("net.read_us_p50", read.percentile(50) / 1e3, "us", read.count(),
          "read_us_p50");
  out.set("net.read_us_p99", read.percentile(99) / 1e3, "us", read.count(),
          "read_us_p99");
  out.set("error_rate", mean_of(static_cast<double>(out.failed),
                                static_cast<double>(out.attempted)),
          "ratio", out.attempted);
  run.fleet.reset();
  if (!options.trace) return out;

  SpanLog log;
  Measured traced = measure(payloads, phase_s, &log, out);
  const WindowedSummary traced_put = summarize_windows(traced.load.put, 1, traced.steal);
  report_net(out, log, traced.fleet->probes, traced.fleet->clients,
             traced.server_before, traced.server_after,
             *traced.fleet->server->backing());
  out.set("proc.cpu_s", run.cpu_s, "s");
  out.set("proc.cpu_per_op_us",
          mean_of(run.cpu_s * 1e6, static_cast<double>(run.load.ops)), "us");
  out.set("bench.tracing_overhead",
          put.p50_us > 0 ? traced_put.p50_us / put.p50_us : 0.0, "x");
  if (!options.spans_out.empty()) log.write(options.spans_out);
  return out;
}

}  // namespace perfbench
