#include "probes.h"

#include <cstdlib>

#include "stats.h"

namespace perfbench {

void TimingStateStore::set_blocked(armus::BlockedStatus status) {
  SpanScope span(log_, SpanName::kSetBlocked, status.task);
  inner_->set_blocked(std::move(status));
}

void TimingStateStore::clear_blocked(armus::TaskId task) {
  SpanScope span(log_, SpanName::kClearBlocked, task);
  inner_->clear_blocked(task);
}

std::vector<armus::BlockedStatus> TimingStateStore::snapshot() const {
  if (!log_.recording()) return inner_->snapshot();
  const std::uint64_t start = now_ns();
  // A previous snapshot whose analysis never reached on_scan (an
  // exception in between) must not swallow this one.
  if (log_.innermost_is(SpanName::kCheck)) log_.close(start);
  log_.open(SpanName::kCheck, start);
  SpanScope span(log_, SpanName::kSnapshot);
  return inner_->snapshot();
}

void TimingObserver::on_scan(const armus::ScanInfo& info) {
  if (log_.innermost_is(SpanName::kCheck)) log_.close(now_ns());
  if (!log_.recording()) return;
  scans.fetch_add(1, std::memory_order_relaxed);
  nodes.fetch_add(info.nodes, std::memory_order_relaxed);
  edges.fetch_add(info.edges, std::memory_order_relaxed);
}

std::uint64_t TimingSliceStore::put_slice(armus::dist::SiteId site,
                                          std::string payload) {
  const std::size_t bytes = payload.size();
  SpanScope span(log_, SpanName::kPut, site);
  const std::uint64_t version = inner_->put_slice(site, std::move(payload));
  count_put(bytes);
  return version;
}

std::uint64_t TimingSliceStore::put_slice_delta(armus::dist::SiteId site,
                                                std::uint64_t base_version,
                                                const std::string& delta) {
  SpanScope span(log_, SpanName::kPut, site);
  const std::uint64_t version =
      inner_->put_slice_delta(site, base_version, delta);
  count_put(delta.size());
  return version;
}

std::vector<armus::dist::Slice> TimingSliceStore::snapshot() const {
  SpanScope span(log_, SpanName::kRead);
  std::vector<armus::dist::Slice> slices = inner_->snapshot();
  count_read(slices);
  return slices;
}

armus::dist::DeltaSnapshot TimingSliceStore::snapshot_since(
    std::uint64_t since) const {
  SpanScope span(log_, SpanName::kRead);
  armus::dist::DeltaSnapshot delta = inner_->snapshot_since(since);
  count_read(delta.changed);
  return delta;
}

void TimingSliceStore::count_put(std::uint64_t bytes) const {
  if (!log_.recording()) return;
  puts.fetch_add(1, std::memory_order_relaxed);
  put_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void TimingSliceStore::count_read(
    const std::vector<armus::dist::Slice>& slices) const {
  if (!log_.recording()) return;
  std::uint64_t bytes = 0;
  for (const armus::dist::Slice& slice : slices) bytes += slice.payload.size();
  reads.fetch_add(1, std::memory_order_relaxed);
  read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  read_slices.fetch_add(slices.size(), std::memory_order_relaxed);
}

std::pair<double, double> histogram_count_mean(const std::string& json,
                                               const std::string& name) {
  const std::size_t at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) return {0, 0};
  auto field = [&](const char* key) {
    const std::size_t pos = json.find(key, at);
    return pos == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + pos + std::string(key).size(), nullptr);
  };
  return {field("\"count\":"), field("\"mean\":")};
}

ServerSample sample_server(const armus::net::KvServer& server) {
  ServerSample sample;
  sample.stats = server.stats();
  const std::string json = server.stats_json();
  for (const char* op : {"kv.op.put_slice.latency_us",
                         "kv.op.put_slice_delta.latency_us"}) {
    auto [count, mean] = histogram_count_mean(json, op);
    sample.put_count += count;
    sample.put_sum_us += count * mean;
  }
  auto [count, mean] =
      histogram_count_mean(json, "kv.op.list_slices_since.latency_us");
  sample.read_count = count;
  sample.read_sum_us = count * mean;
  return sample;
}

void report_net(Outcome& out, SpanLog& log,
                const std::vector<std::shared_ptr<TimingSliceStore>>& probes,
                const std::vector<std::shared_ptr<armus::net::RemoteStore>>& clients,
                const ServerSample& before, const ServerSample& after,
                const armus::dist::Store& backing) {
  double puts = 0, put_bytes = 0, reads = 0, read_bytes = 0, read_slices = 0;
  for (const auto& probe : probes) {
    puts += static_cast<double>(probe->puts.load());
    put_bytes += static_cast<double>(probe->put_bytes.load());
    reads += static_cast<double>(probe->reads.load());
    read_bytes += static_cast<double>(probe->read_bytes.load());
    read_slices += static_cast<double>(probe->read_slices.load());
  }
  std::uint64_t failures = 0, connects = 0;
  for (const auto& client : clients) {
    failures += client->stats().failures;
    connects += client->stats().connects;
  }
  const SpanTotals put = log.totals(SpanName::kPut);
  const SpanTotals read = log.totals(SpanName::kRead);
  const double server_put_us =
      mean_of(after.put_sum_us - before.put_sum_us, after.put_count - before.put_count);
  const double server_read_us = mean_of(after.read_sum_us - before.read_sum_us,
                                        after.read_count - before.read_count);
  const auto& s = after.stats;

  out.set("net.put_us", put.mean_us(), "us", put.count);
  out.set("net.put_bytes", puts ? put_bytes / puts : 0.0, "B");
  out.set("net.read_us", read.mean_us(), "us", read.count);
  out.set("net.read_bytes", reads ? read_bytes / reads : 0.0, "B");
  out.set("net.read_slices", reads ? read_slices / reads : 0.0, "count");
  out.set("net.client_failures", static_cast<double>(failures), "count");
  out.set("net.client_connects", static_cast<double>(connects), "count");
  out.set("net.server_put_us", server_put_us, "us");
  out.set("net.server_read_us", server_read_us, "us");
  out.set("net.wire_put_us", put.count ? put.mean_us() - server_put_us : 0.0, "us");
  out.set("net.wire_read_us", read.count ? read.mean_us() - server_read_us : 0.0, "us");
  out.set("net.server_requests",
          static_cast<double>(s.requests - before.stats.requests), "count");
  out.set("net.server_errors", static_cast<double>(s.errors), "count");
  out.set("net.server_dropped",
          static_cast<double>(s.dropped_backpressure + s.dropped_idle +
                              s.dropped_protocol),
          "count");
  std::uint64_t contention = 0;
  for (std::uint64_t c : backing.shard_contention()) contention += c;
  out.set("dist.store_contention", static_cast<double>(contention), "count");
  out.set("dist.live_slices", static_cast<double>(backing.slice_count()), "count");
}

}  // namespace perfbench
