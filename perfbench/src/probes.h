#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/observer.h"
#include "core/state_store.h"
#include "dist/store.h"
#include "net/kv_server.h"
#include "net/remote_store.h"
#include "spans.h"

/// The traced run's probes: wrappers the benchmark plugs into the
/// library's public seams (VerifierConfig::store, VerifierConfig::observer,
/// dist::SliceStore) so every call into a layer is timed from outside the
/// program, with no change to the library.
namespace perfbench {

/// Opens a span on construction and closes it on destruction (or at
/// finish(), which also returns the closed span). Does nothing while the
/// log is not recording.
class SpanScope {
 public:
  SpanScope(SpanLog& log, SpanName name, std::uint64_t key = 0)
      : log_(log), open_(log.recording()) {
    if (open_) log_.open(name, now_ns(), key);
  }
  ~SpanScope() {
    if (open_) log_.close(now_ns());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  Span finish() {
    if (!open_) return Span{};
    open_ = false;
    return log_.close(now_ns());
  }

 private:
  SpanLog& log_;
  bool open_;
};

/// A StateStore around the verifier's real store: times set_blocked and
/// clear_blocked (the block path), and opens a `core.check` span at each
/// snapshot call — the start of an analysis — that TimingObserver closes
/// at the matching on_scan on the same thread.
class TimingStateStore final : public armus::StateStore {
 public:
  TimingStateStore(std::shared_ptr<armus::StateStore> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void set_blocked(armus::BlockedStatus status) override;
  void clear_blocked(armus::TaskId task) override;
  [[nodiscard]] std::vector<armus::BlockedStatus> snapshot() const override;
  [[nodiscard]] std::size_t blocked_count() const override {
    return inner_->blocked_count();
  }
  void clear() override { inner_->clear(); }
  [[nodiscard]] std::uint64_t version() const override {
    return inner_->version();
  }

 private:
  std::shared_ptr<armus::StateStore> inner_;
  SpanLog& log_;
};

/// The verifier's observer in the traced run: counts registry events,
/// closes `core.check` spans at on_scan and sums the analysed graph sizes.
class TimingObserver final : public armus::EventObserver {
 public:
  explicit TimingObserver(SpanLog& log) : log_(log) {}

  void on_task_registered(armus::TaskId, armus::PhaserUid, armus::Phase) override {
    if (log_.recording()) registry_events.fetch_add(1, std::memory_order_relaxed);
  }
  void on_task_deregistered(armus::TaskId, armus::PhaserUid) override {
    if (log_.recording()) registry_events.fetch_add(1, std::memory_order_relaxed);
  }
  void on_scan(const armus::ScanInfo& info) override;

  std::atomic<std::uint64_t> registry_events{0};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<std::uint64_t> edges{0};

 private:
  SpanLog& log_;
};

/// A SliceStore around a site's or client's real backend (a
/// net::RemoteStore): times every put and read and, while the log is
/// recording, counts them and their bytes.
class TimingSliceStore final : public armus::dist::SliceStore {
 public:
  TimingSliceStore(std::shared_ptr<armus::dist::SliceStore> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::uint64_t put_slice(armus::dist::SiteId site, std::string payload) override;
  std::uint64_t put_slice_delta(armus::dist::SiteId site,
                                std::uint64_t base_version,
                                const std::string& delta) override;
  void remove_slice(armus::dist::SiteId site) override {
    inner_->remove_slice(site);
  }
  [[nodiscard]] std::vector<armus::dist::Slice> snapshot() const override;
  [[nodiscard]] armus::dist::DeltaSnapshot snapshot_since(
      std::uint64_t since) const override;

  mutable std::atomic<std::uint64_t> puts{0};
  mutable std::atomic<std::uint64_t> put_bytes{0};
  mutable std::atomic<std::uint64_t> reads{0};
  mutable std::atomic<std::uint64_t> read_bytes{0};
  mutable std::atomic<std::uint64_t> read_slices{0};

 private:
  void count_put(std::uint64_t bytes) const;
  void count_read(const std::vector<armus::dist::Slice>& slices) const;

  std::shared_ptr<armus::dist::SliceStore> inner_;
  SpanLog& log_;
};

/// The server side of one measured phase: KvServer counters plus the
/// per-opcode latency sums behind STATS' exact means
/// (kv.op.<name>.latency_us), taken before and after the timed phase so
/// set-up traffic drops out.
struct ServerSample {
  armus::net::KvServer::Stats stats;
  double put_count = 0;  ///< put_slice + put_slice_delta
  double put_sum_us = 0;
  double read_count = 0;  ///< list_slices_since
  double read_sum_us = 0;
};

ServerSample sample_server(const armus::net::KvServer& server);

/// `count` and `mean` of histogram `name` in an armus.obs.registry.v1
/// document; {0, 0} when absent.
std::pair<double, double> histogram_count_mean(const std::string& json,
                                               const std::string& name);

/// Sets the net.* and dist.store_* per-layer metrics of a phase: client
/// side from the probes wrapped around each RemoteStore, server side from
/// two ServerSamples.
void report_net(Outcome& out, SpanLog& log,
                const std::vector<std::shared_ptr<TimingSliceStore>>& probes,
                const std::vector<std::shared_ptr<armus::net::RemoteStore>>& clients,
                const ServerSample& before, const ServerSample& after,
                const armus::dist::Store& backing);

}  // namespace perfbench
