#include "obs/export.h"

namespace armus::obs {

void export_stats(Registry& registry, const std::string& prefix,
                  const Verifier::Stats& stats) {
  registry.counter_set(prefix + ".checks", stats.checks);
  registry.counter_set(prefix + ".deadlocks_found", stats.deadlocks_found);
  registry.counter_set(prefix + ".avoidance_interrupts",
                       stats.avoidance_interrupts);
  registry.counter_set(prefix + ".scans_skipped", stats.scans_skipped);
  registry.counter_set(prefix + ".graphs_built", stats.graphs_built);
  registry.counter_set(prefix + ".incremental_applies",
                       stats.incremental_applies);
  registry.counter_set(prefix + ".full_rebuilds", stats.full_rebuilds);
  registry.counter_set(prefix + ".total_edges", stats.total_edges);
  registry.counter_set(prefix + ".max_edges", stats.max_edges);
  registry.gauge_set(prefix + ".mean_edges", stats.mean_edges());
}

void export_stats(Registry& registry, const std::string& prefix,
                  const dist::Site::Stats& stats) {
  registry.counter_set(prefix + ".publishes", stats.publishes);
  registry.counter_set(prefix + ".publishes_skipped", stats.publishes_skipped);
  registry.counter_set(prefix + ".delta_publishes", stats.delta_publishes);
  registry.counter_set(prefix + ".checks", stats.checks);
  registry.counter_set(prefix + ".checks_skipped", stats.checks_skipped);
  registry.counter_set(prefix + ".slices_fetched", stats.slices_fetched);
  registry.counter_set(prefix + ".deadlocks_found", stats.deadlocks_found);
  registry.counter_set(prefix + ".store_failures", stats.store_failures);
}

void export_stats(Registry& registry, const std::string& prefix,
                  const net::KvServer::Stats& stats) {
  registry.counter_set(prefix + ".connections", stats.connections);
  registry.counter_set(prefix + ".requests", stats.requests);
  registry.counter_set(prefix + ".errors", stats.errors);
  registry.counter_set(prefix + ".dropped_backpressure",
                       stats.dropped_backpressure);
  registry.counter_set(prefix + ".dropped_idle", stats.dropped_idle);
  registry.counter_set(prefix + ".dropped_protocol", stats.dropped_protocol);
  registry.counter_set(prefix + ".auth_failures", stats.auth_failures);
  registry.counter_set(prefix + ".not_primary", stats.not_primary);
  registry.counter_set(prefix + ".role", stats.role);
  registry.counter_set(prefix + ".replication_frames",
                       stats.replication_frames);
  registry.counter_set(prefix + ".replication_resyncs",
                       stats.replication_resyncs);
  registry.counter_set(prefix + ".replication_lag_versions",
                       stats.replication_lag_versions);
  registry.counter_set(prefix + ".replication_lag_ms",
                       stats.replication_lag_ms);
  registry.counter_set(prefix + ".watch_dropped", stats.watch_dropped);
}

void export_stats(Registry& registry, const std::string& prefix,
                  const net::RemoteStore::Stats& stats) {
  registry.counter_set(prefix + ".connects", stats.connects);
  registry.counter_set(prefix + ".failures", stats.failures);
  registry.counter_set(prefix + ".fast_failures", stats.fast_failures);
  registry.counter_set(prefix + ".stale_retries", stats.stale_retries);
  registry.counter_set(prefix + ".reconnect_attempts",
                       stats.reconnect_attempts);
  registry.counter_set(prefix + ".redirects", stats.redirects);
  registry.counter_set(prefix + ".failovers", stats.failovers);
  registry.counter_set(prefix + ".next_backoff_ms", stats.next_backoff_ms);
}

}  // namespace armus::obs
