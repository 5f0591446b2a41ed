#pragma once

#include <string>

#include "core/verifier.h"
#include "dist/site.h"
#include "dist/store.h"
#include "net/kv_server.h"
#include "net/remote_store.h"
#include "obs/registry.h"

/// Exporters from the existing Stats structs into an obs::Registry. The
/// structs stay the source of truth (their counters are maintained under
/// the owning component's locks); exporting copies a consistent snapshot
/// under `prefix` ("verifier", "site1", …), overwriting previous values —
/// call again whenever a fresh snapshot_json() is wanted. The metric
/// names below are the catalogue docs/OBSERVABILITY.md documents.
namespace armus::obs {

/// verifier: checks, deadlocks_found, avoidance_interrupts, scans_skipped,
/// graphs_built, incremental_applies, full_rebuilds, total_edges,
/// max_edges (counters) + mean_edges (gauge).
void export_stats(Registry& registry, const std::string& prefix,
                  const Verifier::Stats& stats);

/// site: publishes, publishes_skipped, delta_publishes, checks,
/// checks_skipped, slices_fetched, deadlocks_found, store_failures.
void export_stats(Registry& registry, const std::string& prefix,
                  const dist::Site::Stats& stats);

/// kv server: connections, requests, errors, dropped_backpressure,
/// dropped_idle, dropped_protocol, auth_failures, not_primary, role,
/// replication_frames, replication_resyncs, replication_lag_versions,
/// replication_lag_ms, watch_dropped.
void export_stats(Registry& registry, const std::string& prefix,
                  const net::KvServer::Stats& stats);

/// kv client: connects, failures, fast_failures, stale_retries,
/// reconnect_attempts, redirects, failovers, next_backoff_ms.
void export_stats(Registry& registry, const std::string& prefix,
                  const net::RemoteStore::Stats& stats);

}  // namespace armus::obs
