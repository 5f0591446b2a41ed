#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/codec.h"

/// The shared global store of the distributed deployment (§5.2): sites
/// publish blocked-status slices into it, checkers read the snapshot of
/// every slice.
///
/// Each site owns one *slice* — an opaque payload (codec-encoded
/// BlockedStatus batch) it overwrites wholesale on every publish — and a
/// checker reads the snapshot of every slice. Slices are independent, so a
/// site crash leaves its last published slice visible (exactly what lets a
/// surviving site still detect a cycle through the dead site's tasks).
///
/// Two backends implement the SliceStore interface:
///   * Store            — in-process (one address space, tests/benchmarks)
///   * net::RemoteStore — TCP client of an armus-kv server (separate
///                        processes/hosts; see src/net/ and
///                        docs/WIRE_PROTOCOL.md)
namespace armus::dist {

using SiteId = std::uint32_t;

/// Raised by store operations while the store is unavailable: a simulated
/// outage on the in-process Store, or any network failure on a
/// net::RemoteStore. Sites absorb it and retry on their next period.
class StoreUnavailableError : public std::runtime_error {
 public:
  StoreUnavailableError() : std::runtime_error("store unavailable") {}
  explicit StoreUnavailableError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Raised by put_slice_delta when the store does not hold the slice at
/// exactly the delta's base version (another writer got there, the store
/// restarted, or the backend cannot apply deltas at all). The writer
/// falls back to a full-slice publish.
class SliceBaseMismatchError : public std::runtime_error {
 public:
  explicit SliceBaseMismatchError(std::uint64_t current_version)
      : std::runtime_error("slice base version mismatch (current " +
                           std::to_string(current_version) + ")"),
        current_version_(current_version) {}

  /// The version the store actually holds (0 when unknown).
  [[nodiscard]] std::uint64_t current_version() const {
    return current_version_;
  }

 private:
  std::uint64_t current_version_;
};

/// One site's published payload. `version` is strictly increasing per
/// site, so a reader (or a cache) can tell a re-publish from an unchanged
/// slice without decoding the payload.
struct Slice {
  SiteId site = 0;
  std::string payload;
  std::uint64_t version = 0;
};

/// A change-narrowed store read (snapshot_since): only the slices whose
/// content changed after the reader's last observed store version travel,
/// plus the list of live sites so the reader can evict removed slices.
struct DeltaSnapshot {
  /// The store-wide change version as of this read; pass it back as the
  /// next `since`. 0 means the backend is unversioned — the reader must
  /// treat every response as changed and never skip.
  std::uint64_t version = 0;

  /// The store's boot generation (non-zero for versioned backends): a
  /// fresh value per store lifetime. A reader seeing a different
  /// generation than its last read is talking to a restarted store whose
  /// change history — and whose slice versions — started over; it must
  /// drop its cache and refetch from 0, because per-slice versions can
  /// collide across lifetimes.
  std::uint64_t generation = 0;

  /// Slices changed after `since`, sorted by site id.
  std::vector<Slice> changed;

  /// Every site currently holding a slice, sorted.
  std::vector<SiteId> live_sites;
};

/// The slice API every store backend exposes. Site/Cluster run unchanged
/// over any implementation; backends signal
/// unavailability (outage, network failure) with StoreUnavailableError
/// and callers map that onto the periodic-retry path.
class SliceStore {
 public:
  virtual ~SliceStore() = default;

  /// Overwrites `site`'s slice; returns the slice's new version.
  virtual std::uint64_t put_slice(SiteId site, std::string payload) = 0;

  /// Applies a codec delta frame (dist::SliceDelta) to `site`'s slice,
  /// which must currently be at exactly `base_version`; returns the new
  /// version. Throws SliceBaseMismatchError when the base does not match —
  /// including the default implementation for backends without delta
  /// support — and the writer then re-publishes the full slice.
  virtual std::uint64_t put_slice_delta(SiteId site, std::uint64_t base_version,
                                        const std::string& delta);

  /// Drops `site`'s slice (graceful site shutdown; a crashed site leaves
  /// its slice behind).
  virtual void remove_slice(SiteId site) = 0;

  /// Every current slice, sorted by site id.
  [[nodiscard]] virtual std::vector<Slice> snapshot() const = 0;

  /// The slices changed since store version `since` (0 = everything), plus
  /// the live-site list. The default implementation falls back to a full
  /// snapshot() with DeltaSnapshot::version = 0 ("unversioned": correct,
  /// never skippable); versioned backends override it so an unchanged
  /// store answers with an empty `changed` list — the read-amplification
  /// fix for N-site deployments (LIST_SLICES_SINCE on armus-kv).
  [[nodiscard]] virtual DeltaSnapshot snapshot_since(std::uint64_t since) const;
};

/// One slice's row in a store introspection (INSPECT on armus-kv, the
/// armus-top table): how current and how busy each site's published
/// state is, computable without shipping the payloads.
struct SliceInspect {
  SiteId site = 0;
  std::uint64_t version = 0;        ///< slice version
  std::uint64_t blocked = 0;        ///< decoded status count (0 if corrupt)
  std::uint64_t age_ms = 0;         ///< now − last accepted change
  std::uint64_t payload_bytes = 0;  ///< encoded slice size
};

class Store final : public SliceStore {
 public:
  struct Config {
    /// Simulated one-way network latency added to every operation.
    std::chrono::microseconds latency{0};

    /// Boot generation reported by snapshot_since. 0 (the default) draws a
    /// fresh random value per Store — tests pinning wire bytes set it.
    std::uint64_t generation = 0;

    /// Clock stamping slice changes and computing inspect() publish ages.
    /// Default: std::chrono::steady_clock::now. Tests pinning INSPECT
    /// wire bytes inject a controllable one.
    std::function<std::chrono::steady_clock::time_point()> clock;

    /// Slice-map shards. Writes to different shards (site id modulo the
    /// count) contend only on their shard's mutex, so thousands of sites
    /// can publish concurrently; 0 is clamped to 1. Purely a concurrency
    /// knob — every observable ordering and version sequence is
    /// shard-count independent.
    std::size_t shards = 16;
  };

  /// Back-compat spelling: the slice type predates the SliceStore split.
  using Slice = dist::Slice;

  Store() : Store(Config{}) {}
  explicit Store(Config config);
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Overwrites `site`'s slice. Throws StoreUnavailableError during an
  /// outage.
  std::uint64_t put_slice(SiteId site, std::string payload) override;

  /// Conditional write for replicated clients (the armus-kv server's PUT
  /// path): stores `payload` at exactly `version` when `version` is newer
  /// than the current slice, otherwise leaves the slice untouched.
  /// Returns {accepted, current version after the call}; a rejected write
  /// reports the version the writer must exceed. Throws
  /// StoreUnavailableError during an outage.
  std::pair<bool, std::uint64_t> put_slice_if_newer(SiteId site,
                                                    std::string payload,
                                                    std::uint64_t version);

  /// Decodes the stored payload, applies the delta frame, re-encodes, and
  /// bumps the slice version. Throws SliceBaseMismatchError unless the
  /// slice is at exactly `base_version`; CodecError if the stored payload
  /// or the delta is malformed.
  std::uint64_t put_slice_delta(SiteId site, std::uint64_t base_version,
                                const std::string& delta) override;

  /// The armus-kv server's delta path: applies the delta only when the
  /// slice is at `base_version` *and* `proposed` is newer than the current
  /// version, storing exactly `proposed`. Returns {accepted, current
  /// version}; base mismatches throw SliceBaseMismatchError.
  std::pair<bool, std::uint64_t> put_slice_delta_if_newer(
      SiteId site, std::uint64_t base_version, std::uint64_t proposed,
      const std::string& delta);

  void remove_slice(SiteId site) override;

  /// `site`'s slice, if published.
  [[nodiscard]] std::optional<dist::Slice> get_slice(SiteId site) const;

  /// Every current slice, sorted by site id. Throws StoreUnavailableError
  /// during an outage.
  [[nodiscard]] std::vector<dist::Slice> snapshot() const override;

  /// Change-narrowed read: slices whose content changed after store
  /// version `since`, plus the live-site list. The returned version is the
  /// store-wide change counter (starts at 1 for an empty store, bumped by
  /// every accepted write or removal), so `snapshot_since(version)` on an
  /// idle store answers with an empty `changed` list.
  [[nodiscard]] DeltaSnapshot snapshot_since(std::uint64_t since) const override;

  /// The store-wide change version (what snapshot_since reports).
  [[nodiscard]] std::uint64_t version() const;

  /// One introspection row per live slice, sorted by site id: version,
  /// decoded blocked count (0 for a corrupt payload — introspection must
  /// not throw on data the checker would skip), publish age against
  /// Config::clock, and payload size. The INSPECT opcode serves exactly
  /// this; armus-top renders it. Throws StoreUnavailableError during an
  /// outage.
  [[nodiscard]] std::vector<SliceInspect> inspect() const;

  /// The store's boot generation (as reported by snapshot_since).
  [[nodiscard]] std::uint64_t generation() const;

  /// Swaps in a fresh random boot generation, exactly as if the store had
  /// restarted — every reader's next snapshot_since sees the mismatch,
  /// drops its cache, and refetches from 0. The armus-kv failover path
  /// (replica promotion, replication resync) calls this so a reader can
  /// never carry slice-version comparisons across the discontinuity.
  /// Slices and the change version survive; only the generation changes.
  void bump_generation();

  /// Removes every slice whose site is absent from `live` (sorted
  /// ascending) — the replication client's eviction half of applying a
  /// streamed frame. Returns the number of slices removed; the store-wide
  /// change version is bumped once per removal, as remove_slice would.
  std::size_t retain_only(const std::vector<SiteId>& live);

  /// Failure injection: while unavailable, every operation throws. Data
  /// survives the outage.
  void set_available(bool available);
  [[nodiscard]] bool available() const;

  /// Completed write / read operation counts (put_slice + remove_slice are
  /// writes, snapshot/get_slice are reads; failed attempts don't count).
  [[nodiscard]] std::uint64_t writes() const;
  [[nodiscard]] std::uint64_t reads() const;

  /// Live slice count (cheap: no payloads touched).
  [[nodiscard]] std::size_t slice_count() const;

  /// The shard layout, for observability: shard_contention()[i] counts the
  /// times a writer or reader found shard i's mutex held and had to wait.
  /// Zero under a well-spread load — the sharding working as intended.
  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] std::vector<std::uint64_t> shard_contention() const;

 private:
  /// One shard of the slice map: site id modulo the shard count picks the
  /// shard, and everything keyed by site lives under its mutex. The
  /// store-wide change counter stays a single atomic — bumped *inside* the
  /// owning shard's critical section, which is what keeps snapshot_since
  /// sound (see the comment there).
  struct Shard {
    mutable std::mutex mutex;
    std::map<SiteId, dist::Slice> slices;
    /// Store version at which each live slice last changed.
    std::map<SiteId, std::uint64_t> changed_at;
    /// Clock reading at each live slice's last accepted change (inspect()
    /// publish ages).
    std::map<SiteId, std::chrono::steady_clock::time_point> changed_time;
    /// Lock acquisitions that found the mutex held (try_lock failed).
    mutable std::atomic<std::uint64_t> contention{0};
  };

  void check_available() const;
  [[nodiscard]] Shard& shard_for(SiteId site) const;
  /// Locks `shard`, counting contention when the mutex was already held.
  [[nodiscard]] std::unique_lock<std::mutex> lock_shard(const Shard& shard) const;
  /// Bumps the store-wide version and stamps `site`'s change. Caller holds
  /// the owning shard's mutex and has already mutated the slice.
  void touch_locked(Shard& shard, SiteId site);

  Config config_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  /// Store-wide change counter; 1 = the initial empty state (0 is the
  /// DeltaSnapshot "unversioned" sentinel).
  std::atomic<std::uint64_t> version_{1};
  /// Boot generation (non-zero), see DeltaSnapshot::generation. Changes
  /// only through bump_generation (promotion / replication resync).
  std::atomic<std::uint64_t> generation_;
  std::atomic<bool> available_{true};
  std::atomic<std::uint64_t> writes_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
};

/// Decodes every slice and merges the statuses into one snapshot, sorted
/// by task — the global view a distributed checker analyses. A corrupt
/// slice is reported through `on_corrupt` and skipped when the callback is
/// set; with no callback the CodecError propagates.
std::vector<BlockedStatus> merge_slices(
    const std::vector<Slice>& slices,
    const std::function<void(SiteId, const CodecError&)>& on_corrupt = {});

/// Version-keyed decode cache: a slice whose version is unchanged since
/// the previous call is served from its cached decode, so a snapshot
/// round costs O(changed slices) decodes instead of O(all slices) — the
/// per-check-proportional-to-change property the periodic checkers need
/// at scale. Entries for sites that vanish from the snapshot are evicted.
///
/// Not internally synchronised; CachedSliceReader holds its own lock
/// around it.
class SliceCache {
 public:
  /// Applies a change-narrowed read: decodes the changed slices and evicts
  /// entries for sites absent from the live list. With snapshot_since this
  /// is the whole read path — unchanged slices neither travel nor decode.
  void apply(const DeltaSnapshot& delta,
             const std::function<void(SiteId, const CodecError&)>& on_corrupt = {});

  /// Drops every entry (the decode counter survives). Callers clear before
  /// applying a from-zero refetch of a *restarted* store: per-slice
  /// versions can collide across store lifetimes, so stale entries must
  /// not be trusted to match by version.
  void clear() { entries_.clear(); }

  /// The merged view of the current entries, sorted by task (use after
  /// apply()).
  [[nodiscard]] std::vector<BlockedStatus> merged() const;

  /// Total status count across the current entries.
  [[nodiscard]] std::size_t merged_count() const;

  /// Cumulative payload decodes performed (i.e. cache misses). A caller
  /// issuing N calls over unchanged slices sees this stay constant after
  /// the first — the unit-level evidence for the O(changed) claim.
  [[nodiscard]] std::uint64_t decodes() const { return decodes_; }

 private:
  struct Entry {
    std::uint64_t version = 0;
    bool corrupt = false;
    std::vector<BlockedStatus> statuses;
  };

  std::map<SiteId, Entry> entries_;
  std::uint64_t decodes_ = 0;
};

/// The guarded read path every slice-store consumer shares: one
/// change-narrowed fetch (snapshot_since) plus the restart and concurrency
/// handling, feeding a SliceCache, behind its own lock. Site::check_now
/// reads through one of these, so the restart rules —
/// boot-generation mismatch or version regression ⇒ drop the cache and
/// refetch from zero; a response older than what a concurrent reader
/// already applied ⇒ discard — live in exactly one place.
class CachedSliceReader {
 public:
  enum class Outcome {
    kUnchanged,  ///< store version unchanged: the cache is already exact
    kStale,      ///< a concurrent read applied a newer response; cache ahead
    kApplied,    ///< delta applied (possibly a restart-triggered refetch)
  };

  struct Read {
    Outcome outcome = Outcome::kApplied;
    /// Changed slices in the applied delta (0 unless kApplied).
    std::size_t slices_fetched = 0;
  };

  /// One guarded read against `store`. Store exceptions
  /// (StoreUnavailableError) propagate untouched; `on_corrupt` as in
  /// SliceCache::apply (absent ⇒ CodecError propagates).
  Read read(const SliceStore& store,
            const std::function<void(SiteId, const CodecError&)>& on_corrupt = {});

  /// Merged statuses (sorted by task) / status count over the cache.
  [[nodiscard]] std::vector<BlockedStatus> merged() const;
  [[nodiscard]] std::size_t merged_count() const;

  /// Cumulative payload decodes (SliceCache::decodes passthrough).
  [[nodiscard]] std::uint64_t decodes() const;

 private:
  mutable std::mutex mutex_;
  SliceCache cache_;
  std::uint64_t seen_version_ = 0;
  std::uint64_t seen_generation_ = 0;
  bool primed_ = false;
};

}  // namespace armus::dist
