#include "dist/store.h"

#include <algorithm>
#include <random>
#include <thread>

namespace armus::dist {

namespace {

void simulate_hop(std::chrono::microseconds latency) {
  if (latency.count() > 0) std::this_thread::sleep_for(latency);
}

/// A non-zero boot generation. Randomness (not a counter) because two
/// *processes* hosting successive lives of "the same" store must not
/// collide — that is exactly the restart case the generation detects.
std::uint64_t fresh_generation() {
  std::random_device rd;
  for (;;) {
    std::uint64_t g = (static_cast<std::uint64_t>(rd()) << 32) | rd();
    if (g != 0) return g;
  }
}

void sort_by_task(std::vector<BlockedStatus>& statuses) {
  std::sort(statuses.begin(), statuses.end(),
            [](const BlockedStatus& a, const BlockedStatus& b) {
              return a.task < b.task;
            });
}

}  // namespace

DeltaSnapshot SliceStore::snapshot_since(std::uint64_t since) const {
  // Unversioned fallback for backends without change tracking: a full
  // read, reported as such (version 0) so callers never skip on it.
  (void)since;
  DeltaSnapshot delta;
  delta.changed = snapshot();
  delta.live_sites.reserve(delta.changed.size());
  for (const Slice& slice : delta.changed) delta.live_sites.push_back(slice.site);
  return delta;
}

std::uint64_t SliceStore::put_slice_delta(SiteId site,
                                          std::uint64_t base_version,
                                          const std::string& delta) {
  // Backends without delta support reject every base: the writer falls
  // back to a full-slice publish.
  (void)site;
  (void)base_version;
  (void)delta;
  throw SliceBaseMismatchError(0);
}

Store::Store(Config config)
    : config_(std::move(config)),
      generation_(config_.generation != 0 ? config_.generation
                                          : fresh_generation()) {
  if (!config_.clock) {
    config_.clock = [] { return std::chrono::steady_clock::now(); };
  }
  std::size_t count = config_.shards == 0 ? 1 : config_.shards;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void Store::check_available() const {
  if (!available_.load(std::memory_order_relaxed)) {
    throw StoreUnavailableError();
  }
}

Store::Shard& Store::shard_for(SiteId site) const {
  return *shards_[site % shards_.size()];
}

std::unique_lock<std::mutex> Store::lock_shard(const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

void Store::touch_locked(Shard& shard, SiteId site) {
  // The store-wide counter is bumped *while holding the shard's mutex*.
  // That ordering is what makes snapshot_since lossless: a reader first
  // loads the counter (V0), then visits every shard under its lock. Any
  // write the reader's visit missed must have taken the shard lock after
  // the reader released it — which happens-after the reader's V0 load, so
  // by read-write coherence on the atomic its changed_at is > V0 and the
  // reader's next snapshot_since(V0) fetches it.
  shard.changed_at[site] = version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  shard.changed_time[site] = config_.clock();
  writes_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Store::put_slice(SiteId site, std::string payload) {
  simulate_hop(config_.latency);
  Shard& shard = shard_for(site);
  auto lock = lock_shard(shard);
  check_available();
  dist::Slice& slice = shard.slices[site];
  slice.site = site;
  slice.payload = std::move(payload);
  ++slice.version;
  touch_locked(shard, site);
  return slice.version;
}

std::pair<bool, std::uint64_t> Store::put_slice_if_newer(SiteId site,
                                                         std::string payload,
                                                         std::uint64_t version) {
  simulate_hop(config_.latency);
  Shard& shard = shard_for(site);
  auto lock = lock_shard(shard);
  check_available();
  auto it = shard.slices.find(site);
  if (it != shard.slices.end() && version <= it->second.version) {
    return {false, it->second.version};
  }
  dist::Slice& slice = shard.slices[site];
  slice.site = site;
  slice.payload = std::move(payload);
  slice.version = version;
  touch_locked(shard, site);
  return {true, version};
}

std::uint64_t Store::put_slice_delta(SiteId site, std::uint64_t base_version,
                                     const std::string& delta) {
  simulate_hop(config_.latency);
  Shard& shard = shard_for(site);
  auto lock = lock_shard(shard);
  check_available();
  auto it = shard.slices.find(site);
  if (it == shard.slices.end() || it->second.version != base_version) {
    throw SliceBaseMismatchError(it == shard.slices.end()
                                     ? 0
                                     : it->second.version);
  }
  std::vector<BlockedStatus> statuses = decode_statuses(it->second.payload);
  it->second.payload = encode_statuses(apply_delta(std::move(statuses),
                                                   decode_delta(delta)));
  ++it->second.version;
  touch_locked(shard, site);
  return it->second.version;
}

std::pair<bool, std::uint64_t> Store::put_slice_delta_if_newer(
    SiteId site, std::uint64_t base_version, std::uint64_t proposed,
    const std::string& delta) {
  simulate_hop(config_.latency);
  Shard& shard = shard_for(site);
  auto lock = lock_shard(shard);
  check_available();
  auto it = shard.slices.find(site);
  if (it == shard.slices.end() || it->second.version != base_version) {
    throw SliceBaseMismatchError(it == shard.slices.end()
                                     ? 0
                                     : it->second.version);
  }
  if (proposed <= it->second.version) return {false, it->second.version};
  std::vector<BlockedStatus> statuses = decode_statuses(it->second.payload);
  it->second.payload = encode_statuses(apply_delta(std::move(statuses),
                                                   decode_delta(delta)));
  it->second.version = proposed;
  touch_locked(shard, site);
  return {true, proposed};
}

void Store::remove_slice(SiteId site) {
  simulate_hop(config_.latency);
  Shard& shard = shard_for(site);
  auto lock = lock_shard(shard);
  check_available();
  if (shard.slices.erase(site) > 0) {
    shard.changed_at.erase(site);
    shard.changed_time.erase(site);
  }
  // A removal changes the global view even when the site had no slice —
  // keeping the counter monotone per accepted write is simpler and only
  // costs readers a no-op refresh.
  version_.fetch_add(1, std::memory_order_acq_rel);
  writes_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<dist::Slice> Store::get_slice(SiteId site) const {
  simulate_hop(config_.latency);
  Shard& shard = shard_for(site);
  auto lock = lock_shard(shard);
  check_available();
  reads_.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.slices.find(site);
  if (it == shard.slices.end()) return std::nullopt;
  return it->second;
}

std::vector<dist::Slice> Store::snapshot() const {
  simulate_hop(config_.latency);
  check_available();
  std::vector<dist::Slice> out;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    for (const auto& [site, slice] : shard->slices) out.push_back(slice);
  }
  std::sort(out.begin(), out.end(),
            [](const dist::Slice& a, const dist::Slice& b) {
              return a.site < b.site;
            });
  reads_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

DeltaSnapshot Store::snapshot_since(std::uint64_t since) const {
  simulate_hop(config_.latency);
  check_available();
  DeltaSnapshot delta;
  // Loaded *before* visiting any shard; see touch_locked for why a write
  // concurrent with the scan is either included here or has changed_at >
  // this value (so the reader's next call fetches it) — never both missed.
  delta.version = version_.load(std::memory_order_acquire);
  delta.generation = generation_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    for (const auto& [site, slice] : shard->slices) {
      delta.live_sites.push_back(site);
      if (shard->changed_at.at(site) > since) delta.changed.push_back(slice);
    }
  }
  std::sort(delta.live_sites.begin(), delta.live_sites.end());
  std::sort(delta.changed.begin(), delta.changed.end(),
            [](const dist::Slice& a, const dist::Slice& b) {
              return a.site < b.site;
            });
  reads_.fetch_add(1, std::memory_order_relaxed);
  return delta;
}

std::uint64_t Store::version() const {
  return version_.load(std::memory_order_acquire);
}

std::vector<SliceInspect> Store::inspect() const {
  check_available();
  auto now = config_.clock();
  std::vector<SliceInspect> rows;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    for (const auto& [site, slice] : shard->slices) {
      SliceInspect row;
      row.site = site;
      row.version = slice.version;
      row.payload_bytes = slice.payload.size();
      try {
        row.blocked = decode_statuses(slice.payload).size();
      } catch (const CodecError&) {
        // Introspection reports what it can; the checker's corrupt-slice
        // path owns the loud handling.
        row.blocked = 0;
      }
      auto changed = shard->changed_time.find(site);
      if (changed != shard->changed_time.end() && now > changed->second) {
        row.age_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - changed->second)
                .count());
      }
      rows.push_back(row);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const SliceInspect& a, const SliceInspect& b) {
              return a.site < b.site;
            });
  return rows;
}

std::uint64_t Store::generation() const {
  return generation_.load(std::memory_order_acquire);
}

void Store::bump_generation() {
  generation_.store(fresh_generation(), std::memory_order_release);
}

std::size_t Store::retain_only(const std::vector<SiteId>& live) {
  std::size_t removed = 0;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    check_available();
    for (auto it = shard->slices.begin(); it != shard->slices.end();) {
      if (std::binary_search(live.begin(), live.end(), it->first)) {
        ++it;
        continue;
      }
      SiteId site = it->first;
      it = shard->slices.erase(it);
      shard->changed_at.erase(site);
      shard->changed_time.erase(site);
      version_.fetch_add(1, std::memory_order_acq_rel);
      writes_.fetch_add(1, std::memory_order_relaxed);
      ++removed;
    }
  }
  return removed;
}

void Store::set_available(bool available) {
  available_.store(available, std::memory_order_relaxed);
}

bool Store::available() const {
  return available_.load(std::memory_order_relaxed);
}

std::uint64_t Store::writes() const {
  return writes_.load(std::memory_order_relaxed);
}

std::uint64_t Store::reads() const {
  return reads_.load(std::memory_order_relaxed);
}

std::size_t Store::slice_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    count += shard->slices.size();
  }
  return count;
}

std::size_t Store::shard_count() const { return shards_.size(); }

std::vector<std::uint64_t> Store::shard_contention() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->contention.load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<BlockedStatus> merge_slices(
    const std::vector<Slice>& slices,
    const std::function<void(SiteId, const CodecError&)>& on_corrupt) {
  std::vector<BlockedStatus> merged;
  for (const Slice& slice : slices) {
    std::vector<BlockedStatus> decoded;
    try {
      decoded = decode_statuses(slice.payload);
    } catch (const CodecError& e) {
      if (!on_corrupt) throw;
      on_corrupt(slice.site, e);
      continue;
    }
    merged.insert(merged.end(), std::make_move_iterator(decoded.begin()),
                  std::make_move_iterator(decoded.end()));
  }
  sort_by_task(merged);
  return merged;
}

// --- SliceCache --------------------------------------------------------------

void SliceCache::apply(
    const DeltaSnapshot& delta,
    const std::function<void(SiteId, const CodecError&)>& on_corrupt) {
  for (const Slice& slice : delta.changed) {
    auto it = entries_.find(slice.site);
    if (it != entries_.end() && it->second.version == slice.version) continue;
    Entry entry;
    entry.version = slice.version;
    ++decodes_;
    try {
      entry.statuses = decode_statuses(slice.payload);
    } catch (const CodecError& e) {
      if (!on_corrupt) throw;
      // Cache the corruption verdict too: an unchanged corrupt slice must
      // not be re-decoded (and re-reported) on every round.
      entry.corrupt = true;
      on_corrupt(slice.site, e);
    }
    entries_[slice.site] = std::move(entry);
  }
  // Evict sites that no longer hold a slice. Both lists are sorted.
  auto live_it = delta.live_sites.begin();
  for (auto it = entries_.begin(); it != entries_.end();) {
    while (live_it != delta.live_sites.end() && *live_it < it->first) ++live_it;
    bool present = live_it != delta.live_sites.end() && *live_it == it->first;
    it = present ? std::next(it) : entries_.erase(it);
  }
}

std::vector<BlockedStatus> SliceCache::merged() const {
  std::vector<BlockedStatus> out;
  for (const auto& [site, entry] : entries_) {
    out.insert(out.end(), entry.statuses.begin(), entry.statuses.end());
  }
  sort_by_task(out);
  return out;
}

std::size_t SliceCache::merged_count() const {
  std::size_t count = 0;
  for (const auto& [site, entry] : entries_) count += entry.statuses.size();
  return count;
}

// --- CachedSliceReader -------------------------------------------------------

CachedSliceReader::Read CachedSliceReader::read(
    const SliceStore& store,
    const std::function<void(SiteId, const CodecError&)>& on_corrupt) {
  std::uint64_t since;
  std::uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    since = seen_version_;
    generation = seen_generation_;
  }
  // The round trips happen without the lock: a fetch must never block
  // merged()/change_token() readers on another thread.
  DeltaSnapshot delta = store.snapshot_since(since);
  bool full_refetch = false;
  if (delta.version != 0 &&
      ((generation != 0 && delta.generation != generation) ||
       delta.version < since)) {
    // A different boot generation (or a counter that went backwards): a
    // restarted store. Its change history — and its slice versions — are
    // void, so refetch everything and rebuild the cache from scratch.
    delta = store.snapshot_since(0);
    full_refetch = true;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (delta.version == 0) {
    // Unversioned backend: every read is a full, applied read.
    cache_.apply(delta, on_corrupt);
    primed_ = true;
    return {Outcome::kApplied, delta.changed.size()};
  }
  if (full_refetch) {
    if (seen_generation_ == delta.generation && delta.version < seen_version_) {
      // A concurrent read already applied a newer snapshot of the same
      // (restarted) store lifetime while our refetch was in flight.
      return {Outcome::kStale, 0};
    }
    // Per-slice versions can collide across store lifetimes; stale cache
    // entries must not be trusted to match by version.
    cache_.clear();
  } else if ((seen_generation_ != 0 && delta.generation != seen_generation_) ||
             delta.version < seen_version_) {
    // A concurrent read applied a newer response (possibly from a newer
    // store lifetime) while this one was in flight; the cache is ahead.
    return {Outcome::kStale, 0};
  } else if (primed_ && delta.version == seen_version_ &&
             delta.changed.empty()) {
    return {Outcome::kUnchanged, 0};
  }
  cache_.apply(delta, on_corrupt);
  seen_version_ = delta.version;
  seen_generation_ = delta.generation;
  primed_ = true;
  return {Outcome::kApplied, delta.changed.size()};
}

std::vector<BlockedStatus> CachedSliceReader::merged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.merged();
}

std::size_t CachedSliceReader::merged_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.merged_count();
}

std::uint64_t CachedSliceReader::decodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.decodes();
}

}  // namespace armus::dist
