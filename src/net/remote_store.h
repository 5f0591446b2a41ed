#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dist/store.h"
#include "net/protocol.h"
#include "obs/registry.h"
#include "util/rng.h"

/// The client side of armus-kv: a dist::SliceStore whose operations are
/// request/response exchanges with a KvServer over TCP. dist::Site and
/// Cluster run unchanged over one of these — that is the whole point of
/// the SliceStore seam.
///
/// Failure model: any network failure (connect refused, peer reset, torn
/// or malformed response, server-side outage) closes the connection and
/// surfaces as dist::StoreUnavailableError — the same exception the
/// in-process store throws during an injected outage — so a Site absorbs
/// it through its existing outage path and simply retries next period.
/// Reconnection is lazy with decorrelated-jitter exponential backoff:
/// while the backoff window is open, operations fail fast without
/// touching the network (and a 10k-site fleet reconnecting after a
/// failover never stampedes the promoted replica in lockstep).
///
/// High availability (docs/HA.md): Config::endpoints may list several
/// servers (ARMUS_STORE=tcp://a:p,tcp://b:p). Connects walk the list
/// from the last known-good entry, and a NOT_PRIMARY answer — a mutation
/// sent to a replica — redirects to the address the reply carries and
/// resends once. A failover window where no endpoint accepts writes
/// surfaces as the ordinary StoreUnavailableError outage path.
namespace armus::net {

/// One armus-kv server address.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

class RemoteStore final : public dist::SliceStore {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    /// Every known server (primary + replicas), tried in order from the
    /// last endpoint that worked. Empty: {host, port} above is the one
    /// endpoint. A NOT_PRIMARY redirect naming an address outside this
    /// list appends it.
    std::vector<Endpoint> endpoints;

    /// Bound on one connect(2) attempt.
    std::chrono::milliseconds connect_timeout{500};

    /// Bound on each send/recv on an established connection (SO_SNDTIMEO
    /// / SO_RCVTIMEO): a stalled-but-open server (stopped process,
    /// blackholed route) must surface as StoreUnavailableError, never
    /// block a site thread forever.
    std::chrono::milliseconds io_timeout{2000};

    /// Retry-delay bounds after a failure. The delay is decorrelated
    /// jitter: uniform in [backoff_initial, 3 × previous delay], capped
    /// at backoff_max, reset on success — growth like doubling, but no
    /// two clients reconnect on the same schedule.
    std::chrono::milliseconds backoff_initial{25};
    std::chrono::milliseconds backoff_max{1000};

    /// Seed for the backoff jitter; 0 (default) draws a random one so
    /// fleet members decorrelate. Tests pin it for reproducibility.
    std::uint64_t backoff_seed = 0;

    std::size_t max_frame = kDefaultMaxFrame;

    /// Non-empty: an AUTH request carrying this token is sent on every
    /// (re)connect before any other request; an unauthorised reply fails
    /// the connect. Against a tokenless server AUTH is an accepted no-op,
    /// so a token-configured client interoperates either way. Wired from
    /// $ARMUS_AUTH_TOKEN by remote_store_from_url.
    std::string auth_token;

    /// Stamp every request with a varint request-id trailer
    /// (docs/WIRE_PROTOCOL.md §14): ids count up from 1 per store, so a
    /// server-side `slow_request` event or log line joins back to this
    /// client's own per-op latency histograms. Pre-trailer servers reject
    /// the extra varint as trailing garbage — set false to speak the
    /// byte-identical old dialect to them.
    bool request_ids = true;
  };

  struct Stats {
    std::uint64_t connects = 0;       ///< successful (re)connects
    std::uint64_t failures = 0;       ///< operations failed on the network
    std::uint64_t fast_failures = 0;  ///< failed inside the backoff window
    std::uint64_t stale_retries = 0;  ///< puts re-sequenced after kStaleVersion
    std::uint64_t reconnect_attempts = 0;  ///< connect walks started
    std::uint64_t redirects = 0;      ///< NOT_PRIMARY answers followed
    std::uint64_t failovers = 0;      ///< preferred endpoint changes
    std::uint64_t next_backoff_ms = 0;  ///< current jittered retry delay
  };

  explicit RemoteStore(Config config);
  ~RemoteStore() override;
  RemoteStore(const RemoteStore&) = delete;
  RemoteStore& operator=(const RemoteStore&) = delete;

  // --- SliceStore ----------------------------------------------------------

  /// PUT_SLICE with the next per-site sequence number as the proposed
  /// version. On kStaleVersion (another writer — or an earlier life of
  /// this one — got there first) jumps past the server's version and
  /// retries once. Throws dist::StoreUnavailableError on network failure.
  std::uint64_t put_slice(dist::SiteId site, std::string payload) override;

  /// PUT_SLICE_DELTA: ships a codec delta frame instead of the full
  /// payload; the server applies it to the slice it holds at exactly
  /// `base_version`. Throws dist::SliceBaseMismatchError when the server's
  /// slice is not at that base (the caller then re-publishes in full) and
  /// dist::StoreUnavailableError on network failure.
  std::uint64_t put_slice_delta(dist::SiteId site, std::uint64_t base_version,
                                const std::string& delta) override;

  void remove_slice(dist::SiteId site) override;

  [[nodiscard]] std::vector<dist::Slice> snapshot() const override;

  /// LIST_SLICES_SINCE: only the slices changed after store version
  /// `since` travel — the read-narrowing that keeps an N-site reader's
  /// per-check traffic proportional to what actually changed.
  [[nodiscard]] dist::DeltaSnapshot snapshot_since(
      std::uint64_t since) const override;

  // --- armus-kv extras -----------------------------------------------------

  /// GET_SLICE: one site's slice, nullopt when the server has none.
  std::optional<dist::Slice> get_slice(dist::SiteId site) const;

  /// HEARTBEAT round trip; false (instead of throwing) when the server is
  /// unreachable. Also the cheap way to force a reconnect attempt.
  bool heartbeat();

  /// INSPECT round trip: store identity, server counters, and one row per
  /// live slice (no payloads travel). Throws dist::StoreUnavailableError
  /// on network failure or a server-side outage.
  [[nodiscard]] InspectInfo inspect() const;

  /// STATS round trip: the server's obs::Registry snapshot as JSON
  /// (armus.obs.registry.v1). Throws dist::StoreUnavailableError on
  /// network failure.
  [[nodiscard]] std::string stats_json() const;

  /// PROMOTE round trip against the *preferred* endpoint: makes a replica
  /// the primary (under a fresh boot generation) and returns the
  /// generation now in force. Point a dedicated RemoteStore at the
  /// replica to promote a specific server. Throws
  /// dist::StoreUnavailableError on network failure.
  std::uint64_t promote();

  [[nodiscard]] bool connected() const;
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const { return config_; }

  /// Client-observed per-op latency histograms (`op.<name>.latency_us`,
  /// one sample per completed exchange) — the client half of the
  /// request-id join against the server's `kv.op.<name>.latency_us`.
  [[nodiscard]] const obs::Registry& op_registry() const {
    return op_registry_;
  }

  /// The last request id stamped on the wire (0 before the first, or
  /// with Config::request_ids off).
  [[nodiscard]] std::uint64_t last_request_id() const;

  /// The endpoint list in use (config plus redirect-learned entries) and
  /// the index currently preferred — observability for tests/armus-top.
  [[nodiscard]] std::vector<Endpoint> endpoints() const;
  [[nodiscard]] std::size_t preferred_endpoint() const;

 private:
  /// Sends `body` and returns the response body. Connects first if
  /// needed. A NOT_PRIMARY answer is followed once: re-point at the
  /// address it names (or the next endpoint) and resend; a second one is
  /// an unsettled failover window → StoreUnavailableError. Any network
  /// failure closes the socket, opens/extends the backoff window, and
  /// throws dist::StoreUnavailableError.
  std::string roundtrip(std::string_view body) const;
  /// One send/recv exchange on the current connection (no redirect
  /// handling). Caller holds mutex_.
  std::string exchange_locked(std::string_view body) const;

  /// roundtrip (or, for PROMOTE, exchange_locked) plus the telemetry
  /// wrapper: stamps the request-id trailer and records the exchange into
  /// op_registry_ as `op.<name>.latency_us`. Caller holds mutex_.
  std::string timed_exchange(const char* op, std::string body,
                             bool redirectable = true) const;

  /// Ensures fd_ holds a live connection, walking the endpoint list from
  /// preferred_; throws on failure (fast while the backoff window is
  /// open). Caller holds mutex_.
  void ensure_connected_locked() const;
  void disconnect_locked(const char* reason) const;
  /// Points preferred_ at `hostport` ("host:port"), learning it if new;
  /// an unparseable address just advances to the next endpoint. Caller
  /// holds mutex_.
  void prefer_locked(std::string_view hostport) const;

  /// Parses `status payload`; returns the offset just past the status.
  /// Maps kUnavailable onto StoreUnavailableError.
  static WireStatus read_status(std::string_view response,
                                std::size_t* offset);

  Config config_;

  mutable std::mutex mutex_;
  mutable int fd_ = -1;
  /// The servers to try (config endpoints, or {host, port}, plus any
  /// redirect-learned addresses) and the index connects start from.
  mutable std::vector<Endpoint> endpoints_;
  mutable std::size_t preferred_ = 0;
  mutable util::Xoshiro256 rng_;
  mutable std::chrono::milliseconds backoff_{0};
  mutable std::chrono::steady_clock::time_point retry_after_{};
  mutable Stats stats_;
  /// Highest version this client has stored per site; the next put
  /// proposes +1. See docs/WIRE_PROTOCOL.md on stale-version rejection.
  std::map<dist::SiteId, std::uint64_t> versions_;
  /// Correlation ids stamped so far (monotonic; guarded by mutex_).
  mutable std::uint64_t next_request_id_ = 0;
  /// Client-observed per-op latency (internally synchronised).
  mutable obs::Registry op_registry_;
};

}  // namespace armus::net
