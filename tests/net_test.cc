// Tests for the armus-kv networked slice store: wire protocol encoding
// (including the byte-level examples pinned by docs/WIRE_PROTOCOL.md),
// server request handling and error codes, RemoteStore round trips over
// real TCP, disconnect/reconnect with backoff, stale-version rejection,
// Site behaviour across server outages, and the env path (site_from_env).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <thread>

#include "dist/site.h"
#include "fuzz/wire.h"
#include "net/config.h"
#include "net/kv_server.h"
#include "net/protocol.h"
#include "net/remote_store.h"
#include "net/socket_io.h"
#include "net/watch.h"
#include "phaser/phaser.h"
#include "runtime/task.h"

namespace armus::net {
namespace {

using namespace std::chrono_literals;
using dist::append_varint;
using dist::read_varint;

BlockedStatus status(TaskId task, std::vector<Resource> waits,
                     std::vector<RegEntry> registered) {
  BlockedStatus s;
  s.task = task;
  s.waits = std::move(waits);
  s.registered = std::move(registered);
  return s;
}

/// A RemoteStore config tuned for fast tests.
RemoteStore::Config client_config(std::uint16_t port) {
  RemoteStore::Config config;
  config.host = "127.0.0.1";
  config.port = port;
  config.connect_timeout = 200ms;
  config.backoff_initial = 5ms;
  config.backoff_max = 20ms;
  return config;
}

/// Polls `pred` (10 ms period) until it holds or `deadline` passes.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 5000ms) {
  auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

std::string hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
    out.push_back(' ');
  }
  if (!out.empty()) out.pop_back();
  return out;
}

// --- protocol ----------------------------------------------------------------

TEST(ProtocolTest, FramePrefixIsLittleEndianLength) {
  std::string framed = frame("abc");
  ASSERT_EQ(framed.size(), 7u);
  EXPECT_EQ(hex(framed), "03 00 00 00 61 62 63");
}

TEST(ProtocolTest, RequestHeaderBytes) {
  // docs/WIRE_PROTOCOL.md "HEARTBEAT request" example: proto=1, type=4.
  EXPECT_EQ(hex(request_header(MsgType::kHeartbeat)), "01 04");
}

TEST(ProtocolTest, DocumentedPutSliceExample) {
  // The byte-level PUT_SLICE example in docs/WIRE_PROTOCOL.md: site 2,
  // version 3, payload = encode_statuses of task 7 waiting on (phaser 1,
  // phase 1) while registered on (1,1) and (2,0).
  std::string payload =
      dist::encode_statuses({status(7, {{1, 1}}, {{1, 1}, {2, 0}})});
  EXPECT_EQ(hex(payload), "01 07 01 01 01 02 01 01 02 00");

  std::string body = request_header(MsgType::kPutSlice);
  append_varint(body, 2);
  append_varint(body, 3);
  append_bytes(body, payload);
  EXPECT_EQ(hex(body), "01 01 02 03 0a 01 07 01 01 01 02 01 01 02 00");

  std::string framed = frame(body);
  EXPECT_EQ(hex(framed.substr(0, 4)), "0f 00 00 00");
}

TEST(ProtocolTest, DocumentedDeltaFrameExample) {
  // docs/WIRE_PROTOCOL.md §1 "Delta frame" example: remove task 9.
  dist::SliceDelta delta;
  delta.removals = {9};
  EXPECT_EQ(hex(dist::encode_delta(delta)), "00 01 09");
}

TEST(ProtocolTest, DocumentedPutSliceDeltaExample) {
  // docs/WIRE_PROTOCOL.md §8 worked example: site 2, base 3, proposed 4,
  // upserting task 7's advanced status.
  dist::SliceDelta delta;
  delta.upserts = {status(7, {{1, 2}}, {{1, 2}, {2, 0}})};
  std::string encoded = dist::encode_delta(delta);
  EXPECT_EQ(hex(encoded), "01 07 01 01 02 02 01 02 02 00 00");

  std::string body = request_header(MsgType::kPutSliceDelta);
  append_varint(body, 2);  // site
  append_varint(body, 3);  // base
  append_varint(body, 4);  // proposed version
  append_bytes(body, encoded);
  EXPECT_EQ(hex(body), "01 06 02 03 04 0b 01 07 01 01 02 02 01 02 02 00 00");
  EXPECT_EQ(hex(frame(body).substr(0, 4)), "11 00 00 00");
}

TEST(ProtocolTest, DocumentedListSlicesSinceExample) {
  // docs/WIRE_PROTOCOL.md §7 worked example: on a store with boot
  // generation 7, site 1 publishes, then site 2 publishes the §1 payload;
  // a reader that saw store version 2 asks for everything since then and
  // receives only site 2's slice.
  dist::Store::Config backing_config;
  backing_config.generation = 7;
  KvServer server(KvServer::Config{},
                  std::make_shared<dist::Store>(backing_config));
  std::string put1 = request_header(MsgType::kPutSlice);
  append_varint(put1, 1);
  append_varint(put1, 1);
  append_bytes(put1, dist::encode_statuses({status(1, {{1, 1}}, {})}));
  ASSERT_EQ(server.handle_request(put1).substr(0, 1), std::string(1, '\0'));

  std::string put2 = request_header(MsgType::kPutSlice);
  append_varint(put2, 2);
  append_varint(put2, 1);
  append_bytes(put2,
               dist::encode_statuses({status(7, {{1, 1}}, {{1, 1}, {2, 0}})}));
  ASSERT_EQ(server.handle_request(put2).substr(0, 1), std::string(1, '\0'));

  std::string request = request_header(MsgType::kListSlicesSince);
  append_varint(request, 2);  // since = store version 2
  EXPECT_EQ(hex(request), "01 07 02");

  EXPECT_EQ(hex(server.handle_request(request)),
            "00 07 03 01 02 01 0a 01 07 01 01 01 02 01 01 02 00 02 01 02");
}

TEST(ProtocolTest, DocumentedInspectExample) {
  // docs/WIRE_PROTOCOL.md §10 worked example: a store booted with
  // generation 7 and a pinned clock; site 2 publishes the §1 payload and
  // 250 ms pass before the INSPECT arrives.
  auto now = std::make_shared<std::chrono::steady_clock::time_point>();
  dist::Store::Config backing_config;
  backing_config.generation = 7;
  backing_config.clock = [now] { return *now; };
  KvServer server(KvServer::Config{},
                  std::make_shared<dist::Store>(backing_config));
  std::string payload =
      dist::encode_statuses({status(7, {{1, 1}}, {{1, 1}, {2, 0}})});
  server.backing()->put_slice(2, payload);
  *now += 250ms;

  std::string request = request_header(MsgType::kInspect);
  EXPECT_EQ(hex(request), "01 08");

  // OK, generation 7, store version 2 (boots at 1, one write), 0
  // connections (handle_request called directly), 1 request (this
  // INSPECT), 0 errors, role 0 (primary), empty primary address, lag
  // 0/0, resync age 0, one row: site 2 version 1, 1 blocked task,
  // age 250 ms (fa 01), 10 payload bytes.
  std::string response = server.handle_request(request);
  EXPECT_EQ(hex(response),
            "00 07 02 00 01 00 00 00 00 00 00 01 02 01 01 fa 01 0a");

  std::size_t offset = 0;
  ASSERT_EQ(read_varint(response, &offset),
            static_cast<std::uint64_t>(WireStatus::kOk));
  InspectInfo info = read_inspect(response, &offset);
  expect_end(response, offset);
  EXPECT_EQ(info.generation, 7u);
  EXPECT_EQ(info.store_version, 2u);
  EXPECT_EQ(info.requests, 1u);
  ASSERT_EQ(info.sites.size(), 1u);
  EXPECT_EQ(info.sites[0].site, 2u);
  EXPECT_EQ(info.sites[0].version, 1u);
  EXPECT_EQ(info.sites[0].blocked, 1u);
  EXPECT_EQ(info.sites[0].age_ms, 250u);
  EXPECT_EQ(info.sites[0].payload_bytes, payload.size());
}

TEST(ProtocolTest, SliceRoundTrip) {
  dist::Slice in;
  in.site = 300;
  in.version = 41;
  in.payload = "payload-bytes";
  std::string out;
  append_slice(out, in);
  std::size_t offset = 0;
  dist::Slice decoded = read_slice(out, &offset);
  expect_end(out, offset);
  EXPECT_EQ(decoded.site, in.site);
  EXPECT_EQ(decoded.version, in.version);
  EXPECT_EQ(decoded.payload, in.payload);
}

TEST(ProtocolTest, ReadBytesRejectsOverlongLength) {
  std::string out;
  append_bytes(out, "xy");
  out.resize(out.size() - 1);  // declared 2 bytes, only 1 present
  std::size_t offset = 0;
  EXPECT_THROW((void)read_bytes(out, &offset), dist::CodecError);
}

// --- server request handling (no sockets) ------------------------------------

std::uint64_t response_status(const std::string& response) {
  std::size_t offset = 0;
  return read_varint(response, &offset);
}

TEST(KvServerTest, HandlesPutListClearDirectly) {
  KvServer server;

  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 1);  // site
  append_varint(put, 1);  // version
  append_bytes(put, dist::encode_statuses({status(1, {{1, 1}}, {})}));
  EXPECT_EQ(response_status(server.handle_request(put)),
            static_cast<std::uint64_t>(WireStatus::kOk));

  std::string list = request_header(MsgType::kListSlices);
  std::string response = server.handle_request(list);
  std::size_t offset = 0;
  ASSERT_EQ(read_varint(response, &offset),
            static_cast<std::uint64_t>(WireStatus::kOk));
  ASSERT_EQ(read_varint(response, &offset), 1u);  // one slice
  dist::Slice slice = read_slice(response, &offset);
  expect_end(response, offset);
  EXPECT_EQ(slice.site, 1u);
  EXPECT_EQ(slice.version, 1u);

  std::string clear = request_header(MsgType::kClear);
  append_varint(clear, 1);
  EXPECT_EQ(response_status(server.handle_request(clear)),
            static_cast<std::uint64_t>(WireStatus::kOk));
  EXPECT_TRUE(server.backing()->snapshot().empty());
}

TEST(KvServerTest, RejectsStaleVersionWithCurrent) {
  KvServer server;
  server.backing()->put_slice(4, "newer");  // version 1
  server.backing()->put_slice(4, "newest"); // version 2

  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 4);
  append_varint(put, 2);  // not newer than current 2
  append_bytes(put, "stale");
  std::string response = server.handle_request(put);
  std::size_t offset = 0;
  EXPECT_EQ(read_varint(response, &offset),
            static_cast<std::uint64_t>(WireStatus::kStaleVersion));
  EXPECT_EQ(read_varint(response, &offset), 2u);  // current version
  auto slice = server.backing()->get_slice(4);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->payload, "newest");  // rejected write left no trace
}

TEST(KvServerTest, ErrorCodes) {
  KvServer server;

  std::string bad_version;
  append_varint(bad_version, 99);  // unsupported protocol revision
  append_varint(bad_version, static_cast<std::uint64_t>(MsgType::kHeartbeat));
  EXPECT_EQ(response_status(server.handle_request(bad_version)),
            static_cast<std::uint64_t>(WireStatus::kBadVersion));

  std::string unknown;
  append_varint(unknown, kProtocolVersion);
  append_varint(unknown, 42);  // no such message type
  EXPECT_EQ(response_status(server.handle_request(unknown)),
            static_cast<std::uint64_t>(WireStatus::kUnknownType));

  std::string truncated = request_header(MsgType::kGetSlice);  // missing site
  EXPECT_EQ(response_status(server.handle_request(truncated)),
            static_cast<std::uint64_t>(WireStatus::kBadRequest));

  // Two trailing bytes: the first parses as a request-id trailer (§14),
  // so it takes a *second* stray byte to be trailing garbage now.
  std::string trailing = request_header(MsgType::kHeartbeat);
  trailing += "xy";
  EXPECT_EQ(response_status(server.handle_request(trailing)),
            static_cast<std::uint64_t>(WireStatus::kBadRequest));

  std::string absent = request_header(MsgType::kGetSlice);
  append_varint(absent, 123);
  EXPECT_EQ(response_status(server.handle_request(absent)),
            static_cast<std::uint64_t>(WireStatus::kNotFound));

  server.backing()->set_available(false);
  std::string list = request_header(MsgType::kListSlices);
  EXPECT_EQ(response_status(server.handle_request(list)),
            static_cast<std::uint64_t>(WireStatus::kUnavailable));
  EXPECT_GE(server.stats().errors, 5u);
}

TEST(KvServerTest, AppliesDeltasAndRejectsBadBases) {
  KvServer server;
  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 2);
  append_varint(put, 3);  // proposed slice version 3
  append_bytes(put,
               dist::encode_statuses({status(7, {{1, 1}}, {{1, 1}, {2, 0}})}));
  ASSERT_EQ(response_status(server.handle_request(put)),
            static_cast<std::uint64_t>(WireStatus::kOk));

  dist::SliceDelta delta;
  delta.upserts = {status(7, {{1, 2}}, {{1, 2}, {2, 0}})};

  std::string apply = request_header(MsgType::kPutSliceDelta);
  append_varint(apply, 2);
  append_varint(apply, 3);  // base = stored version
  append_varint(apply, 4);  // proposed
  append_bytes(apply, dist::encode_delta(delta));
  EXPECT_EQ(hex(server.handle_request(apply)), "00 04");  // docs §8

  auto slice = server.backing()->get_slice(2);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->version, 4u);
  EXPECT_EQ(dist::decode_statuses(slice->payload),
            (std::vector<BlockedStatus>{status(7, {{1, 2}}, {{1, 2}, {2, 0}})}));

  // The same request again: the slice moved to version 4, so base 3 no
  // longer matches — BASE_MISMATCH carrying the current version.
  std::string response = server.handle_request(apply);
  std::size_t offset = 0;
  EXPECT_EQ(read_varint(response, &offset),
            static_cast<std::uint64_t>(WireStatus::kBaseMismatch));
  EXPECT_EQ(read_varint(response, &offset), 4u);

  // Matching base but a non-newer proposed version: STALE_VERSION.
  std::string stale = request_header(MsgType::kPutSliceDelta);
  append_varint(stale, 2);
  append_varint(stale, 4);  // base matches
  append_varint(stale, 4);  // proposed not newer
  append_bytes(stale, dist::encode_delta(delta));
  response = server.handle_request(stale);
  offset = 0;
  EXPECT_EQ(read_varint(response, &offset),
            static_cast<std::uint64_t>(WireStatus::kStaleVersion));
  EXPECT_EQ(read_varint(response, &offset), 4u);

  // A malformed delta frame is a bad request, not a crash.
  std::string malformed = request_header(MsgType::kPutSliceDelta);
  append_varint(malformed, 2);
  append_varint(malformed, 4);
  append_varint(malformed, 5);
  append_bytes(malformed, "\xff\xff\xff");
  EXPECT_EQ(response_status(server.handle_request(malformed)),
            static_cast<std::uint64_t>(WireStatus::kBadRequest));
}

TEST(KvServerTest, InspectDuringOutageIsUnavailable) {
  KvServer server;
  server.backing()->set_available(false);
  EXPECT_EQ(response_status(
                server.handle_request(request_header(MsgType::kInspect))),
            static_cast<std::uint64_t>(WireStatus::kUnavailable));
}

// --- RemoteStore over real TCP ----------------------------------------------

TEST(RemoteStoreTest, InspectOverTcp) {
  KvServer server;
  server.start();
  RemoteStore client(client_config(server.port()));

  client.put_slice(1, dist::encode_statuses({status(1, {{1, 1}}, {})}));
  client.put_slice(2, dist::encode_statuses(
                          {status(2, {{2, 1}}, {}), status(3, {{2, 1}}, {})}));
  server.backing()->put_slice(9, "not-a-slice");  // corrupt publisher

  InspectInfo info = client.inspect();
  EXPECT_EQ(info.generation, server.backing()->generation());
  EXPECT_EQ(info.store_version, server.backing()->version());
  EXPECT_EQ(info.connections, 1u);
  EXPECT_GE(info.requests, 3u);  // two puts + this INSPECT (+ handshake)
  EXPECT_EQ(info.errors, 0u);
  ASSERT_EQ(info.sites.size(), 3u);
  EXPECT_EQ(info.sites[0].site, 1u);
  EXPECT_EQ(info.sites[0].blocked, 1u);
  EXPECT_EQ(info.sites[1].site, 2u);
  EXPECT_EQ(info.sites[1].blocked, 2u);
  // An undecodable payload still gets a row — size and version are facts,
  // the blocked count degrades to zero rather than poisoning the table.
  EXPECT_EQ(info.sites[2].site, 9u);
  EXPECT_EQ(info.sites[2].blocked, 0u);
  EXPECT_EQ(info.sites[2].payload_bytes, 11u);

  server.backing()->set_available(false);
  EXPECT_THROW((void)client.inspect(), dist::StoreUnavailableError);
}

TEST(RemoteStoreTest, RoundTripsSliceOperations) {
  KvServer server;
  server.start();
  RemoteStore client(client_config(server.port()));

  EXPECT_TRUE(client.heartbeat());
  EXPECT_EQ(client.put_slice(1, "one"), 1u);
  EXPECT_EQ(client.put_slice(1, "one-again"), 2u);
  EXPECT_EQ(client.put_slice(2, "two"), 1u);

  auto snapshot = client.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].site, 1u);
  EXPECT_EQ(snapshot[0].payload, "one-again");
  EXPECT_EQ(snapshot[0].version, 2u);
  EXPECT_EQ(snapshot[1].payload, "two");

  auto one = client.get_slice(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->payload, "one-again");
  EXPECT_FALSE(client.get_slice(9).has_value());

  client.remove_slice(1);
  EXPECT_EQ(client.snapshot().size(), 1u);
  EXPECT_EQ(client.stats().connects, 1u);  // one connection served it all
}

TEST(RemoteStoreTest, SecondWriterOfSameSiteResequencesPastStaleVersion) {
  KvServer server;
  server.start();
  RemoteStore first(client_config(server.port()));
  RemoteStore second(client_config(server.port()));

  EXPECT_EQ(first.put_slice(7, "a"), 1u);
  EXPECT_EQ(first.put_slice(7, "b"), 2u);
  // `second` has never written site 7, so it proposes version 1 — stale.
  // It must jump past the server's version and win on the retry.
  EXPECT_EQ(second.put_slice(7, "usurper"), 3u);
  EXPECT_EQ(second.stats().stale_retries, 1u);
  auto slice = server.backing()->get_slice(7);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->payload, "usurper");
}

TEST(RemoteStoreTest, NarrowedReadsOverTcp) {
  KvServer server;
  server.start();
  RemoteStore client(client_config(server.port()));

  client.put_slice(1, dist::encode_statuses({status(1, {{1, 1}}, {})}));
  dist::DeltaSnapshot all = client.snapshot_since(0);
  EXPECT_NE(all.version, 0u);
  ASSERT_EQ(all.changed.size(), 1u);
  EXPECT_EQ(all.live_sites, (std::vector<dist::SiteId>{1}));

  // Unchanged store: the response carries no slice payloads at all.
  dist::DeltaSnapshot none = client.snapshot_since(all.version);
  EXPECT_EQ(none.version, all.version);
  EXPECT_TRUE(none.changed.empty());
  EXPECT_EQ(none.live_sites, (std::vector<dist::SiteId>{1}));

  client.put_slice(2, dist::encode_statuses({status(2, {{2, 1}}, {})}));
  dist::DeltaSnapshot one = client.snapshot_since(all.version);
  EXPECT_GT(one.version, all.version);
  ASSERT_EQ(one.changed.size(), 1u);
  EXPECT_EQ(one.changed[0].site, 2u);
  EXPECT_EQ(one.live_sites, (std::vector<dist::SiteId>{1, 2}));
}

TEST(RemoteStoreTest, DeltaPutsOverTcp) {
  KvServer server;
  server.start();
  RemoteStore client(client_config(server.port()));

  std::vector<BlockedStatus> base{
      status(1, {{1, 1}}, {{1, 1}}),
      status(2, {{2, 1}}, {{2, 1}}),
  };
  std::uint64_t v1 = client.put_slice(4, dist::encode_statuses(base));

  dist::SliceDelta delta;
  delta.upserts = {status(2, {{2, 2}}, {{2, 2}})};
  delta.removals = {1};
  std::uint64_t v2 = client.put_slice_delta(4, v1, dist::encode_delta(delta));
  EXPECT_GT(v2, v1);

  auto slice = client.get_slice(4);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(dist::decode_statuses(slice->payload),
            (std::vector<BlockedStatus>{status(2, {{2, 2}}, {{2, 2}})}));

  // A stale base surfaces as the typed mismatch error, so dist::Site can
  // fall back to a full publish.
  EXPECT_THROW(client.put_slice_delta(4, v1, dist::encode_delta(delta)),
               dist::SliceBaseMismatchError);
}

TEST(RemoteStoreTest, DisconnectBacksOffThenReconnects) {
  auto backing = std::make_shared<dist::Store>();
  KvServer::Config server_config;
  auto server = std::make_unique<KvServer>(server_config, backing);
  server->start();
  std::uint16_t port = server->port();

  RemoteStore client(client_config(port));
  EXPECT_EQ(client.put_slice(1, "before-outage"), 1u);

  server->stop();
  EXPECT_THROW(client.put_slice(1, "during-outage"),
               dist::StoreUnavailableError);
  // Inside the backoff window operations fail fast, without the network.
  EXPECT_THROW(client.put_slice(1, "still-down"),
               dist::StoreUnavailableError);
  EXPECT_GE(client.stats().failures, 1u);

  // Same port, same backing: the server came back with its data intact.
  server_config.port = port;
  server = std::make_unique<KvServer>(server_config, backing);
  server->start();
  std::this_thread::sleep_for(50ms);  // let the backoff window expire

  EXPECT_EQ(client.put_slice(1, "after-recovery"), 2u);
  EXPECT_GE(client.stats().connects, 2u);
  auto slice = backing->get_slice(1);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->payload, "after-recovery");
}

// --- Site over armus-kv -------------------------------------------------------

void plant_cross_site_cycle(dist::Site& a, dist::Site& b) {
  a.verifier().state().set_blocked(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
  b.verifier().state().set_blocked(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
}

TEST(NetSiteTest, DetectsCrossSiteDeadlockThroughTcp) {
  KvServer server;
  server.start();

  dist::Site::Config ca, cb;
  ca.id = 0;
  cb.id = 1;
  dist::Site a(ca, std::make_shared<RemoteStore>(client_config(server.port())));
  dist::Site b(cb, std::make_shared<RemoteStore>(client_config(server.port())));
  plant_cross_site_cycle(a, b);

  ASSERT_TRUE(a.publish_now());
  ASSERT_TRUE(b.publish_now());
  ASSERT_TRUE(a.check_now());
  ASSERT_TRUE(b.check_now());

  ASSERT_EQ(a.reported().size(), 1u);
  ASSERT_EQ(b.reported().size(), 1u);
  EXPECT_EQ(a.reported()[0].tasks, (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(b.reported()[0].tasks, (std::vector<TaskId>{1, 2}));
}

TEST(NetSiteTest, AbsorbsTcpOutageAndPublishesAfterRecovery) {
  auto backing = std::make_shared<dist::Store>();
  KvServer::Config server_config;
  auto server = std::make_unique<KvServer>(server_config, backing);
  server->start();
  std::uint16_t port = server->port();

  dist::Site::Config config;
  config.id = 3;
  dist::Site site(config, std::make_shared<RemoteStore>(client_config(port)));
  site.verifier().state().set_blocked(status(30, {{5, 1}}, {{5, 1}}));
  ASSERT_TRUE(site.publish_now());

  server->stop();
  // An unchanged slice skips the store write entirely, so the publisher
  // does not even notice the outage; the checker, which must contact the
  // store, absorbs it (not thrown) and flags the store as suspect.
  EXPECT_TRUE(site.publish_now());
  EXPECT_EQ(site.stats().publishes_skipped, 1u);
  EXPECT_FALSE(site.check_now());
  EXPECT_GE(site.stats().store_failures, 1u);

  // The site keeps accumulating state during the outage...
  site.verifier().state().set_blocked(status(31, {{6, 1}}, {{6, 1}}));

  server_config.port = port;
  server = std::make_unique<KvServer>(server_config, backing);
  server->start();
  std::this_thread::sleep_for(50ms);

  // ...and the first successful publish carries the *full* slice.
  ASSERT_TRUE(site.publish_now());
  auto slice = backing->get_slice(3);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(dist::decode_statuses(slice->payload).size(), 2u);
  ASSERT_TRUE(site.check_now());
  EXPECT_EQ(site.stats().publishes, 2u);
}

TEST(NetSiteTest, ServerRestartWithCollidingSliceVersionsIsReDecoded) {
  // The nasty restart case: the replacement server's backing holds a slice
  // for the same site at the *same* per-slice version but with different
  // content. The boot generation in LIST_SLICES_SINCE tells the checker
  // its cache (keyed by slice version) is void, so it re-decodes and sees
  // the new content — here, a deadlock the old content did not have.
  auto backing1 = std::make_shared<dist::Store>();
  backing1->put_slice(9, dist::encode_statuses(
                             {status(90, {{9, 1}}, {{9, 1}})}));  // no cycle

  KvServer::Config server_config;
  auto server = std::make_unique<KvServer>(server_config, backing1);
  server->start();
  std::uint16_t port = server->port();

  dist::Site::Config config;
  config.id = 0;
  dist::Site site(config, std::make_shared<RemoteStore>(client_config(port)));
  ASSERT_TRUE(site.check_now());  // caches site 9's slice (version 1)
  EXPECT_TRUE(site.reported().empty());

  server->stop();

  auto backing2 = std::make_shared<dist::Store>();  // fresh lifetime
  backing2->put_slice(9, dist::encode_statuses({
                             status(91, {{1, 1}}, {{2, 0}}),
                             status(92, {{2, 1}}, {{1, 0}}),
                         }));  // same site, same slice version 1, a cycle

  server_config.port = port;
  server = std::make_unique<KvServer>(server_config, backing2);
  server->start();

  // Retry through the client's reconnect backoff.
  bool checked = false;
  for (int i = 0; i < 200 && !checked; ++i) {
    checked = site.check_now();
    if (!checked) std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(checked);
  ASSERT_EQ(site.reported().size(), 1u);
  EXPECT_EQ(site.reported()[0].tasks, (std::vector<TaskId>{91, 92}));
}

TEST(NetSiteTest, PeriodicLoopsDetectThroughServerRestart) {
  auto backing = std::make_shared<dist::Store>();
  KvServer::Config server_config;
  auto server = std::make_unique<KvServer>(server_config, backing);
  server->start();
  std::uint16_t port = server->port();

  std::atomic<int> detections{0};
  dist::Site::Config ca, cb;
  ca.id = 0;
  ca.publish_period = 5ms;
  ca.check_period = 5ms;
  ca.on_deadlock = [&](const DeadlockReport&) { ++detections; };
  cb = ca;
  cb.id = 1;
  cb.on_deadlock = nullptr;
  dist::Site a(ca, std::make_shared<RemoteStore>(client_config(port)));
  dist::Site b(cb, std::make_shared<RemoteStore>(client_config(port)));

  // Kill the server before the sites ever publish: every early round
  // fails, and the sites must ride it out.
  server->stop();
  plant_cross_site_cycle(a, b);
  a.start();
  b.start();
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(detections.load(), 0);
  EXPECT_GE(a.stats().store_failures, 1u);

  server_config.port = port;
  server = std::make_unique<KvServer>(server_config, backing);
  server->start();
  for (int i = 0; i < 600 && detections.load() == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  a.stop();
  b.stop();
  EXPECT_GE(detections.load(), 1);
  EXPECT_EQ(a.stats().deadlocks_found, 1u);
}

TEST(NetSiteTest, UnchangedStoreSkipsChecksAcrossTheWire) {
  KvServer server;
  server.start();
  dist::Site::Config config;
  config.id = 0;
  dist::Site site(config,
                  std::make_shared<RemoteStore>(client_config(server.port())));

  site.verifier().state().set_blocked(status(1, {{1, 1}}, {{2, 0}}));
  ASSERT_TRUE(site.publish_now());
  ASSERT_TRUE(site.check_now());
  // Nothing changed anywhere in the cluster: every further check is one
  // payload-free LIST_SLICES_SINCE round trip and no graph work.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(site.check_now());
  EXPECT_EQ(site.stats().checks_skipped, 5u);
  EXPECT_EQ(site.stats().checks, 1u);

  // Another process publishes the other half of a cycle: the store version
  // moves, the next check runs and detects it.
  RemoteStore other(client_config(server.port()));
  other.put_slice(5, dist::encode_statuses({status(50, {{2, 1}}, {{1, 0}})}));
  ASSERT_TRUE(site.check_now());
  ASSERT_EQ(site.reported().size(), 1u);
  EXPECT_EQ(site.reported()[0].tasks, (std::vector<TaskId>{1, 50}));
}

TEST(NetCachedSliceReaderTest, RepeatedReadsDoNotRedecodeUnchangedSlices) {
  KvServer server;
  server.start();
  RemoteStore remote(client_config(server.port()));
  RemoteStore other(client_config(server.port()));
  other.put_slice(1, dist::encode_statuses({status(10, {{1, 1}}, {})}));
  remote.put_slice(0, dist::encode_statuses({status(1, {{2, 1}}, {{2, 1}})}));

  dist::CachedSliceReader reader;
  reader.read(remote);
  EXPECT_EQ(reader.decodes(), 2u);  // both slices decoded once

  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(reader.read(remote).outcome,
              dist::CachedSliceReader::Outcome::kUnchanged);
    EXPECT_EQ(reader.merged_count(), 2u);
  }
  // 10 further reads, zero further decodes: O(changed slices).
  EXPECT_EQ(reader.decodes(), 2u);

  // One slice changes → exactly one further decode.
  other.put_slice(1, dist::encode_statuses({status(10, {{1, 2}}, {})}));
  reader.read(remote);
  EXPECT_EQ(reader.merged_count(), 2u);
  EXPECT_EQ(reader.decodes(), 3u);
}

// --- config / env ------------------------------------------------------------

TEST(NetConfigTest, ParsesTcpEndpoints) {
  Endpoint endpoint = parse_tcp_endpoint("tcp://10.1.2.3:6379");
  EXPECT_EQ(endpoint.host, "10.1.2.3");
  EXPECT_EQ(endpoint.port, 6379);
  EXPECT_EQ(parse_tcp_endpoint("tcp://localhost:1").port, 1);

  EXPECT_THROW(parse_tcp_endpoint("redis://x:1"), std::invalid_argument);
  EXPECT_THROW(parse_tcp_endpoint("tcp://nohost"), std::invalid_argument);
  EXPECT_THROW(parse_tcp_endpoint("tcp://:123"), std::invalid_argument);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:"), std::invalid_argument);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:0"), std::invalid_argument);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:99999"), std::invalid_argument);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:12x"), std::invalid_argument);
}

/// Restores an env var on scope exit.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* value = std::getenv(name);
    if (value) previous_ = value;
  }
  ~EnvGuard() {
    if (previous_) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

/// Pins the variables site_from_env reads that a test does not set, so
/// the caller's environment cannot leak into it.
struct SiteEnvGuard {
  EnvGuard store{"ARMUS_STORE"};
  EnvGuard site{"ARMUS_SITE_ID"};
  EnvGuard mode{"ARMUS_MODE"};
  EnvGuard model{"ARMUS_GRAPH_MODEL"};
  EnvGuard period{"ARMUS_CHECK_PERIOD_MS"};

  SiteEnvGuard() {
    for (const char* name : {"ARMUS_STORE", "ARMUS_SITE_ID", "ARMUS_MODE",
                             "ARMUS_GRAPH_MODEL", "ARMUS_CHECK_PERIOD_MS"}) {
      ::unsetenv(name);
    }
  }
};

TEST(NetConfigTest, EnvSelectsRemoteBackend) {
  KvServer server;
  server.start();
  SiteEnvGuard guard;
  std::string url = "tcp://127.0.0.1:" + std::to_string(server.port());
  ::setenv("ARMUS_STORE", url.c_str(), 1);
  ::setenv("ARMUS_SITE_ID", "5", 1);

  // Periods too long to fire: the test publishes by hand.
  dist::Site::Config base;
  base.publish_period = base.check_period = std::chrono::hours(1);
  std::unique_ptr<dist::Site> site = site_from_env(base);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->id(), 5u);
  EXPECT_EQ(site->verifier().mode(), VerifyMode::kDetection);
  EXPECT_NE(std::dynamic_pointer_cast<RemoteStore>(site->store()), nullptr);

  // The site publishes straight into armus-kv, registrations included.
  site->verifier().state().set_blocked(status(50, {{9, 1}}, {}));
  site->verifier().registry().set_entry(50, 9, 1);
  ASSERT_TRUE(site->publish_now());
  auto slice = server.backing()->get_slice(5);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(dist::decode_statuses(slice->payload),
            (std::vector<BlockedStatus>{status(50, {{9, 1}}, {{9, 1}})}));
}

TEST(NetConfigTest, UnsetEnvMeansLocalStore) {
  SiteEnvGuard guard;
  EXPECT_EQ(slice_store_from_env(), nullptr);
  EXPECT_EQ(site_from_env(), nullptr);
}

TEST(NetConfigTest, MalformedEnvThrows) {
  SiteEnvGuard guard;
  ::setenv("ARMUS_STORE", "tcp://missing-port", 1);
  EXPECT_THROW(slice_store_from_env(), std::invalid_argument);
  EXPECT_THROW(site_from_env(), std::invalid_argument);
}

TEST(NetConfigTest, SiteFromEnvRefusesModesOtherThanDetection) {
  // A site only detects: avoidance (or off) with a shared store must fail
  // at start-up, not run a checker the user did not ask for.
  SiteEnvGuard guard;
  ::setenv("ARMUS_STORE", "tcp://127.0.0.1:1", 1);
  for (const char* mode : {"avoidance", "off"}) {
    ::setenv("ARMUS_MODE", mode, 1);
    EXPECT_THROW(site_from_env(), std::invalid_argument) << mode;
  }
}

TEST(NetConfigTest, TwoSitesFromEnvBothReportACrossSitePhaserDeadlock) {
  // The env path end to end, through real phasers: two sites built by
  // site_from_env over one armus-kv server, a task bound to each, and a
  // two-task deadlock that only the merged snapshot contains.
  KvServer server;
  server.start();
  SiteEnvGuard guard;
  std::string url = "tcp://127.0.0.1:" + std::to_string(server.port());
  ::setenv("ARMUS_STORE", url.c_str(), 1);
  ::setenv("ARMUS_CHECK_PERIOD_MS", "20", 1);
  ::setenv("ARMUS_SITE_ID", "0", 1);
  std::unique_ptr<dist::Site> site0 = site_from_env();
  ::setenv("ARMUS_SITE_ID", "1", 1);
  std::unique_ptr<dist::Site> site1 = site_from_env();
  ASSERT_NE(site0, nullptr);
  ASSERT_NE(site1, nullptr);

  auto p = ph::Phaser::create(&site0->verifier());
  auto q = ph::Phaser::create(&site0->verifier());
  // Neither body runs until both tasks are registered on both phasers.
  std::atomic<bool> start{false};
  auto register_both = [&](TaskId child) {
    p->register_task(child, 0);
    q->register_task(child, 0);
  };
  rt::Task ta = rt::spawn_with(
      register_both,
      [&] {
        while (!start.load()) std::this_thread::yield();
        TaskId self = rt::current_task();
        p->arrive(self);
        p->await(self, 1);  // blocked at site 0 until the rescue below
        p->deregister(self);
      },
      &site0->verifier(), "site0-task");
  rt::Task tb = rt::spawn_with(
      register_both,
      [&] {
        while (!start.load()) std::this_thread::yield();
        TaskId self = rt::current_task();
        q->arrive(self);
        q->await(self, 1);  // blocked at site 1: the cycle closes
        p->arrive_and_deregister(self);
        q->deregister(self);
      },
      &site1->verifier(), "site1-task");
  start.store(true);

  eventually([&] {
    return !site0->reported().empty() && !site1->reported().empty();
  });
  std::vector<DeadlockReport> at0 = site0->reported();
  std::vector<DeadlockReport> at1 = site1->reported();

  // Rescue: dropping task A from q wakes B, whose arrival on p wakes A.
  q->deregister(ta.id());
  ta.join();
  tb.join();

  std::vector<TaskId> expected{ta.id(), tb.id()};
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(at0.size(), 1u);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at0[0].tasks, expected);
  EXPECT_EQ(at1[0].tasks, expected);
}

// --- STATS -------------------------------------------------------------------

TEST(KvServerTest, DocumentedStatsExample) {
  // The byte-pinned example in docs/WIRE_PROTOCOL.md §11: a fresh server
  // over a generation-7 store answers STATS with OK + a length-delimited
  // registry snapshot whose only non-zero counters are the generation,
  // the store's initial change version, and the request being answered.
  dist::Store::Config store_config;
  store_config.generation = 7;
  KvServer server(KvServer::Config{},
                  std::make_shared<dist::Store>(store_config));

  std::string response = server.handle_request(request_header(MsgType::kStats));
  std::size_t offset = 0;
  ASSERT_EQ(read_varint(response, &offset),
            static_cast<std::uint64_t>(WireStatus::kOk));
  std::string_view json = read_bytes(response, &offset);
  expect_end(response, offset);
  EXPECT_EQ(json,
            "{\"schema\":\"armus.obs.registry.v1\",\"counters\":{"
            "\"kv.auth_failures\":0,\"kv.connections\":0,"
            "\"kv.dropped_backpressure\":0,\"kv.dropped_idle\":0,"
            "\"kv.dropped_protocol\":0,\"kv.errors\":0,\"kv.generation\":7,"
            "\"kv.not_primary\":0,\"kv.replication_frames\":0,"
            "\"kv.replication_lag_ms\":0,\"kv.replication_lag_versions\":0,"
            "\"kv.replication_resyncs\":0,\"kv.requests\":1,\"kv.role\":0,"
            "\"kv.slices\":0,\"kv.store_version\":1,\"kv.watch_dropped\":0},"
            "\"gauges\":{},\"histograms\":{}}");
}

TEST(RemoteStoreTest, StatsOverTcp) {
  KvServer server;
  server.start();
  RemoteStore client(client_config(server.port()));

  client.put_slice(3, "payload");
  std::string json = client.stats_json();
  EXPECT_NE(json.find("\"schema\":\"armus.obs.registry.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kv.slices\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kv.errors\":0"), std::string::npos);

  server.stop();
  EXPECT_THROW((void)client.stats_json(), dist::StoreUnavailableError);
}

// --- AUTH --------------------------------------------------------------------

KvServer::Config auth_server_config(const std::string& token) {
  KvServer::Config config;
  config.auth_token = token;
  return config;
}

/// One framed request/response exchange on an already-open socket.
std::string rpc(int fd, const std::string& body) {
  EXPECT_TRUE(io::write_all(fd, frame(body)));
  std::optional<std::string> response = io::read_frame(fd, kDefaultMaxFrame);
  EXPECT_TRUE(response.has_value());
  return response.value_or("");
}

TEST(KvServerTest, AuthGatesMutatingOpsPerConnection) {
  KvServer server(auth_server_config("sesame"));
  server.start();
  int fd = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(fd, 0);
  io::set_io_timeout(fd, 2000);

  // Mutating before AUTH: UNAUTHORIZED, and the connection survives.
  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 1);
  append_varint(put, 1);
  append_bytes(put, "payload");
  EXPECT_EQ(response_status(rpc(fd, put)),
            static_cast<std::uint64_t>(WireStatus::kUnauthorized));

  // Reads, heartbeats, and introspection stay open to everyone.
  EXPECT_EQ(response_status(rpc(fd, request_header(MsgType::kHeartbeat))),
            static_cast<std::uint64_t>(WireStatus::kOk));
  EXPECT_EQ(response_status(rpc(fd, request_header(MsgType::kListSlices))),
            static_cast<std::uint64_t>(WireStatus::kOk));
  EXPECT_EQ(response_status(rpc(fd, request_header(MsgType::kInspect))),
            static_cast<std::uint64_t>(WireStatus::kOk));

  // A wrong token is rejected and does not authenticate.
  std::string bad_auth = request_header(MsgType::kAuth);
  append_bytes(bad_auth, "open");
  EXPECT_EQ(response_status(rpc(fd, bad_auth)),
            static_cast<std::uint64_t>(WireStatus::kUnauthorized));
  EXPECT_EQ(response_status(rpc(fd, put)),
            static_cast<std::uint64_t>(WireStatus::kUnauthorized));

  // The right token flips the connection; the same PUT now lands.
  std::string auth = request_header(MsgType::kAuth);
  append_bytes(auth, "sesame");
  EXPECT_EQ(response_status(rpc(fd, auth)),
            static_cast<std::uint64_t>(WireStatus::kOk));
  EXPECT_EQ(response_status(rpc(fd, put)),
            static_cast<std::uint64_t>(WireStatus::kOk));
  ASSERT_TRUE(server.backing()->get_slice(1).has_value());

  // AUTH is per connection: a fresh socket starts unauthenticated.
  int fd2 = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(fd2, 0);
  io::set_io_timeout(fd2, 2000);
  std::string clear = request_header(MsgType::kClear);
  append_varint(clear, 1);
  EXPECT_EQ(response_status(rpc(fd2, clear)),
            static_cast<std::uint64_t>(WireStatus::kUnauthorized));
  EXPECT_TRUE(server.backing()->get_slice(1).has_value());

  io::close_fd(fd);
  io::close_fd(fd2);
  EXPECT_GE(server.stats().auth_failures, 4u);
}

TEST(RemoteStoreTest, AuthTokenEndToEnd) {
  KvServer server(auth_server_config("sesame"));
  server.start();

  // A token-configured client AUTHs on connect and publishes freely.
  RemoteStore::Config with_token = client_config(server.port());
  with_token.auth_token = "sesame";
  RemoteStore good(with_token);
  EXPECT_EQ(good.put_slice(2, "payload"), 1u);
  EXPECT_EQ(good.stats().connects, 1u);

  // A tokenless client can read but not write.
  RemoteStore anonymous(client_config(server.port()));
  EXPECT_EQ(anonymous.snapshot().size(), 1u);
  EXPECT_THROW(anonymous.put_slice(3, "nope"), dist::StoreUnavailableError);

  // A wrong token fails the connect itself.
  RemoteStore::Config wrong = client_config(server.port());
  wrong.auth_token = "open";
  RemoteStore bad(wrong);
  EXPECT_THROW(bad.put_slice(3, "nope"), dist::StoreUnavailableError);
  EXPECT_EQ(bad.stats().connects, 0u);
}

TEST(RemoteStoreTest, TokenClientAgainstTokenlessServerIsNoOp) {
  // Interop: an unauthenticated server accepts AUTH as a no-op, so one
  // client config works against both deployments.
  KvServer server;
  server.start();
  RemoteStore::Config config = client_config(server.port());
  config.auth_token = "sesame";
  RemoteStore client(config);
  EXPECT_EQ(client.put_slice(1, "payload"), 1u);
  EXPECT_EQ(client.stats().connects, 1u);
}

// --- event loop --------------------------------------------------------------

TEST(KvServerTest, PipelinedRequestsAnswerInOrder) {
  KvServer server;
  server.start();
  int fd = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(fd, 0);
  io::set_io_timeout(fd, 2000);

  // Three PUTs for the same site with ascending versions, one write_all:
  // in-order handling is observable in the returned versions (any
  // reordering would draw a STALE_VERSION).
  std::string burst;
  for (std::uint64_t version = 1; version <= 3; ++version) {
    std::string put = request_header(MsgType::kPutSlice);
    append_varint(put, 6);
    append_varint(put, version);
    append_bytes(put, "v" + std::to_string(version));
    burst += frame(put);
  }
  burst += frame(request_header(MsgType::kHeartbeat));
  ASSERT_TRUE(io::write_all(fd, burst));

  for (std::uint64_t version = 1; version <= 3; ++version) {
    std::optional<std::string> response = io::read_frame(fd, kDefaultMaxFrame);
    ASSERT_TRUE(response.has_value());
    std::size_t offset = 0;
    ASSERT_EQ(read_varint(*response, &offset),
              static_cast<std::uint64_t>(WireStatus::kOk));
    EXPECT_EQ(read_varint(*response, &offset), version);
  }
  std::optional<std::string> last = io::read_frame(fd, kDefaultMaxFrame);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(response_status(*last),
            static_cast<std::uint64_t>(WireStatus::kOk));
  io::close_fd(fd);
}

TEST(KvServerTest, FrameArrivingOneByteAtATimeIsReassembled) {
  KvServer server;
  server.start();
  int fd = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(fd, 0);
  io::set_io_timeout(fd, 2000);

  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 9);
  append_varint(put, 1);
  append_bytes(put, "drip-fed");
  std::string framed = frame(put);
  for (char byte : framed) {
    ASSERT_TRUE(io::write_all(fd, std::string_view(&byte, 1)));
  }
  std::optional<std::string> response = io::read_frame(fd, kDefaultMaxFrame);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response_status(*response),
            static_cast<std::uint64_t>(WireStatus::kOk));
  auto slice = server.backing()->get_slice(9);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->payload, "drip-fed");
  io::close_fd(fd);
}

TEST(KvServerTest, IdleConnectionsAreSwept) {
  KvServer::Config config;
  config.idle_timeout = 100ms;
  KvServer server(config);
  server.start();
  int fd = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(fd, 0);
  io::set_io_timeout(fd, 3000);

  // Never send a byte: the sweep must close us (read_frame sees EOF, not
  // a timeout — the io timeout above is generous on purpose).
  EXPECT_FALSE(io::read_frame(fd, kDefaultMaxFrame).has_value());
  io::close_fd(fd);
  EXPECT_GE(server.stats().dropped_idle, 1u);

  // An active client is never swept: heartbeats keep it alive across
  // several timeout windows.
  RemoteStore client(client_config(server.port()));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(client.heartbeat());
    std::this_thread::sleep_for(60ms);
  }
  EXPECT_EQ(client.stats().connects, 1u);
}

TEST(KvServerTest, SlowReaderIsDroppedWithoutStallingOthers) {
  KvServer::Config config;
  config.max_write_queue = 64 * 1024;
  KvServer server(config);
  server.start();
  server.backing()->put_slice(1, std::string(1024 * 1024, 'x'));

  // Issue many LIST_SLICES (1 MiB responses) without reading: once the
  // kernel buffers fill, the 64 KiB queue cap trips and the connection is
  // dropped — never buffered without bound, never blocking the loop.
  int slow = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(slow, 0);
  io::set_io_timeout(slow, 5000);
  std::string burst;
  for (int i = 0; i < 50; ++i) burst += frame(request_header(MsgType::kListSlices));
  io::write_all(slow, burst);  // may itself fail once the server drops us

  // A well-behaved client on the same loop keeps getting served while the
  // slow one drains/drops.
  RemoteStore client(client_config(server.port()));
  EXPECT_TRUE(client.heartbeat());
  EXPECT_EQ(client.snapshot().size(), 1u);

  // Read only once the server has dropped the slow connection. A reader
  // that starts earlier can keep up: receive-buffer autotuning grows the
  // socket buffer until each 1 MiB response fits, and the cap never trips.
  eventually([&] { return server.stats().dropped_backpressure >= 1; });

  // The slow reader's stream ends early: fewer than the 50 requested
  // frames arrive before EOF.
  int delivered = 0;
  while (io::read_frame(slow, kDefaultMaxFrame).has_value()) ++delivered;
  EXPECT_LT(delivered, 50);
  io::close_fd(slow);
  EXPECT_GE(server.stats().dropped_backpressure, 1u);
  EXPECT_TRUE(client.heartbeat());
}

// --- high availability (docs/HA.md) ------------------------------------------

/// A replica of the server on `primary_port`, with a pinned reconnect
/// seed.
KvServer::Config replica_config(std::uint16_t primary_port) {
  KvServer::Config config;
  config.role = KvServer::Role::kReplica;
  config.primary = "127.0.0.1:" + std::to_string(primary_port);
  config.replication_backoff_seed = 7;
  return config;
}

TEST(ProtocolTest, DocumentedReplicateExample) {
  // docs/WIRE_PROTOCOL.md §13 worked example: a replica with nothing yet
  // (since generation 0, version 0) subscribes to a fresh generation-7
  // store. The answer is the LIST_SLICES_SINCE shape: generation 7, store
  // version 1, no changed slices, no live sites — and the connection then
  // becomes a server-push stream of the same shape.
  dist::Store::Config backing_config;
  backing_config.generation = 7;
  KvServer server(KvServer::Config{},
                  std::make_shared<dist::Store>(backing_config));

  std::string request = request_header(MsgType::kReplicate);
  append_varint(request, 0);  // since_generation
  append_varint(request, 0);  // since_version
  EXPECT_EQ(hex(request), "01 0b 00 00");
  EXPECT_EQ(hex(server.handle_request(request)), "00 07 01 00 00");
}

TEST(ProtocolTest, DocumentedPromoteExample) {
  // docs/WIRE_PROTOCOL.md §13 worked example, pinned on a server that is
  // already primary: PROMOTE is idempotent there, so the generation-7
  // answer is deterministic. (On a replica the same exchange bumps the
  // generation to a fresh random value first.)
  dist::Store::Config backing_config;
  backing_config.generation = 7;
  KvServer server(KvServer::Config{},
                  std::make_shared<dist::Store>(backing_config));

  std::string request = request_header(MsgType::kPromote);
  EXPECT_EQ(hex(request), "01 0c");
  EXPECT_EQ(hex(server.handle_request(request)), "00 07");
  EXPECT_EQ(server.role(), KvServer::Role::kPrimary);
}

TEST(ProtocolTest, DocumentedNotPrimaryExample) {
  // docs/WIRE_PROTOCOL.md §13 worked example: the §1 PUT_SLICE sent to a
  // replica of 127.0.0.1:7001 draws NOT_PRIMARY (9) + the primary's
  // address as length-delimited bytes.
  KvServer::Config config;
  config.role = KvServer::Role::kReplica;
  config.primary = "127.0.0.1:7001";
  KvServer server(config);

  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 2);
  append_varint(put, 3);
  append_bytes(put,
               dist::encode_statuses({status(7, {{1, 1}}, {{1, 1}, {2, 0}})}));
  std::string response = server.handle_request(put);
  EXPECT_EQ(hex(response),
            "09 0e 31 32 37 2e 30 2e 30 2e 31 3a 37 30 30 31");

  std::size_t offset = 0;
  EXPECT_EQ(read_varint(response, &offset),
            static_cast<std::uint64_t>(WireStatus::kNotPrimary));
  EXPECT_EQ(read_bytes(response, &offset), "127.0.0.1:7001");
  expect_end(response, offset);
  EXPECT_GE(server.stats().not_primary, 1u);
}

TEST(ReplicationTest, ReplicaMirrorsPrimaryAndServesReads) {
  KvServer primary;
  primary.start();
  primary.backing()->put_slice(1, "slice-one");  // version 1
  KvServer replica(replica_config(primary.port()));
  replica.start();

  ASSERT_TRUE(eventually([&] {
    auto slice = replica.backing()->get_slice(1);
    return slice.has_value() && slice->payload == "slice-one";
  }));
  // The replicated slice keeps the primary's per-slice version — the
  // fencing invariant leans on versions never being re-minted.
  EXPECT_EQ(replica.backing()->get_slice(1)->version, 1u);

  // Later writes stream through, and removals follow via the live list.
  primary.backing()->put_slice(2, "slice-two");
  ASSERT_TRUE(eventually(
      [&] { return replica.backing()->get_slice(2).has_value(); }));
  primary.backing()->remove_slice(1);
  ASSERT_TRUE(eventually(
      [&] { return !replica.backing()->get_slice(1).has_value(); }));

  // Reads are served by the replica itself; INSPECT reports the role and
  // the link.
  RemoteStore reader(client_config(replica.port()));
  EXPECT_EQ(reader.snapshot().size(), 1u);
  InspectInfo info = reader.inspect();
  EXPECT_EQ(info.role, 1u);
  EXPECT_EQ(info.primary, "127.0.0.1:" + std::to_string(primary.port()));

  KvServer::Stats stats = replica.stats();
  EXPECT_EQ(stats.role, 1u);
  EXPECT_GE(stats.replication_frames, 1u);
  replica.stop();
  primary.stop();
}

TEST(ReplicationTest, MutationsOnReplicaRedirectAndTheClientFollows) {
  KvServer primary;
  primary.start();
  KvServer replica(replica_config(primary.port()));
  replica.start();

  // The client dials the replica first: its put draws NOT_PRIMARY and
  // must transparently land on the primary after one resend.
  RemoteStore::Config config = client_config(replica.port());
  config.endpoints = {Endpoint{"127.0.0.1", replica.port()},
                      Endpoint{"127.0.0.1", primary.port()}};
  config.backoff_seed = 5;
  RemoteStore client(config);

  EXPECT_EQ(client.put_slice(3, "via-redirect"), 1u);
  auto slice = primary.backing()->get_slice(3);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->payload, "via-redirect");

  RemoteStore::Stats stats = client.stats();
  EXPECT_GE(stats.redirects, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(replica.stats().not_primary, 1u);

  // The follow-up goes straight to the primary: no second redirect.
  client.put_slice(3, "again");
  EXPECT_EQ(client.stats().redirects, stats.redirects);
  EXPECT_EQ(client.preferred_endpoint(), 1u);
  replica.stop();
  primary.stop();
}

TEST(ReplicationTest, PromoteBumpsGenerationFencesAndAcceptsWrites) {
  KvServer primary;
  primary.start();
  primary.backing()->put_slice(1, "payload");
  KvServer replica(replica_config(primary.port()));
  replica.start();
  ASSERT_TRUE(eventually(
      [&] { return replica.backing()->get_slice(1).has_value(); }));

  std::uint64_t before = replica.backing()->generation();
  primary.stop();

  RemoteStore control(client_config(replica.port()));
  std::uint64_t promoted = control.promote();
  EXPECT_NE(promoted, before);
  EXPECT_EQ(replica.role(), KvServer::Role::kPrimary);
  EXPECT_EQ(replica.backing()->generation(), promoted);

  // The replicated slice survives promotion — failover fences it behind
  // the fresh generation instead of discarding it — and mutations are
  // accepted from here on.
  EXPECT_TRUE(replica.backing()->get_slice(1).has_value());
  control.put_slice(2, "after-failover");
  EXPECT_TRUE(replica.backing()->get_slice(2).has_value());
  replica.stop();
}

TEST(ReplicationTest, DeltaPublishStraddlingPromotionFallsBackToFull) {
  // The in-flight-delta failover case: a Site that has been delta-
  // publishing against the old primary must not wedge in a BASE_MISMATCH
  // loop when its next delta lands on a just-promoted server that never
  // replicated its base — the publish falls back to the full slice within
  // the same call, and no blocked status is lost.
  KvServer old_primary;
  old_primary.start();
  KvServer::Config standby_config;
  standby_config.role = KvServer::Role::kReplica;  // primary unset: no
  // replication link, so the promoted store is guaranteed to miss the base
  KvServer standby(standby_config);
  standby.start();

  RemoteStore::Config client = client_config(old_primary.port());
  client.endpoints = {Endpoint{"127.0.0.1", old_primary.port()},
                      Endpoint{"127.0.0.1", standby.port()}};
  client.backoff_seed = 9;
  auto store = std::make_shared<RemoteStore>(client);

  dist::Site::Config site_config;
  site_config.id = 4;
  site_config.delta_min_bytes = 1;  // every follow-up publish tries a delta
  dist::Site site(site_config, store);

  // Publish 1 (full) and 2 (delta) against the old primary.
  for (TaskId task = 1; task <= 8; ++task) {
    site.verifier().state().set_blocked(status(task, {{1, 1}}, {{1, 1}}));
  }
  ASSERT_TRUE(site.publish_now());
  site.verifier().state().set_blocked(status(9, {{2, 1}}, {{2, 1}}));
  ASSERT_TRUE(site.publish_now());
  EXPECT_EQ(site.stats().delta_publishes, 1u);

  // Failover: the old primary dies, the standby is promoted. The dead
  // connection is severed via heartbeat (false, and opens the backoff
  // window) so the next publish reconnects transparently through the
  // endpoint walk instead of surfacing the mid-exchange death — that is
  // the window where a delta can straddle the promotion.
  old_primary.stop();
  RemoteStore control(client_config(standby.port()));
  control.promote();
  EXPECT_FALSE(store->heartbeat());
  std::this_thread::sleep_for(30ms);  // past backoff_max

  // Publish 3 straddles the promotion: its delta base does not exist on
  // the promoted server. One call: delta -> BASE_MISMATCH -> full slice.
  site.verifier().state().set_blocked(status(10, {{3, 1}}, {{3, 1}}));
  ASSERT_TRUE(site.publish_now());
  EXPECT_EQ(site.stats().publishes, 3u);
  EXPECT_EQ(site.stats().delta_publishes, 1u);  // the straddler fell back
  auto slice = standby.backing()->get_slice(4);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(dist::decode_statuses(slice->payload).size(), 10u);

  // The next publish re-bases its delta cleanly against the new primary.
  site.verifier().state().set_blocked(status(11, {{4, 1}}, {{4, 1}}));
  ASSERT_TRUE(site.publish_now());
  EXPECT_EQ(site.stats().delta_publishes, 2u);
  standby.stop();
}

TEST(RemoteStoreTest, DecorrelatedJitterBackoffIsSeededAndBounded) {
  KvServer server;
  server.start();
  RemoteStore::Config config = client_config(server.port());
  config.backoff_seed = 42;
  RemoteStore client(config);
  ASSERT_TRUE(client.heartbeat());
  EXPECT_EQ(client.stats().next_backoff_ms, 0u);
  server.stop();

  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW((void)client.snapshot(), dist::StoreUnavailableError);
    std::uint64_t delay = client.stats().next_backoff_ms;
    EXPECT_GE(delay, 5u);   // backoff_initial
    EXPECT_LE(delay, 20u);  // backoff_max caps the jitter
    std::this_thread::sleep_for(25ms);  // step past the window so every
                                        // iteration is a real attempt
  }
  RemoteStore::Stats stats = client.stats();
  EXPECT_GE(stats.reconnect_attempts, 3u);
  EXPECT_GE(stats.failures, 1u);
}

TEST(NetConfigTest, ParsesMultiEndpointUrlList) {
  std::vector<Endpoint> endpoints =
      parse_tcp_endpoints("tcp://10.0.0.1:7000,tcp://10.0.0.2:7001");
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].host, "10.0.0.1");
  EXPECT_EQ(endpoints[0].port, 7000u);
  EXPECT_EQ(endpoints[1].host, "10.0.0.2");
  EXPECT_EQ(endpoints[1].port, 7001u);
  EXPECT_THROW(parse_tcp_endpoints("tcp://a:1,"), std::invalid_argument);
  EXPECT_THROW(parse_tcp_endpoints(""), std::invalid_argument);

  auto store = remote_store_from_url("tcp://127.0.0.1:7000,tcp://127.0.0.1:7001");
  ASSERT_EQ(store->endpoints().size(), 2u);
  EXPECT_EQ(store->config().host, "127.0.0.1");
  EXPECT_EQ(store->config().port, 7000u);
}

// --- WATCH_EVENTS + request correlation (docs/WIRE_PROTOCOL.md §14) ----------

TEST(ProtocolTest, RequestIdTrailerSemantics) {
  // End-of-body = 0 (the byte-identical old dialect), one varint = the
  // id, anything further is trailing garbage like it always was.
  std::string none;
  std::size_t offset = 0;
  EXPECT_EQ(read_request_id(none, &offset), 0u);

  std::string one;
  append_varint(one, 200);
  offset = 0;
  EXPECT_EQ(read_request_id(one, &offset), 200u);

  std::string two;
  append_varint(two, 200);
  append_varint(two, 9);
  offset = 0;
  EXPECT_THROW((void)read_request_id(two, &offset), dist::CodecError);
}

TEST(ProtocolTest, DocumentedRequestIdExample) {
  // docs/WIRE_PROTOCOL.md §14: HEARTBEAT stamped with request id 5 — one
  // extra varint after the §5 body; the answer is unchanged.
  KvServer server;
  bool authenticated = false;
  std::uint64_t request_id = 0;
  std::string heartbeat = request_header(MsgType::kHeartbeat);
  append_varint(heartbeat, 5);
  EXPECT_EQ(hex(heartbeat), "01 04 05");
  EXPECT_EQ(hex(server.handle_request(heartbeat, &authenticated, &request_id)),
            "00 01");
  EXPECT_EQ(request_id, 5u);

  // The §1 PUT_SLICE with request id 200 (varint c8 01).
  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 2);
  append_varint(put, 3);
  append_bytes(put,
               dist::encode_statuses({status(7, {{1, 1}}, {{1, 1}, {2, 0}})}));
  append_varint(put, 200);
  EXPECT_EQ(hex(put), "01 01 02 03 0a 01 07 01 01 01 02 01 01 02 00 c8 01");
  request_id = 0;
  EXPECT_EQ(hex(server.handle_request(put, &authenticated, &request_id)),
            "00 03");
  EXPECT_EQ(request_id, 200u);
}

TEST(ProtocolTest, DocumentedWatchSubscribeExample) {
  // docs/WIRE_PROTOCOL.md §14: subscribe to every category (mask 7); the
  // answer echoes the effective mask.
  KvServer server;
  std::string subscribe = request_header(MsgType::kWatchEvents);
  append_varint(subscribe, kWatchAll);
  EXPECT_EQ(hex(subscribe), "01 0d 07");
  EXPECT_EQ(hex(server.handle_request(subscribe)), "00 07");

  // Unknown high bits are masked off — the echo shows what is effective.
  std::string extra = request_header(MsgType::kWatchEvents);
  append_varint(extra, 0xff);
  EXPECT_EQ(hex(server.handle_request(extra)), "00 07");

  // A mask selecting no category at all is a bad request.
  std::string none = request_header(MsgType::kWatchEvents);
  append_varint(none, 8);
  EXPECT_EQ(hex(server.handle_request(none)), "01");
}

TEST(KvServerTest, WatchEventsStreamOverTcp) {
  KvServer::Config config;
  config.event_clock = [] { return std::uint64_t{42}; };
  KvServer server(config);
  server.start();

  WatchClient::Config watch_config;
  watch_config.port = server.port();
  watch_config.io_timeout = 2000ms;
  WatchClient watch(std::move(watch_config));
  EXPECT_EQ(watch.mask(), kWatchAll);

  RemoteStore client(client_config(server.port()));
  std::string payload = dist::encode_statuses({status(7, {{1, 1}}, {{1, 1}})});
  client.put_slice(1, payload);
  client.remove_slice(1);

  std::vector<std::string> lines;
  bool removed = false;
  while (!removed) {
    std::optional<std::string> line = watch.next();
    ASSERT_TRUE(line.has_value()) << "stream ended before slice_remove";
    removed = line->find("\"event\":\"slice_remove\"") != std::string::npos;
    lines.push_back(*std::move(line));
  }
  auto contains = [&lines](const std::string& needle) {
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  // The client's connect arrived by push, and the commit line is
  // byte-exact against the armus.kv.event.v1 schema (clock pinned at 42).
  EXPECT_TRUE(contains("{\"v\":1,\"event\":\"conn_accept\",\"ts_ns\":42"));
  EXPECT_TRUE(contains(
      "{\"v\":1,\"event\":\"slice_commit\",\"ts_ns\":42,\"site\":1,"
      "\"version\":1,\"blocked\":1,\"bytes\":" +
      std::to_string(payload.size()) + '}'));
  EXPECT_TRUE(contains(
      "{\"v\":1,\"event\":\"slice_remove\",\"ts_ns\":42,\"site\":1}"));

  // Store outage and recovery are transition events: one line each way,
  // however many requests fail inside the outage.
  server.backing()->set_available(false);
  EXPECT_THROW((void)client.snapshot(), dist::StoreUnavailableError);
  EXPECT_THROW((void)client.snapshot(), dist::StoreUnavailableError);
  server.backing()->set_available(true);
  ASSERT_TRUE(eventually([&client] {
    try {
      return client.snapshot().empty();
    } catch (const dist::StoreUnavailableError&) {
      return false;
    }
  }));
  int down_events = 0;
  bool recovered = false;
  while (!recovered) {
    std::optional<std::string> line = watch.next();
    ASSERT_TRUE(line.has_value()) << "stream ended before recovery event";
    if (line->find("\"event\":\"store_outage\"") == std::string::npos) continue;
    if (line->find("\"down\":true") != std::string::npos) ++down_events;
    if (line->find("\"down\":false") != std::string::npos) recovered = true;
  }
  EXPECT_EQ(down_events, 1);
  server.stop();
}

TEST(KvServerTest, WatchMaskFiltersCategoriesAndSurvivesIdleSweep) {
  KvServer::Config config;
  config.idle_timeout = 100ms;
  KvServer server(config);
  server.start();

  WatchClient::Config watch_config;
  watch_config.port = server.port();
  watch_config.mask = kWatchSlices;
  watch_config.io_timeout = 2000ms;
  WatchClient watch(std::move(watch_config));
  EXPECT_EQ(watch.mask(), kWatchSlices);

  // Lifecycle noise (a connect and its drop) the slices-only mask must
  // filter out, then a commit that must arrive as the first line.
  int fd = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(fd, 0);
  io::close_fd(fd);
  std::string put = request_header(MsgType::kPutSlice);
  append_varint(put, 3);
  append_varint(put, 1);
  append_bytes(put, "opaque");
  ASSERT_EQ(response_status(server.handle_request(put)),
            static_cast<std::uint64_t>(WireStatus::kOk));
  std::optional<std::string> line = watch.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"event\":\"slice_commit\""), std::string::npos);
  EXPECT_EQ(line->find("conn_accept"), std::string::npos);

  // The subscription outlives the idle sweep: three windows of inbound
  // silence, and the same connection still delivers.
  std::this_thread::sleep_for(350ms);
  std::string put2 = request_header(MsgType::kPutSlice);
  append_varint(put2, 3);
  append_varint(put2, 2);
  append_bytes(put2, "opaque");
  ASSERT_EQ(response_status(server.handle_request(put2)),
            static_cast<std::uint64_t>(WireStatus::kOk));
  line = watch.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"version\":2"), std::string::npos);
  server.stop();
}

TEST(KvServerTest, StalledWatcherIsDroppedWhileLiveClientKeepsSucceeding) {
  KvServer::Config config;
  config.max_write_queue = 32 * 1024;
  KvServer server(config);
  server.start();

  // A watcher that subscribes and then never reads its socket.
  int stalled = io::connect_to("127.0.0.1", server.port(), 500);
  ASSERT_GE(stalled, 0);
  io::set_io_timeout(stalled, 5000);
  std::string subscribe = request_header(MsgType::kWatchEvents);
  append_varint(subscribe, kWatchAll);
  ASSERT_EQ(response_status(rpc(stalled, subscribe)),
            static_cast<std::uint64_t>(WireStatus::kOk));

  // Pump commits until the push queue overflows the 32 KiB cap: the
  // kernel socket buffers absorb the first bursts, then the ordinary
  // flush() backpressure path drops the subscriber.
  RemoteStore client(client_config(server.port()));
  std::uint64_t version = 0;
  auto deadline = std::chrono::steady_clock::now() + 20s;
  while (server.stats().watch_dropped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::string put = request_header(MsgType::kPutSlice);
    append_varint(put, 5);
    append_varint(put, ++version);
    append_bytes(put, "opaque");
    ASSERT_EQ(response_status(server.handle_request(put)),
              static_cast<std::uint64_t>(WireStatus::kOk));
    if (version % 256 == 0) {
      // The live client keeps succeeding throughout the storm.
      EXPECT_TRUE(client.heartbeat());
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_GE(server.stats().watch_dropped, 1u);
  EXPECT_GE(server.stats().dropped_backpressure, 1u);
  EXPECT_TRUE(client.heartbeat());
  EXPECT_EQ(client.snapshot().size(), 1u);

  // The stalled subscriber's stream just ends; the drop is visible in
  // STATS as kv.watch_dropped.
  while (io::read_frame(stalled, kDefaultMaxFrame).has_value()) {
  }
  io::close_fd(stalled);
  EXPECT_NE(client.stats_json().find("\"kv.watch_dropped\":1"),
            std::string::npos);
  server.stop();
}

TEST(KvServerTest, PerOpcodeTimingAndRequestIdJoinAcrossClientAndServer) {
  KvServer::Config config;
  config.slow_request_us = 1;  // any request doing real work is "slow"
  config.event_clock = [] { return std::uint64_t{42}; };
  KvServer server(config);
  server.start();

  WatchClient::Config watch_config;
  watch_config.port = server.port();
  watch_config.mask = kWatchHealth;
  watch_config.io_timeout = 2000ms;
  WatchClient watch(std::move(watch_config));

  // One put: the client stamps request id 1 and times the exchange; the
  // server times the same request under kv.op.put_slice.latency_us and
  // emits a slow_request event carrying the id — the correlation join.
  RemoteStore client(client_config(server.port()));
  client.put_slice(9, std::string(256 * 1024, 'x'));
  EXPECT_EQ(client.last_request_id(), 1u);

  std::string slow_line;
  for (int i = 0; i < 64 && slow_line.empty(); ++i) {
    std::optional<std::string> line = watch.next();
    ASSERT_TRUE(line.has_value()) << "no slow_request event arrived";
    if (line->find("\"event\":\"slow_request\"") != std::string::npos &&
        line->find("\"op\":\"put_slice\"") != std::string::npos) {
      slow_line = *line;
    }
  }
  ASSERT_FALSE(slow_line.empty());
  EXPECT_NE(slow_line.find("\"request_id\":1"), std::string::npos);

  // Both halves of the join hold a histogram of the same exchange.
  std::string server_json = client.stats_json();
  EXPECT_NE(server_json.find("\"kv.op.put_slice.latency_us\":{\"count\":1"),
            std::string::npos);
  std::string client_json = client.op_registry().snapshot_json();
  EXPECT_NE(client_json.find("\"op.put_slice.latency_us\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(client_json.find("\"op.stats.latency_us\""), std::string::npos);
  server.stop();
}

TEST(RemoteStoreTest, RequestIdsOffSpeaksTheOldDialectByteForByte) {
  // With Config::request_ids off, request bodies are byte-identical to
  // the pre-trailer protocol — pinned by exercising a server that would
  // reject any stray trailing varint beyond the first.
  KvServer server;
  server.start();
  RemoteStore::Config config = client_config(server.port());
  config.request_ids = false;
  RemoteStore client(config);
  EXPECT_EQ(client.put_slice(4, "payload"), 1u);
  EXPECT_TRUE(client.heartbeat());
  EXPECT_EQ(client.last_request_id(), 0u);
  server.stop();
}

TEST(ReplicationTest, TwoReplicasFanOutConvergeAndSurviveOneDying) {
  KvServer primary;
  primary.start();
  primary.backing()->put_slice(1, "one");

  KvServer replica_a(replica_config(primary.port()));
  KvServer replica_b(replica_config(primary.port()));
  replica_a.start();
  replica_b.start();

  // Both REPLICATE subscriptions converge on the commit and serve reads.
  ASSERT_TRUE(eventually([&] {
    return replica_a.backing()->get_slice(1).has_value() &&
           replica_b.backing()->get_slice(1).has_value();
  }));
  RemoteStore reader_a(client_config(replica_a.port()));
  RemoteStore reader_b(client_config(replica_b.port()));
  EXPECT_EQ(reader_a.snapshot().size(), 1u);
  EXPECT_EQ(reader_b.snapshot().size(), 1u);

  // Killing one replica must not disturb the other's stream: the
  // survivor keeps applying fresh commits and serving them.
  replica_a.stop();
  primary.backing()->put_slice(2, "two");
  ASSERT_TRUE(eventually(
      [&] { return replica_b.backing()->get_slice(2).has_value(); }));
  EXPECT_EQ(reader_b.snapshot().size(), 2u);
  KvServer::Stats stats = replica_b.stats();
  EXPECT_EQ(stats.role, 1u);
  EXPECT_GE(stats.replication_frames, 2u);
  replica_b.stop();
  primary.stop();
}

TEST(ReplicationTest, WatchHealthStreamsReplicationTransitionsAndPromotion) {
  KvServer primary;
  primary.start();
  std::uint16_t primary_port = primary.port();
  KvServer replica(replica_config(primary_port));
  replica.start();
  ASSERT_TRUE(eventually([&] { return replica.stats().replication_frames > 0; }));

  // Watch the *replica's* health stream. Transition events are only
  // built while someone watches, so drive a fresh down→up→promote cycle.
  WatchClient::Config watch_config;
  watch_config.port = replica.port();
  watch_config.mask = kWatchHealth;
  watch_config.io_timeout = 5000ms;
  WatchClient watch(std::move(watch_config));

  primary.stop();  // the stream dies → one replication connected:false
  std::optional<std::string> line = watch.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"event\":\"replication\",\"ts_ns\":"),
            std::string::npos);
  EXPECT_NE(line->find("\"connected\":false"), std::string::npos);

  // A new primary on the same port: the subscription comes back up.
  KvServer::Config revived_config;
  revived_config.port = primary_port;
  KvServer revived(revived_config);
  revived.start();
  line = watch.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"connected\":true"), std::string::npos);

  // Promotion emits the generation now fencing the store.
  RemoteStore control(client_config(replica.port()));
  std::uint64_t generation = control.promote();
  bool promoted = false;
  for (int i = 0; i < 8 && !promoted; ++i) {
    line = watch.next();
    ASSERT_TRUE(line.has_value()) << "no promoted event arrived";
    promoted = line->find("\"event\":\"promoted\",\"ts_ns\":") !=
                   std::string::npos &&
               line->find("\"generation\":" + std::to_string(generation)) !=
                   std::string::npos;
  }
  EXPECT_TRUE(promoted);
  replica.stop();
  revived.stop();
}

// --- wire fuzzing ------------------------------------------------------------

TEST(KvServerTest, WireFuzzSmokeHoldsFramingContract) {
  // Deterministic small run of the CI wire fuzzer (armus-fuzz --wire):
  // mutated frames draw clean errors or drops, the server stays live, and
  // LIST_SLICES parses afterwards. Fixed seed = reproducible bytes.
  KvServer server;
  server.start();
  fuzz::WireOptions options;
  options.seed = 1;
  options.runs = 150;
  fuzz::WireStats stats = fuzz_wire(server, options);
  for (const fuzz::Violation& violation : stats.violations) {
    ADD_FAILURE() << violation.what;
  }
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.mutants, 150u);
  EXPECT_GT(stats.responses, 0u);
  EXPECT_GT(stats.error_responses, 0u);
}

}  // namespace
}  // namespace armus::net
