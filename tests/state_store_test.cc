// Tests for the pluggable StateStore API: a conformance suite for the
// process-local implementation (DependencyState), codec round-trip property
// tests, one Verifier per store, and cross-verifier deadlock detection
// through the one sharing path (dist::Site slices).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/dependency_state.h"
#include "core/verifier.h"
#include "dist/codec.h"
#include "dist/site.h"
#include "util/rng.h"

namespace armus {
namespace {

BlockedStatus status(TaskId task, std::vector<Resource> waits,
                     std::vector<RegEntry> registered) {
  BlockedStatus s;
  s.task = task;
  s.waits = std::move(waits);
  s.registered = std::move(registered);
  return s;
}

// --- StateStore conformance ---------------------------------------------------

/// Factory per implementation; the typed suite below runs every case
/// against each (DependencyState is the only one in the library).
struct LocalStoreFactory {
  std::shared_ptr<StateStore> make() {
    return std::make_shared<DependencyState>();
  }
};

template <typename Factory>
class StateStoreConformanceTest : public ::testing::Test {
 protected:
  Factory factory_;
};

using StoreFactories = ::testing::Types<LocalStoreFactory>;
TYPED_TEST_SUITE(StateStoreConformanceTest, StoreFactories);

TYPED_TEST(StateStoreConformanceTest, StartsEmpty) {
  auto store = this->factory_.make();
  EXPECT_EQ(store->blocked_count(), 0u);
  EXPECT_TRUE(store->snapshot().empty());
}

TYPED_TEST(StateStoreConformanceTest, SnapshotIsSortedByTask) {
  auto store = this->factory_.make();
  store->set_blocked(status(30, {{3, 1}}, {{3, 0}}));
  store->set_blocked(status(10, {{1, 1}}, {}));
  store->set_blocked(status(20, {{2, 2}}, {{2, 1}}));
  auto snapshot = store->snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].task, 10u);
  EXPECT_EQ(snapshot[1].task, 20u);
  EXPECT_EQ(snapshot[2].task, 30u);
  EXPECT_EQ(snapshot[1].waits, (std::vector<Resource>{{2, 2}}));
  EXPECT_EQ(snapshot[1].registered, (std::vector<RegEntry>{{2, 1}}));
}

TYPED_TEST(StateStoreConformanceTest, SetBlockedReplacesSameTask) {
  auto store = this->factory_.make();
  store->set_blocked(status(1, {{1, 1}}, {}));
  store->set_blocked(status(1, {{2, 5}}, {{2, 4}}));
  auto snapshot = store->snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].waits, (std::vector<Resource>{{2, 5}}));
  EXPECT_EQ(store->blocked_count(), 1u);
}

TYPED_TEST(StateStoreConformanceTest, ClearBlockedRemovesOnlyThatTask) {
  auto store = this->factory_.make();
  store->set_blocked(status(1, {{1, 1}}, {}));
  store->set_blocked(status(2, {{2, 1}}, {}));
  store->clear_blocked(1);
  store->clear_blocked(99);  // absent: no-op
  auto snapshot = store->snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].task, 2u);
}

TYPED_TEST(StateStoreConformanceTest, ClearEmptiesTheStore) {
  auto store = this->factory_.make();
  store->set_blocked(status(1, {{1, 1}}, {}));
  store->set_blocked(status(2, {{2, 1}}, {}));
  store->clear();
  EXPECT_EQ(store->blocked_count(), 0u);
  EXPECT_TRUE(store->snapshot().empty());
}

TYPED_TEST(StateStoreConformanceTest, TwoStoresShareTheMergedView) {
  // Two stores never merge: statuses are shared only as dist::Site slices.
  auto a = this->factory_.make();
  auto b = this->factory_.make();
  a->set_blocked(status(1, {{1, 1}}, {}));
  b->set_blocked(status(2, {{2, 1}}, {}));
  EXPECT_EQ(a->snapshot().size(), 1u);
  EXPECT_EQ(b->blocked_count(), 1u);
  // clear() only drops the clearing store's own tasks.
  a->clear();
  auto remaining = b->snapshot();
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].task, 2u);
}

TYPED_TEST(StateStoreConformanceTest, VersionAdvancesOnlyOnRealChanges) {
  auto store = this->factory_.make();
  std::uint64_t v0 = store->version();
  EXPECT_NE(v0, StateStore::kUnversioned);

  store->set_blocked(status(1, {{1, 1}}, {}));
  std::uint64_t v1 = store->version();
  EXPECT_GT(v1, v0);

  // Identical re-publish (the avoidance recheck pattern): no epoch change,
  // so periodic scanners keep skipping.
  store->set_blocked(status(1, {{1, 1}}, {}));
  EXPECT_EQ(store->version(), v1);
  store->clear_blocked(99);  // absent: no change
  EXPECT_EQ(store->version(), v1);

  store->set_blocked(status(1, {{1, 2}}, {}));
  std::uint64_t v2 = store->version();
  EXPECT_GT(v2, v1);
  store->clear_blocked(1);
  EXPECT_GT(store->version(), v2);
}

TYPED_TEST(StateStoreConformanceTest, VersionSeesOtherPublishersWhenShared) {
  auto a = this->factory_.make();
  auto b = this->factory_.make();
  a->set_blocked(status(1, {{1, 1}}, {}));
  std::uint64_t va = a->version();
  b->set_blocked(status(2, {{2, 1}}, {}));
  EXPECT_EQ(a->version(), va);  // independent stores: b's publish is not a's
}

// --- codec property tests -----------------------------------------------------

std::vector<BlockedStatus> random_batch(util::Xoshiro256& rng) {
  std::vector<BlockedStatus> batch;
  std::size_t count = rng.below(12);
  for (std::size_t i = 0; i < count; ++i) {
    BlockedStatus s;
    // Mix small ids (1-byte varints) with huge ones (full 10-byte varints).
    s.task = rng.chance(0.2) ? rng() : 1 + rng.below(300);
    std::size_t nwaits = rng.below(4);
    for (std::size_t w = 0; w < nwaits; ++w) {
      s.waits.push_back({1 + rng.below(40), rng.chance(0.1) ? rng() : rng.below(9)});
    }
    std::size_t nregs = rng.below(5);
    for (std::size_t r = 0; r < nregs; ++r) {
      s.registered.push_back({1 + rng.below(40), rng.below(9)});
    }
    batch.push_back(std::move(s));
  }
  return batch;
}

TEST(CodecPropertyTest, RandomBatchesRoundTrip) {
  util::Xoshiro256 rng(2015);
  for (int iter = 0; iter < 200; ++iter) {
    auto batch = random_batch(rng);
    std::string bytes = dist::encode_statuses(batch);
    EXPECT_EQ(dist::decode_statuses(bytes), batch) << "iteration " << iter;
  }
}

TEST(CodecPropertyTest, EveryStrictPrefixIsRejected) {
  // The decoder knows exactly how many fields follow from the embedded
  // counts, so no strict prefix of a valid encoding may parse.
  util::Xoshiro256 rng(4099);
  for (int iter = 0; iter < 20; ++iter) {
    auto batch = random_batch(rng);
    if (batch.empty()) continue;
    std::string bytes = dist::encode_statuses(batch);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_THROW(dist::decode_statuses(std::string_view(bytes).substr(0, len)),
                   dist::CodecError)
          << "prefix length " << len << " of " << bytes.size();
    }
  }
}

TEST(CodecPropertyTest, AppendedGarbageIsRejected) {
  util::Xoshiro256 rng(77);
  auto batch = random_batch(rng);
  std::string bytes = dist::encode_statuses(batch);
  bytes.push_back('\0');
  EXPECT_THROW(dist::decode_statuses(bytes), dist::CodecError);
}

// --- one Verifier per store; sharing through site slices ---------------------

/// Half a 2-task cycle per verifier; neither half alone is cyclic.
void plant_split_cycle(Verifier& a, Verifier& b) {
  a.state().set_blocked(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
  b.state().set_blocked(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
}

VerifierConfig unscanned_config(std::shared_ptr<StateStore> store) {
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.scanner_enabled = false;
  config.store = std::move(store);
  return config;
}

TEST(SharedStateTest, SecondVerifierOnAHeldStoreThrows) {
  auto store = std::make_shared<DependencyState>();
  Verifier a(unscanned_config(store));
  EXPECT_THROW(Verifier{unscanned_config(store)}, std::invalid_argument);
  // The refused claim leaves a's hold, and a's use of the store, intact.
  EXPECT_THROW(Verifier{unscanned_config(store)}, std::invalid_argument);
  a.before_block(status(1, {{1, 1}}, {{1, 0}}));
  EXPECT_EQ(store->blocked_count(), 1u);
}

TEST(SharedStateTest, StoreIsClaimableAgainAfterItsVerifierIsDestroyed) {
  auto store = std::make_shared<DependencyState>();
  { Verifier a(unscanned_config(store)); }
  Verifier b(unscanned_config(store));
  EXPECT_EQ(b.store().get(), store.get());
}

TEST(SharedStateTest, ScannerDetectsCrossVerifierCycle) {
  // Verifiers see each other's tasks as dist::Site slices: every site's
  // periodic checker finds the cycle split across two verifiers.
  std::mutex m;
  std::condition_variable cv;
  std::vector<DeadlockReport> got;
  dist::Cluster::Config config;
  config.site_count = 2;
  config.publish_period = std::chrono::milliseconds(5);
  config.check_period = std::chrono::milliseconds(5);
  config.on_deadlock = [&](dist::SiteId, const DeadlockReport& r) {
    std::lock_guard<std::mutex> lock(m);
    got.push_back(r);
    cv.notify_all();
  };
  dist::Cluster cluster(config);
  plant_split_cycle(cluster.site(0).verifier(), cluster.site(1).verifier());
  cluster.start();

  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(2),
                          [&] { return got.size() >= 2; }));
  EXPECT_EQ(got[0].tasks, (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(got[1].tasks, (std::vector<TaskId>{1, 2}));
}

TEST(SharedStateTest, UnblockByOneVerifierVisibleToTheOther) {
  auto store = std::make_shared<dist::Store>();
  dist::Site::Config ca, cb;
  ca.id = 0;
  cb.id = 1;
  dist::Site a(ca, store), b(cb, store);

  // a blocks and unblocks task 1; b then blocks task 2, the other half of
  // the cycle. b's check sees a's unblock, so there is no cycle.
  a.verifier().before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
  ASSERT_TRUE(a.publish_now());
  a.verifier().after_unblock(1);
  ASSERT_TRUE(a.publish_now());
  b.verifier().before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
  ASSERT_TRUE(b.publish_now());
  ASSERT_TRUE(b.check_now());
  EXPECT_TRUE(b.reported().empty());

  // a blocks task 1 again: b's next check sees the block and the cycle.
  a.verifier().before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
  ASSERT_TRUE(a.publish_now());
  ASSERT_TRUE(b.check_now());
  ASSERT_EQ(b.reported().size(), 1u);
  EXPECT_EQ(b.reported()[0].tasks, (std::vector<TaskId>{1, 2}));
}

TEST(SharedStateTest, DefaultConfigKeepsStoresPrivate) {
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.scanner_enabled = false;
  Verifier a(config), b(config);
  a.state().set_blocked(status(1, {{1, 1}}, {}));
  EXPECT_EQ(a.state().blocked_count(), 1u);
  EXPECT_EQ(b.state().blocked_count(), 0u);
  EXPECT_NE(a.store().get(), b.store().get());
}

}  // namespace
}  // namespace armus
