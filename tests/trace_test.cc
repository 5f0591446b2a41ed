// Tests for the trace subsystem (docs/TRACE_FORMAT.md): the frame codec
// (including the byte examples the doc pins), truncated/corrupt-input
// property tests, recorder deduplication, and the replay-equivalence
// suite — replaying a recorded run must yield the identical deadlock
// verdict and cycle task set as the live run, across all four graph
// models.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/verifier.h"
#include "dist/site.h"
#include "dist/store.h"
#include "trace/format.h"
#include "trace/recorder.h"
#include "trace/replayer.h"
#include "util/rng.h"

namespace armus::trace {
namespace {

std::string hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    if (!out.empty()) out += ' ';
    out += digits[c >> 4];
    out += digits[c & 0xf];
  }
  return out;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "armus_trace_test_" + name + "_" +
         std::to_string(::getpid()) + ".trace";
}

BlockedStatus status(TaskId task, std::vector<Resource> waits,
                     std::vector<RegEntry> registered) {
  BlockedStatus s;
  s.task = task;
  s.waits = std::move(waits);
  s.registered = std::move(registered);
  return s;
}

// --- Documented byte examples (normative: docs/TRACE_FORMAT.md) ----------

TEST(TraceFormatTest, DocumentedHeaderExample) {
  TraceHeader header;
  header.version = 1;
  header.start_ns = 64;
  header.meta = {{"mode", "detection"}};
  // magic, version 1, start_ns 64, 1 meta pair "mode" -> "detection".
  EXPECT_EQ(hex(encode_header(header)),
            "41 52 4d 55 53 54 52 43 01 40 01 "
            "04 6d 6f 64 65 "
            "09 64 65 74 65 63 74 69 6f 6e");

  std::string bytes = encode_header(header);
  std::size_t offset = 0;
  TraceHeader decoded = read_header(bytes, &offset);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(decoded.version, 1u);
  EXPECT_EQ(decoded.start_ns, 64u);
  EXPECT_EQ(decoded.meta_value("mode"), "detection");
  EXPECT_EQ(decoded.meta_value("absent"), "");
}

TEST(TraceFormatTest, DocumentedBlockedRecordExample) {
  // Task 7 blocks waiting on (phaser 1, phase 1) while registered on
  // (1, 1) and (2, 0) — the WIRE_PROTOCOL.md §1 status — 5 ns after the
  // previous record.
  Record record;
  record.type = RecordType::kBlocked;
  record.status = status(7, {{1, 1}}, {{1, 1}, {2, 0}});
  std::string out;
  append_record(out, record, 5);
  EXPECT_EQ(hex(out), "02 05 07 01 01 01 02 01 01 02 00");

  std::size_t offset = 0;
  Record decoded = read_record(out, &offset);
  EXPECT_EQ(offset, out.size());
  EXPECT_EQ(decoded.type, RecordType::kBlocked);
  EXPECT_EQ(decoded.at_ns, 5u);  // raw dt before the reader accumulates
  EXPECT_EQ(decoded.status, record.status);
}

TEST(TraceFormatTest, DocumentedReportRecordExample) {
  // The SG checker reports the {1, 2} cycle over (1,1) and (2,1), 300 ns
  // after the previous record.
  Record record;
  record.type = RecordType::kReport;
  record.report.model = GraphModel::kSg;
  record.report.tasks = {1, 2};
  record.report.resources = {{1, 1}, {2, 1}};
  std::string out;
  append_record(out, record, 300);
  EXPECT_EQ(hex(out), "06 ac 02 01 02 01 02 02 01 01 02 01");
}

TEST(TraceFormatTest, DocumentedSmallRecordExamples) {
  std::string out;
  Record reg;
  reg.type = RecordType::kTaskRegistered;
  reg.task = 7;
  reg.phaser = 2;
  reg.phase = 0;
  append_record(out, reg, 1);
  EXPECT_EQ(hex(out), "01 01 07 02 00");

  out.clear();
  Record scan;
  scan.type = RecordType::kScan;
  scan.scan = ScanInfo{2, 2, 2, GraphModel::kSg, 1};
  append_record(out, scan, 0);
  EXPECT_EQ(hex(out), "05 00 02 02 02 01 01");

  out.clear();
  Record unblocked;
  unblocked.type = RecordType::kUnblocked;
  unblocked.task = 7;
  append_record(out, unblocked, 2);
  EXPECT_EQ(hex(out), "03 02 07");

  out.clear();
  Record dereg;
  dereg.type = RecordType::kTaskDeregistered;
  dereg.task = 7;
  dereg.phaser = kAllPhasers;
  append_record(out, dereg, 0);
  EXPECT_EQ(hex(out), "04 00 07 00");
}

// --- Round trips and strictness ------------------------------------------

Record random_record(util::Xoshiro256& rng) {
  Record record;
  switch (rng.below(6)) {
    case 0:
      record.type = RecordType::kTaskRegistered;
      record.task = rng.below(1u << 20) + 1;
      record.phaser = rng.below(1000) + 1;
      record.phase = rng.below(100);
      break;
    case 1: {
      record.type = RecordType::kBlocked;
      record.status.task = rng.below(1u << 20) + 1;
      std::size_t nwaits = rng.below(4);
      for (std::size_t i = 0; i < nwaits; ++i) {
        record.status.waits.push_back({rng.below(1000) + 1, rng.below(100)});
      }
      std::size_t nregs = rng.below(4);
      for (std::size_t i = 0; i < nregs; ++i) {
        record.status.registered.push_back(
            {rng.below(1000) + 1, rng.below(100)});
      }
      break;
    }
    case 2:
      record.type = RecordType::kUnblocked;
      record.task = rng.below(1u << 20) + 1;
      break;
    case 3:
      record.type = RecordType::kTaskDeregistered;
      record.task = rng.below(1u << 20) + 1;
      record.phaser = rng.below(5);  // sometimes kAllPhasers
      break;
    case 4:
      record.type = RecordType::kScan;
      record.scan.blocked = rng.below(10000);
      record.scan.nodes = rng.below(10000);
      record.scan.edges = rng.below(100000);
      record.scan.model_used = static_cast<GraphModel>(rng.below(4));
      record.scan.reports = rng.below(10);
      break;
    default: {
      record.type = RecordType::kReport;
      record.report.model = static_cast<GraphModel>(rng.below(4));
      std::size_t ntasks = rng.below(5) + 1;
      for (std::size_t i = 0; i < ntasks; ++i) {
        record.report.tasks.push_back(rng.below(1u << 30) + 1);
      }
      std::size_t nres = rng.below(4);
      for (std::size_t i = 0; i < nres; ++i) {
        record.report.resources.push_back({rng.below(1000) + 1, rng.below(100)});
      }
      break;
    }
  }
  return record;
}

void expect_equal(const Record& a, const Record& b) {
  ASSERT_EQ(a.type, b.type);
  EXPECT_EQ(a.task, b.task);
  EXPECT_EQ(a.phaser, b.phaser);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.scan.blocked, b.scan.blocked);
  EXPECT_EQ(a.scan.nodes, b.scan.nodes);
  EXPECT_EQ(a.scan.edges, b.scan.edges);
  EXPECT_EQ(a.scan.model_used, b.scan.model_used);
  EXPECT_EQ(a.scan.reports, b.scan.reports);
  EXPECT_EQ(a.report.model, b.report.model);
  EXPECT_EQ(a.report.tasks, b.report.tasks);
  EXPECT_EQ(a.report.resources, b.report.resources);
}

TEST(TraceFormatTest, RandomRecordRoundTrip) {
  util::Xoshiro256 rng(0x7ace);
  for (int i = 0; i < 500; ++i) {
    Record record = random_record(rng);
    std::uint64_t dt = rng.below(1u << 30);
    std::string out;
    append_record(out, record, dt);
    std::size_t offset = 0;
    Record decoded = read_record(out, &offset);
    EXPECT_EQ(offset, out.size());
    EXPECT_EQ(decoded.at_ns, dt);
    decoded.at_ns = record.at_ns;
    expect_equal(record, decoded);
  }
}

TEST(TraceFormatTest, WriterReaderFileRoundTrip) {
  std::string path = temp_path("writer_reader");
  util::Xoshiro256 rng(0xf11e);
  std::vector<Record> records;
  {
    TraceHeader header;
    header.start_ns = 1000;
    header.meta = {{"mode", "detection"}, {"model", "auto"}};
    TraceWriter writer(path, header);
    std::uint64_t now = 1000;
    for (int i = 0; i < 100; ++i) {
      Record record = random_record(rng);
      now += rng.below(1000);
      record.at_ns = now;
      records.push_back(record);
      writer.append(record);
    }
    EXPECT_EQ(writer.records_written(), 100u);
    writer.flush();
  }
  TraceReader reader = TraceReader::open(path);
  EXPECT_EQ(reader.header().start_ns, 1000u);
  EXPECT_EQ(reader.header().meta_value("model"), "auto");
  Record decoded;
  for (const Record& expected : records) {
    ASSERT_TRUE(reader.next(&decoded));
    EXPECT_EQ(decoded.at_ns, expected.at_ns);  // absolute, reconstructed
    expect_equal(expected, decoded);
  }
  EXPECT_FALSE(reader.next(&decoded));
  std::remove(path.c_str());
}

TEST(TraceFormatTest, RejectsBadMagicVersionTypeAndModel) {
  EXPECT_THROW(TraceReader("ARMUSXYZ\x01\x00\x00"), TraceError);
  EXPECT_THROW(TraceReader("short"), TraceError);

  // Unsupported version 2.
  EXPECT_THROW(TraceReader(std::string("ARMUSTRC") + "\x02\x00\x00"),
               TraceError);

  TraceHeader header;
  header.start_ns = 1;
  std::string good = encode_header(header);
  {
    // Unknown record type 9.
    std::string bytes = good + "\x09\x00";
    TraceReader reader(bytes);
    Record record;
    EXPECT_THROW(reader.next(&record), TraceError);
  }
  {
    // SCAN with graph model 7 (out of range).
    std::string bytes = good;
    Record scan;
    scan.type = RecordType::kScan;
    append_record(bytes, scan, 0);
    bytes[bytes.size() - 2] = '\x07';  // model byte
    TraceReader reader(bytes);
    Record record;
    EXPECT_THROW(reader.next(&record), TraceError);
  }
}

TEST(TraceFormatTest, TruncationPropertyTest) {
  // Every strict prefix of a valid trace either fails loudly or decodes a
  // clean prefix of the records (a cut exactly on a record boundary is a
  // valid shorter trace — e.g. a process killed between appends).
  util::Xoshiro256 rng(0x7a1);
  TraceHeader header;
  header.start_ns = 7;
  std::string bytes = encode_header(header);
  std::vector<std::size_t> boundaries{bytes.size()};
  constexpr int kRecords = 20;
  for (int i = 0; i < kRecords; ++i) {
    append_record(bytes, random_record(rng), rng.below(128));
    boundaries.push_back(bytes.size());
  }

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string prefix = bytes.substr(0, len);
    bool is_boundary = false;
    std::size_t records_before = 0;
    for (std::size_t b = 0; b < boundaries.size(); ++b) {
      if (boundaries[b] == len) {
        is_boundary = true;
        records_before = b;
      }
    }
    if (len < boundaries[0]) {
      EXPECT_THROW(TraceReader(std::move(prefix)), TraceError) << len;
      continue;
    }
    TraceReader reader(std::move(prefix));
    Record record;
    std::size_t decoded = 0;
    if (is_boundary) {
      while (reader.next(&record)) ++decoded;
      EXPECT_EQ(decoded, records_before) << len;
    } else {
      EXPECT_THROW({
        while (reader.next(&record)) ++decoded;
      }, TraceError)
          << len;
      EXPECT_LT(decoded, static_cast<std::size_t>(kRecords)) << len;
    }
  }
}

// --- Recorder ------------------------------------------------------------

std::vector<Record> read_all(const std::string& path) {
  TraceReader reader = TraceReader::open(path);
  std::vector<Record> records;
  Record record;
  while (reader.next(&record)) records.push_back(record);
  return records;
}

TEST(RecorderTest, DedupsRepublishesAndSpuriousUnblocks) {
  std::string path = temp_path("dedup");
  {
    Recorder recorder({path, {}});
    BlockedStatus s = status(1, {{1, 1}}, {{1, 1}});
    recorder.on_blocked(s);
    recorder.on_blocked(s);  // avoidance recheck re-publish: dropped
    recorder.on_unblocked(99);  // never blocked: dropped
    recorder.on_blocked(status(1, {{1, 2}}, {{1, 2}}));  // real change
    recorder.on_unblocked(1);
    recorder.on_unblocked(1);  // second withdraw: dropped
    recorder.flush();
    EXPECT_EQ(recorder.records_written(), 3u);
  }
  std::vector<Record> records = read_all(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, RecordType::kBlocked);
  EXPECT_EQ(records[1].type, RecordType::kBlocked);
  EXPECT_EQ(records[2].type, RecordType::kUnblocked);
  std::remove(path.c_str());
}

TEST(RecorderTest, CapturesVerifierAndRegistryEvents) {
  std::string path = temp_path("verifier_events");
  {
    VerifierConfig config;
    config.mode = VerifyMode::kDetection;
    config.scanner_enabled = false;
    config.on_deadlock = [](const DeadlockReport&) {};
    config.observer = std::make_shared<Recorder>(Recorder::Options{path, {}});
    Verifier verifier(config);
    verifier.registry().set_entry(3, 9, 1);
    verifier.before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
    verifier.before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
    verifier.scan_now();
    verifier.after_unblock(1);
    verifier.after_unblock(2);
    verifier.registry().remove_entry(3, 9);
  }
  std::vector<Record> records = read_all(path);
  std::vector<RecordType> types;
  types.reserve(records.size());
  for (const Record& record : records) types.push_back(record.type);
  EXPECT_EQ(types,
            (std::vector<RecordType>{
                RecordType::kTaskRegistered, RecordType::kBlocked,
                RecordType::kBlocked, RecordType::kScan, RecordType::kReport,
                RecordType::kUnblocked, RecordType::kUnblocked,
                RecordType::kTaskDeregistered}));
  // The report is the planted {1, 2} cycle.
  EXPECT_EQ(records[4].report.tasks, (std::vector<TaskId>{1, 2}));
  std::remove(path.c_str());
}

TEST(RecorderTest, RollbackRestoresThePreviousVisibleStatus) {
  // A failed publish (store outage) rolls the store back to the task's
  // previous status; on_block_rollback must roll the trace back the same
  // way so replayed state tracks what checkers actually saw.
  std::string path = temp_path("rollback");
  {
    Recorder recorder({path, {}});
    BlockedStatus a = status(1, {{1, 1}}, {{1, 1}});
    BlockedStatus b = status(1, {{1, 2}}, {{1, 2}});
    recorder.on_blocked(a);
    recorder.on_blocked(b);     // re-block with a change...
    recorder.on_block_rollback(1);  // ...whose publish failed: back to a
    recorder.on_blocked(status(2, {{2, 1}}, {{2, 1}}));
    recorder.on_block_rollback(2);  // fresh publish failed: not blocked
    recorder.on_block_rollback(3);  // no preceding publish: no-op
  }
  std::vector<Record> records = read_all(path);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].type, RecordType::kBlocked);
  EXPECT_EQ(records[1].type, RecordType::kBlocked);
  EXPECT_EQ(records[2].type, RecordType::kBlocked);
  EXPECT_EQ(records[2].status, status(1, {{1, 1}}, {{1, 1}}));  // a again
  EXPECT_EQ(records[3].type, RecordType::kBlocked);
  EXPECT_EQ(records[3].status.task, 2u);
  EXPECT_EQ(records[4].type, RecordType::kUnblocked);
  EXPECT_EQ(records[4].task, 2u);
  std::remove(path.c_str());
}

TEST(RecorderTest, WriteFailureStopsCaptureLoudlyWithoutThrowing) {
  // /dev/full accepts the open but fails every flushed write (ENOSPC):
  // the recorder must latch the failure and keep absorbing events — a
  // tracing run must scream, not crash the traced program.
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  Recorder recorder({"/dev/full", {}});
  recorder.on_blocked(status(1, {{1, 1}}, {{1, 1}}));
  recorder.flush();  // surfaces the ENOSPC
  EXPECT_TRUE(recorder.failed());
  recorder.on_blocked(status(2, {{2, 1}}, {{2, 1}}));  // dropped, no throw
  recorder.flush();
  EXPECT_TRUE(recorder.failed());
}

// --- Replay equivalence --------------------------------------------------

/// Records a live detection run under `model`: a planted 2-cycle plus an
/// acyclic chain, one scan while deadlocked (the live verdict), then a
/// rescue and a final clean scan. Returns the live run's reports.
std::vector<DeadlockReport> record_live_run(const std::string& path,
                                            GraphModel model) {
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.model = model;
  config.scanner_enabled = false;
  config.on_deadlock = [](const DeadlockReport&) {};
  config.observer = std::make_shared<Recorder>(Recorder::Options{path, {}});
  Verifier verifier(config);

  verifier.before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
  verifier.before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
  // Innocent bystanders: 5 -> 6 -> (nothing), acyclic.
  verifier.before_block(status(5, {{10, 1}}, {{10, 1}, {11, 0}}));
  verifier.before_block(status(6, {{11, 1}}, {{11, 1}}));
  verifier.scan_now();

  // Rescue: everything unblocks, and the post-rescue state is clean — a
  // replay-to-end would see nothing, which is exactly why replay checks at
  // the recorded scan points.
  for (TaskId task : {1, 2, 5, 6}) verifier.after_unblock(task);
  verifier.scan_now();
  return verifier.reported();
}

class ReplayEquivalenceTest : public testing::TestWithParam<GraphModel> {};

TEST_P(ReplayEquivalenceTest, ReplayMatchesLiveRun) {
  GraphModel model = GetParam();
  std::string path = temp_path("equiv_" + armus::to_string(model));
  std::vector<DeadlockReport> live = record_live_run(path, model);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].tasks, (std::vector<TaskId>{1, 2}));

  OfflineVerifier::Options options;
  options.model = model;
  OfflineVerifier verifier(options);
  OfflineVerifier::Result result = verifier.run(MergedTrace({path}));

  EXPECT_EQ(result.scans, 2u);
  EXPECT_TRUE(result.verdicts_match());
  EXPECT_TRUE(result.cycles_match());
  ASSERT_EQ(result.replayed.size(), 1u);
  EXPECT_EQ(result.replayed[0].tasks, live[0].tasks);
  ASSERT_EQ(result.recorded.size(), 1u);
  EXPECT_EQ(result.recorded[0].tasks, live[0].tasks);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ReplayEquivalenceTest,
                         testing::Values(GraphModel::kWfg, GraphModel::kSg,
                                         GraphModel::kGrg, GraphModel::kAuto),
                         [](const testing::TestParamInfo<GraphModel>& info) {
                           return armus::to_string(info.param);
                         });

TEST(ReplayTest, DeadlockFreeRunStaysDeadlockFree) {
  std::string path = temp_path("clean");
  {
    VerifierConfig config;
    config.mode = VerifyMode::kDetection;
    config.scanner_enabled = false;
    config.observer = std::make_shared<Recorder>(Recorder::Options{path, {}});
    Verifier verifier(config);
    verifier.before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
    verifier.scan_now();
    verifier.after_unblock(1);
  }
  OfflineVerifier verifier({});
  OfflineVerifier::Result result = verifier.run(MergedTrace({path}));
  EXPECT_TRUE(result.replayed.empty());
  EXPECT_TRUE(result.recorded.empty());
  EXPECT_TRUE(result.verdicts_match());
  EXPECT_TRUE(result.cycles_match());
  std::remove(path.c_str());
}

TEST(ReplayTest, CrossSiteCycleFromSharedRecorder) {
  // The in-process mirror of examples/distributed_detection.cpp: two
  // sites over one slice store, each holding half of a cross-site cycle;
  // one shared recorder captures both halves into a single trace, and the
  // offline replay reproduces the cycle no single site's local state
  // contains.
  std::string path = temp_path("cross_site");
  {
    auto recorder = std::make_shared<Recorder>(Recorder::Options{path, {}});
    auto store = std::make_shared<dist::Store>();
    dist::Site::Config c0;
    c0.id = 0;
    c0.observer = recorder;
    dist::Site::Config c1;
    c1.id = 1;
    c1.observer = recorder;
    dist::Site site0(c0, store);
    dist::Site site1(c1, store);
    site0.verifier().before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
    site1.verifier().before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
    site0.publish_now();
    site1.publish_now();
    ASSERT_TRUE(site0.check_now());
    ASSERT_TRUE(site1.check_now());
    ASSERT_EQ(site0.reported().size(), 1u);
    ASSERT_EQ(site1.reported().size(), 1u);
  }
  OfflineVerifier verifier({});
  OfflineVerifier::Result result = verifier.run(MergedTrace({path}));
  EXPECT_TRUE(result.verdicts_match());
  EXPECT_TRUE(result.cycles_match());
  ASSERT_EQ(result.replayed.size(), 1u);
  EXPECT_EQ(result.replayed[0].tasks, (std::vector<TaskId>{1, 2}));
  std::remove(path.c_str());
}

TEST(ReplayTest, AvoidanceInterruptReproducedOffline) {
  std::string path = temp_path("avoidance");
  {
    VerifierConfig config;
    config.mode = VerifyMode::kAvoidance;
    config.observer = std::make_shared<Recorder>(Recorder::Options{path, {}});
    Verifier verifier(config);
    verifier.before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
    EXPECT_THROW(
        verifier.before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}})),
        DeadlockAvoidedError);
  }
  OfflineVerifier verifier({});
  OfflineVerifier::Result result = verifier.run(MergedTrace({path}));
  // The doomed task's status was withdrawn *after* the recorded doom-check
  // scan, so the offline check at that point sees the full cycle.
  EXPECT_TRUE(result.verdicts_match());
  EXPECT_TRUE(result.cycles_match());
  ASSERT_EQ(result.recorded.size(), 1u);
  EXPECT_EQ(result.recorded[0].tasks, (std::vector<TaskId>{1, 2}));
  std::remove(path.c_str());
}

TEST(MergedTraceTest, MergesFilesByTimestamp) {
  std::string path_a = temp_path("merge_a");
  std::string path_b = temp_path("merge_b");
  {
    TraceHeader header;
    header.start_ns = 100;
    TraceWriter writer(path_a, header);
    Record record;
    record.type = RecordType::kUnblocked;
    record.task = 1;
    record.at_ns = 150;
    writer.append(record);
    record.task = 3;
    record.at_ns = 350;
    writer.append(record);
  }
  {
    TraceHeader header;
    header.start_ns = 200;
    TraceWriter writer(path_b, header);
    Record record;
    record.type = RecordType::kUnblocked;
    record.task = 2;
    record.at_ns = 250;
    writer.append(record);
  }
  MergedTrace merged({path_a, path_b});
  ASSERT_EQ(merged.records().size(), 3u);
  EXPECT_EQ(merged.records()[0].record.task, 1u);
  EXPECT_EQ(merged.records()[0].source, 0u);
  EXPECT_EQ(merged.records()[1].record.task, 2u);
  EXPECT_EQ(merged.records()[1].source, 1u);
  EXPECT_EQ(merged.records()[2].record.task, 3u);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- Segment rotation (docs/TRACE_FORMAT.md §5) ---------------------------

/// All records of one on-disk segment, decoded strictly.
std::vector<Record> decode_file(const std::string& path,
                                TraceHeader* header = nullptr) {
  TraceReader reader = TraceReader::open(path);
  if (header != nullptr) *header = reader.header();
  std::vector<Record> records;
  Record record;
  while (reader.next(&record)) records.push_back(record);
  return records;
}

TEST(RotationTest, SegmentsReplayToTheUnrotatedVerdict) {
  // The same live run, recorded twice: once into a single file, once with
  // an aggressively small segment budget. The rotated set must (a) split
  // into several segments that each decode standalone, (b) keep the REPORT
  // record whole in exactly one segment — the regression this test pins is
  // a record straddling a rotation boundary — and (c) merge back to the
  // identical verdict.
  std::string plain = temp_path("rot_plain");
  std::vector<DeadlockReport> live = record_live_run(plain, GraphModel::kAuto);
  ASSERT_EQ(live.size(), 1u);

  std::string base = temp_path("rot_segmented");
  {
    VerifierConfig config;
    config.mode = VerifyMode::kDetection;
    config.scanner_enabled = false;
    config.on_deadlock = [](const DeadlockReport&) {};
    Recorder::Options options;
    options.path = base;
    options.max_segment_bytes = 48;  // a couple of records per segment
    auto recorder = std::make_shared<Recorder>(options);
    config.observer = recorder;
    Verifier verifier(config);
    verifier.before_block(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
    verifier.before_block(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
    verifier.before_block(status(5, {{10, 1}}, {{10, 1}, {11, 0}}));
    verifier.before_block(status(6, {{11, 1}}, {{11, 1}}));
    verifier.scan_now();
    for (TaskId task : {1, 2, 5, 6}) verifier.after_unblock(task);
    verifier.scan_now();
    recorder->flush();
    ASSERT_GT(recorder->segments(), 2u);
    EXPECT_EQ(segment_paths(base).size(), recorder->segments());
    EXPECT_FALSE(recorder->failed());
  }

  // Every segment decodes standalone: full header, strict decode to EOF,
  // and the continuation metadata on every segment but the first.
  std::size_t reports = 0;
  std::vector<std::string> segments = segment_paths(base);
  for (std::size_t index = 0; index < segments.size(); ++index) {
    TraceHeader header;
    std::vector<Record> records = decode_file(segments[index], &header);
    if (index == 0) {
      EXPECT_TRUE(header.meta_value("segment").empty());
    } else {
      EXPECT_EQ(header.meta_value("segment"), std::to_string(index));
      EXPECT_FALSE(records.empty()) << segments[index];
    }
    for (const Record& record : records) {
      reports += record.type == RecordType::kReport ? 1 : 0;
    }
  }
  EXPECT_EQ(reports, 1u);  // never straddled, never duplicated

  // expand_segments turns the base path into the full rotated set, and the
  // merged replay agrees with the single-file recording of the same run.
  std::vector<std::string> expanded = expand_segments({base});
  EXPECT_EQ(expanded, segments);
  OfflineVerifier::Result rotated =
      OfflineVerifier({}).run(MergedTrace(expanded));
  OfflineVerifier::Result unrotated =
      OfflineVerifier({}).run(MergedTrace({plain}));
  EXPECT_TRUE(rotated.verdicts_match());
  EXPECT_TRUE(rotated.cycles_match());
  ASSERT_EQ(rotated.replayed.size(), unrotated.replayed.size());
  EXPECT_EQ(rotated.replayed[0].fingerprint(),
            unrotated.replayed[0].fingerprint());
  ASSERT_EQ(rotated.recorded.size(), 1u);
  EXPECT_EQ(rotated.recorded[0].fingerprint(), live[0].fingerprint());

  std::remove(plain.c_str());
  for (const std::string& segment : segments) std::remove(segment.c_str());
}

TEST(RotationTest, EverySegmentBeginsWithACheckpointOfLiveState) {
  // Rotate in the middle of a blocked interval: the next segment must
  // re-emit the live registrations and statuses so it replays standalone —
  // checking only the final segment must still see the planted cycle.
  std::string base = temp_path("rot_checkpoint");
  {
    Recorder::Options options;
    options.path = base;
    options.max_segment_bytes = 64;
    Recorder recorder(options);
    recorder.on_task_registered(1, 1, 1);
    recorder.on_blocked(status(1, {{1, 1}}, {{1, 1}, {2, 0}}));
    recorder.on_blocked(status(2, {{2, 1}}, {{1, 0}, {2, 1}}));
    // Keep appending until a rotation happened with the cycle still live.
    for (TaskId task = 20; recorder.segments() < 2; ++task) {
      recorder.on_blocked(status(task, {{30, 1}}, {{30, 1}}));
    }
    recorder.flush();
  }
  std::vector<std::string> segments = segment_paths(base);
  ASSERT_GE(segments.size(), 2u);

  OfflineVerifier::Options options;
  options.final_scan = true;
  OfflineVerifier verifier(options);
  OfflineVerifier::Result last_only =
      verifier.run(MergedTrace({segments.back()}));
  ASSERT_FALSE(last_only.replayed.empty());
  EXPECT_EQ(last_only.replayed[0].tasks, (std::vector<TaskId>{1, 2}));
  for (const std::string& segment : segments) std::remove(segment.c_str());
}

// --- Partition invariance -------------------------------------------------

TEST(MergedTraceTest, PartitionInvarianceProperty) {
  // Splitting one recorded timeline across k files — however the records
  // are dealt out — must not change the merged replay's verdict: the merge
  // key is the timestamp, not the file layout. This is the property the
  // multi-process capture path (one file per process) leans on.
  std::string path = temp_path("partition");
  std::vector<DeadlockReport> live = record_live_run(path, GraphModel::kAuto);
  ASSERT_EQ(live.size(), 1u);
  std::vector<Record> records = decode_file(path);
  std::remove(path.c_str());
  // Re-time strictly increasing so the merged order is unambiguous.
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].at_ns = 1000 * (i + 1);
  }

  auto replay = [](const std::vector<std::string>& paths) {
    OfflineVerifier verifier({});
    return verifier.run(MergedTrace(paths));
  };
  auto write_partition = [&](const std::string& out,
                             const std::vector<Record>& slice) {
    TraceHeader header;
    header.start_ns = 1;
    TraceWriter writer(out, header);
    for (const Record& record : slice) writer.append(record);
    writer.flush();
  };

  std::string whole = temp_path("partition_whole");
  write_partition(whole, records);
  OfflineVerifier::Result baseline = replay({whole});
  ASSERT_EQ(baseline.replayed.size(), 1u);
  ASSERT_EQ(baseline.recorded.size(), 1u);

  util::Xoshiro256 rng(0x5117);
  for (int round = 0; round < 8; ++round) {
    std::size_t k = 2 + rng.below(3);  // 2..4 files
    std::vector<std::vector<Record>> parts(k);
    for (const Record& record : records) {
      parts[rng.below(k)].push_back(record);
    }
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < k; ++i) {
      paths.push_back(temp_path("partition_" + std::to_string(round) + "_" +
                                std::to_string(i)));
      write_partition(paths.back(), parts[i]);
    }
    OfflineVerifier::Result split = replay(paths);
    EXPECT_EQ(split.records, baseline.records) << "round " << round;
    EXPECT_EQ(split.scans, baseline.scans) << "round " << round;
    ASSERT_EQ(split.replayed.size(), 1u) << "round " << round;
    EXPECT_EQ(split.replayed[0].fingerprint(),
              baseline.replayed[0].fingerprint())
        << "round " << round;
    ASSERT_EQ(split.recorded.size(), 1u) << "round " << round;
    EXPECT_EQ(split.recorded[0].fingerprint(),
              baseline.recorded[0].fingerprint())
        << "round " << round;
    for (const std::string& part : paths) std::remove(part.c_str());
  }
  std::remove(whole.c_str());
}

}  // namespace
}  // namespace armus::trace
