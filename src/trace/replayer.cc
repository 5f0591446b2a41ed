#include "trace/replayer.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "core/dependency_state.h"
#include "trace/recorder.h"

namespace armus::trace {

std::vector<std::string> expand_segments(const std::vector<std::string>& paths) {
  std::vector<std::string> out;
  for (const std::string& path : paths) {
    for (std::string& segment : segment_paths(path)) {
      out.push_back(std::move(segment));
    }
  }
  return out;
}

MergedTrace::MergedTrace(const std::vector<std::string>& paths) {
  headers_.reserve(paths.size());
  for (std::size_t source = 0; source < paths.size(); ++source) {
    add(TraceReader::open(paths[source]), source);
  }
  finish();
}

MergedTrace MergedTrace::from_bytes(const std::vector<std::string>& buffers) {
  MergedTrace trace;
  trace.headers_.reserve(buffers.size());
  for (std::size_t source = 0; source < buffers.size(); ++source) {
    trace.add(TraceReader(buffers[source]), source);
  }
  trace.finish();
  return trace;
}

void MergedTrace::add(TraceReader reader, std::size_t source) {
  headers_.push_back(reader.header());
  Record record;
  while (reader.next(&record)) {
    records_.push_back(TimedRecord{std::move(record), source});
    record = Record{};
  }
}

void MergedTrace::finish() {
  // stable_sort: records of one file are already in order, and equal
  // timestamps across files keep input order (deterministic merges).
  std::stable_sort(records_.begin(), records_.end(),
                   [](const TimedRecord& a, const TimedRecord& b) {
                     return a.record.at_ns < b.record.at_ns;
                   });
}

std::vector<BlockedStatus> merged_snapshot(const StateStore& store,
                                           const TaskRegistry& registry) {
  std::vector<BlockedStatus> snapshot = store.snapshot();
  for (BlockedStatus& status : snapshot) registry.merge_into(status);
  return snapshot;
}

void Replayer::apply(const Record& record) {
  switch (record.type) {
    case RecordType::kTaskRegistered:
      registry_->set_entry(record.task, record.phaser, record.phase);
      break;
    case RecordType::kTaskDeregistered:
      if (record.phaser == kAllPhasers) {
        registry_->remove_task(record.task);
      } else {
        registry_->remove_entry(record.task, record.phaser);
      }
      break;
    case RecordType::kBlocked:
      store_->set_blocked(record.status);
      break;
    case RecordType::kUnblocked:
      store_->clear_blocked(record.task);
      break;
    case RecordType::kScan:
    case RecordType::kReport:
      break;  // analysis policy belongs to the caller
  }
}

OfflineVerifier::OfflineVerifier(Options options)
    : options_(std::move(options)), incremental_(options_.model) {}

void OfflineVerifier::check_now(Result* result) {
  std::vector<BlockedStatus> snapshot = merged_snapshot(store_, registry_);
  CheckResult check = incremental_.check(snapshot);
  ++result->scans;
  for (DeadlockReport& report : check.reports) {
    bool fresh = std::none_of(
        result->replayed.begin(), result->replayed.end(),
        [&](const DeadlockReport& seen) {
          return seen.fingerprint() == report.fingerprint();
        });
    if (fresh) result->replayed.push_back(std::move(report));
  }
}

OfflineVerifier::Result OfflineVerifier::run(const MergedTrace& trace) {
  Result result;
  Replayer replayer(&store_, &registry_);
  std::unordered_set<std::uint64_t> recorded_fingerprints;
  std::uint64_t previous_ns = 0;
  bool first = true;
  for (const TimedRecord& timed : trace.records()) {
    const Record& record = timed.record;
    if (options_.speed > 0 && !first && record.at_ns > previous_ns) {
      auto dt = std::chrono::nanoseconds(static_cast<std::int64_t>(
          static_cast<double>(record.at_ns - previous_ns) / options_.speed));
      std::this_thread::sleep_for(dt);
    }
    previous_ns = record.at_ns;
    first = false;

    ++result.records;
    switch (record.type) {
      case RecordType::kScan:
        if (options_.scan_at_records) check_now(&result);
        break;
      case RecordType::kReport:
        if (recorded_fingerprints.insert(record.report.fingerprint()).second) {
          result.recorded.push_back(record.report);
        }
        break;
      default:
        replayer.apply(record);
        break;
    }
  }
  if (options_.final_scan) check_now(&result);
  return result;
}

bool OfflineVerifier::Result::cycles_match() const {
  std::unordered_set<std::uint64_t> a;
  std::unordered_set<std::uint64_t> b;
  for (const DeadlockReport& report : replayed) a.insert(report.fingerprint());
  for (const DeadlockReport& report : recorded) b.insert(report.fingerprint());
  return a == b;
}

bool OfflineVerifier::Result::recorded_subset_of_replayed() const {
  std::unordered_set<std::uint64_t> seen;
  for (const DeadlockReport& report : replayed) seen.insert(report.fingerprint());
  for (const DeadlockReport& report : recorded) {
    if (!seen.contains(report.fingerprint())) return false;
  }
  return true;
}

}  // namespace armus::trace
