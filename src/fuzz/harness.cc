#include "fuzz/harness.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unordered_set>
#include <utility>

#include "dist/site.h"
#include "fuzz/mutator.h"
#include "trace/replayer.h"

namespace armus::fuzz {

namespace {

constexpr GraphModel kModels[4] = {GraphModel::kWfg, GraphModel::kSg,
                                   GraphModel::kGrg, GraphModel::kAuto};

/// Sorted fingerprints of deduplicated reports (order-free verdict
/// identity).
std::vector<std::uint64_t> fingerprints(const std::vector<DeadlockReport>& reports) {
  std::vector<std::uint64_t> out;
  out.reserve(reports.size());
  for (const DeadlockReport& report : reports) out.push_back(report.fingerprint());
  std::sort(out.begin(), out.end());
  return out;
}

/// One full offline replay against a local DependencyState.
std::vector<std::uint64_t> replay_local(const trace::MergedTrace& trace,
                                        GraphModel model) {
  trace::OfflineVerifier::Options options;
  options.model = model;
  options.final_scan = true;
  return fingerprints(trace::OfflineVerifier(options).run(trace).replayed);
}

/// The same replay through a dist::Site over an in-process dist::Store:
/// records land in the site's verifier, and every SCAN (plus one final
/// check) publishes the slice and checks the merged snapshot, so the
/// codec, delta publishes and the CachedSliceReader stand between the
/// state and the verdict.
std::vector<std::uint64_t> replay_through_site(const trace::MergedTrace& trace,
                                               GraphModel model) {
  dist::Site::Config config;
  config.id = 1;
  config.model = model;
  // An explicit no-op observer: the replay must not feed the process's
  // env-configured trace or event stream.
  config.observer = std::make_shared<EventObserver>();
  dist::Site site(config, std::make_shared<dist::Store>());
  trace::Replayer replayer(&site.verifier().state(), &site.verifier().registry());
  auto scan = [&] {
    site.publish_now();
    site.check_now();
  };
  for (const trace::TimedRecord& timed : trace.records()) {
    if (timed.record.type == trace::RecordType::kScan) {
      scan();
    } else {
      replayer.apply(timed.record);  // REPORT records are ignored
    }
  }
  scan();
  return fingerprints(site.reported());
}

}  // namespace

std::string Verdict::signature() const {
  std::string sig = decoded ? "ok" : "rej";
  sig += "-r" + std::to_string(records);
  if (decoded) {
    for (std::uint64_t count : cycles) {
      sig += "-c" + std::to_string(count);
    }
  }
  return sig;
}

std::optional<std::string> check_trace(const std::string& bytes,
                                       Verdict* verdict) {
  Verdict local_verdict;
  Verdict* v = verdict != nullptr ? verdict : &local_verdict;
  *v = Verdict{};

  // Phase 1: the strict decoder. TraceError is the contract's "no" —
  // anything else escaping the decoder is a bug.
  try {
    trace::TraceReader reader(bytes);
    trace::Record record;
    while (reader.next(&record)) ++v->records;
    v->decoded = true;
  } catch (const trace::TraceError&) {
    return std::nullopt;  // cleanly rejected: contract holds
  } catch (const std::exception& e) {
    return std::string("decode raised non-TraceError: ") + e.what();
  }

  // Phase 2: a decoded trace must replay under every model and both
  // backends, with backend-identical verdicts.
  trace::MergedTrace trace = trace::MergedTrace::from_bytes({bytes});
  for (std::size_t m = 0; m < 4; ++m) {
    std::vector<std::uint64_t> local;
    try {
      local = replay_local(trace, kModels[m]);
    } catch (const std::exception& e) {
      return "replay (model " + to_string(kModels[m]) +
             ", local store) raised: " + e.what();
    }
    std::vector<std::uint64_t> site;
    try {
      site = replay_through_site(trace, kModels[m]);
    } catch (const std::exception& e) {
      return "replay (model " + to_string(kModels[m]) +
             ", site) raised: " + e.what();
    }
    if (local != site) {
      return "backend divergence under model " + to_string(kModels[m]) +
             ": local found " + std::to_string(local.size()) +
             " cycle(s), site " + std::to_string(site.size());
    }
    v->cycles[m] = local.size();
  }
  return std::nullopt;
}

std::string minimize_trace(const std::string& bytes) {
  trace::TraceHeader header;
  std::vector<trace::Record> records;
  try {
    records = decode_records(bytes, &header);
  } catch (const trace::TraceError&) {
    return bytes;  // undecodable entries keep their exact bytes
  }
  Verdict verdict;
  check_trace(bytes, &verdict);
  const std::string target = verdict.signature();

  // One greedy drop-one pass, newest record first (later records depend on
  // earlier state, so the tail shrinks most easily). Bounded: each attempt
  // costs a full 4×2 replay.
  std::size_t attempts = std::min<std::size_t>(records.size(), 128);
  for (std::size_t i = 0; i < attempts && !records.empty(); ++i) {
    std::size_t at = records.size() - 1 - (i % records.size());
    std::vector<trace::Record> candidate = records;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(at));
    std::string encoded = encode_trace(header, candidate);
    Verdict after;
    check_trace(encoded, &after);
    if (after.signature() == target) records = std::move(candidate);
  }
  return encode_trace(header, records);
}

Harness::Harness(Options options) : options_(std::move(options)) {}

Harness::Stats Harness::run() {
  namespace fs = std::filesystem;
  Stats stats;

  std::vector<std::string> pool = options_.seeds;
  if (!options_.corpus_dir.empty() && fs::is_directory(options_.corpus_dir)) {
    std::vector<fs::path> entries;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(options_.corpus_dir)) {
      if (entry.is_regular_file()) entries.push_back(entry.path());
    }
    std::sort(entries.begin(), entries.end());  // deterministic pool order
    for (const fs::path& path : entries) {
      std::ifstream in(path, std::ios::binary);
      pool.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
  }
  if (pool.empty()) return stats;

  // The seeds themselves are the first mutants: a recorded trace that
  // breaks the contract is the most urgent finding of all.
  std::unordered_set<std::string> seen;
  for (const std::string& entry : pool) {
    Verdict verdict;
    std::optional<std::string> violation = check_trace(entry, &verdict);
    stats.replays += verdict.decoded ? 8 : 0;
    if (violation) {
      stats.violations.push_back(Violation{"seed trace: " + *violation, entry});
    }
    seen.insert(verdict.signature());
  }

  Mutator mutator(options_.seed);
  for (std::uint64_t i = 0; i < options_.runs; ++i) {
    MutationOp op = MutationOp::kBitFlip;
    std::string mutant = mutator.mutate(pool, &op);
    ++stats.mutants;
    Verdict verdict;
    std::optional<std::string> violation = check_trace(mutant, &verdict);
    if (verdict.decoded) {
      ++stats.decoded;
      stats.replays += 8;
    } else {
      ++stats.rejected;
    }
    if (violation) {
      stats.violations.push_back(Violation{
          "mutant #" + std::to_string(i) + " (" + to_string(op) +
              ", seed " + std::to_string(options_.seed) + "): " + *violation,
          mutant});
      continue;
    }
    if (!seen.insert(verdict.signature()).second) continue;
    // New coverage bucket: minimize, add to the pool, persist.
    std::string minimized = minimize_trace(mutant);
    pool.push_back(minimized);
    ++stats.corpus_added;
    if (!options_.corpus_dir.empty()) {
      fs::create_directories(options_.corpus_dir);
      fs::path path = fs::path(options_.corpus_dir) /
                      ("sig-" + verdict.signature() + ".trace");
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(minimized.data(),
                static_cast<std::streamsize>(minimized.size()));
    }
  }
  return stats;
}

}  // namespace armus::fuzz
