#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/graph_builder.h"

/// The fuzzing harness: replays mutated traces against the full analysis
/// stack and asserts the strict-decode contract —
///
///   every byte string either fails to decode with trace::TraceError, or
///   decodes into records that replay cleanly under **all four graph
///   models and both backends** (a fresh DependencyState, and a dist::Site
///   over an in-process dist::Store that publishes and checks at every
///   recorded scan), with identical deadlock verdicts across the backends.
///
/// Never a crash, never a foreign exception, never a backend divergence.
/// Anything else is a Violation, and its mutant bytes are the repro.
///
/// tools/armus_fuzz.cc drives this from CI (fixed seed, e2e-trace seeds);
/// tests/fuzz_test.cc pins the contract on a deterministic small run.
namespace armus::fuzz {

/// What one mutant did, summarised for corpus bucketing.
struct Verdict {
  bool decoded = false;     ///< full decode succeeded
  std::uint64_t records = 0;  ///< records decoded (prefix length on failure)
  /// Deduplicated replay-found deadlocks per model (wfg, sg, grg, auto),
  /// from the local backend.
  std::uint64_t cycles[4] = {0, 0, 0, 0};

  /// Coverage bucket: mutants with a new signature enter the corpus.
  [[nodiscard]] std::string signature() const;
};

struct Violation {
  std::string what;     ///< which guarantee broke, and how
  std::string mutant;   ///< the offending trace bytes
};

/// Checks one trace against the contract. Returns the violation text, or
/// nullopt when the contract holds (clean rejection included). `verdict`,
/// when given, is filled in either way.
std::optional<std::string> check_trace(const std::string& bytes,
                                       Verdict* verdict = nullptr);

class Harness {
 public:
  struct Options {
    std::uint64_t seed = 1;    ///< mutation RNG seed — the whole repro
    std::uint64_t runs = 500;  ///< mutants to generate
    /// Seed traces (bytes). At least one required; recorded e2e traces
    /// are the intended source.
    std::vector<std::string> seeds;
    /// Corpus directory: existing entries join the mutation pool, and
    /// mutants with a new coverage signature are minimized and saved.
    /// Empty = no persistence.
    std::string corpus_dir;
  };

  struct Stats {
    std::uint64_t mutants = 0;
    std::uint64_t decoded = 0;    ///< mutants that decoded fully
    std::uint64_t rejected = 0;   ///< mutants cleanly refused (TraceError)
    std::uint64_t replays = 0;    ///< model × backend replays executed
    std::uint64_t corpus_added = 0;
    std::vector<Violation> violations;

    [[nodiscard]] bool ok() const { return violations.empty(); }
  };

  explicit Harness(Options options);

  /// Generates and checks `runs` mutants. Deterministic in (seed, seeds,
  /// corpus contents).
  Stats run();

 private:
  Options options_;
};

/// Greedily shrinks a decodable trace while `signature()` stays the same
/// (one drop-one-record pass); returns `bytes` unchanged when it does not
/// decode. Corpus entries stay small without losing their bucket.
std::string minimize_trace(const std::string& bytes);

}  // namespace armus::fuzz
