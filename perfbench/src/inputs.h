#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/blocked_status.h"

/// Seeded input generation. The program under test only ever receives what
/// these functions produce, and the same seed always produces the same
/// inputs.
namespace perfbench {

/// An independent stream seed for one purpose (`stream`) of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// One acyclic wait chain of `tasks.size()` blocked statuses, standing for
/// the rest of a large program parked elsewhere. The seed picks the chain
/// order and each task's local phase; the ids come from the caller
/// (`phasers` needs one more entry than `tasks`). Each task holds its own
/// phaser at its local phase and waits for the next task's phaser one
/// phase ahead, so every link is a real wait-for edge; the last task waits
/// on the extra phaser, which nobody holds. Sorted by task id.
std::vector<armus::BlockedStatus> chain_statuses(
    std::uint64_t seed, const std::vector<armus::TaskId>& tasks,
    const std::vector<armus::PhaserUid>& phasers);

/// Open-loop due times, in ns from the window start, of `n` arrivals in
/// [0, window_ns): n + 1 exponential inter-arrival gaps drawn from `seed`,
/// scaled so the arrivals fill the window — a Poisson process conditioned
/// on its count, so every run of a given length offers the same load.
/// Ascending.
std::vector<std::uint64_t> arrival_schedule(std::uint64_t seed, std::size_t n,
                                            std::uint64_t window_ns);

/// The two payloads kv_fleet alternates for one site: encode_statuses of a
/// seeded `statuses`-long chain, and the same chain with every phase one
/// higher, so each put changes the slice.
std::array<std::string, 2> fleet_payloads(std::uint64_t seed,
                                          std::uint32_t site,
                                          std::size_t statuses);

}  // namespace perfbench
