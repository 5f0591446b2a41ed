#pragma once

#include "common.h"

/// The four workloads. Each builds its program from the seeded inputs,
/// times `Options::seconds` of it, runs its correctness checks and
/// positive controls, and reports its metrics (end-to-end ones untraced;
/// with Options::trace, the per-layer ones as well).
namespace perfbench {

/// local_avoid (`avoidance` true) and local_detect: three SPMD tasks
/// stepping one phaser over a verifier that also holds 256 parked
/// statuses.
Outcome run_local(const Options& options, bool avoidance);

/// dist_detect: four sites over one armus-kv server, detecting open-loop
/// cross-site ring cycles.
Outcome run_dist_detect(const Options& options);

/// kv_fleet: 200 sites' slices published through two connections.
Outcome run_kv_fleet(const Options& options);

}  // namespace perfbench
