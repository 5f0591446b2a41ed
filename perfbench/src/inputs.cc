#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "dist/codec.h"
#include "util/rng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  armus::util::SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return mix();
}

std::vector<armus::BlockedStatus> chain_statuses(
    std::uint64_t seed, const std::vector<armus::TaskId>& tasks,
    const std::vector<armus::PhaserUid>& phasers) {
  const std::size_t n = tasks.size();
  if (phasers.size() != n + 1) {
    throw std::invalid_argument("chain_statuses: need one phaser per task + 1");
  }
  armus::util::Xoshiro256 rng(seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<armus::Phase> phase(n);
  for (auto& p : phase) p = rng.below(64);

  std::vector<armus::BlockedStatus> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t self = order[k];
    armus::BlockedStatus status;
    status.task = tasks[self];
    status.registered.push_back({phasers[self], phase[self]});
    if (k + 1 < n) {
      const std::size_t next = order[k + 1];
      status.waits.push_back({phasers[next], phase[next] + 1});
    } else {
      status.waits.push_back({phasers[n], 1});
    }
    out.push_back(std::move(status));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.task < b.task; });
  return out;
}

std::vector<std::uint64_t> arrival_schedule(std::uint64_t seed, std::size_t n,
                                            std::uint64_t window_ns) {
  armus::util::Xoshiro256 rng(seed);
  std::vector<double> cumulative(n + 1);
  double sum = 0;
  for (double& c : cumulative) {
    sum += -std::log1p(-rng.uniform());  // Exp(1)
    c = sum;
  }
  std::vector<std::uint64_t> due(n);
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = static_cast<std::uint64_t>(static_cast<double>(window_ns) *
                                        cumulative[k] / sum);
  }
  return due;
}

std::array<std::string, 2> fleet_payloads(std::uint64_t seed,
                                          std::uint32_t site,
                                          std::size_t statuses) {
  armus::util::Xoshiro256 rng(derive_seed(seed, site));
  const armus::TaskId base = 1 + statuses * rng.below(200);
  std::vector<armus::TaskId> tasks(statuses);
  std::vector<armus::PhaserUid> phasers(statuses + 1);
  std::iota(tasks.begin(), tasks.end(), base);
  std::iota(phasers.begin(), phasers.end(), base);
  std::vector<armus::BlockedStatus> chain =
      chain_statuses(rng(), tasks, phasers);
  std::array<std::string, 2> out;
  out[0] = armus::dist::encode_statuses(chain);
  for (armus::BlockedStatus& status : chain) {
    for (auto& wait : status.waits) ++wait.phase;
    for (auto& reg : status.registered) ++reg.local_phase;
  }
  out[1] = armus::dist::encode_statuses(chain);
  return out;
}

}  // namespace perfbench
