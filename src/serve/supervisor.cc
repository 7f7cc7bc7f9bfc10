#include "src/serve/supervisor.h"

#include <algorithm>

namespace qsys {

ShardSupervisor::ShardSupervisor(int num_shards, SupervisorPolicy policy)
    : policy_(policy), shards_(static_cast<size_t>(num_shards)) {}

ShardSupervisor::Verdict ShardSupervisor::Observe(int shard,
                                                  const Observation& obs,
                                                  int64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Health& h = shards_[static_cast<size_t>(shard)];
  Verdict v;

  switch (h.state) {
    case ShardState::kHealthy: {
      if (obs.terminal_failed) {
        h.state = ShardState::kCrashed;
        v.newly_failed = true;
        break;
      }
      // Heartbeat comparison is by *change*, not increase: a restarted
      // engine's progress counter starts over, so the counter is not
      // globally monotone.
      if (obs.heartbeat != h.last_heartbeat) {
        h.last_heartbeat = obs.heartbeat;
        h.last_progress_us = now_us;
        break;
      }
      if (!obs.has_pending) {
        // Idle: a frozen heartbeat with nothing to do is not a stall.
        h.last_progress_us = now_us;
        break;
      }
      if (policy_.stall_timeout_us > 0 &&
          now_us - h.last_progress_us >= policy_.stall_timeout_us) {
        h.state = ShardState::kStalled;
        v.newly_failed = true;
      }
      break;
    }
    case ShardState::kCrashed: {
      if (h.restarts < policy_.max_restarts_per_shard) {
        if (obs.executor_finished) {
          h.state = ShardState::kRestarting;
          v.should_restart = true;
        }
        // else: wait for the dying executor to exit.
      } else {
        h.state = ShardState::kDown;
      }
      break;
    }
    case ShardState::kStalled:
      // The wedged executor may never exit; never restart from a
      // stall. Sticky-down until operator intervention.
      h.state = ShardState::kDown;
      break;
    case ShardState::kRestarting:
    case ShardState::kDown:
      break;
  }
  v.state = h.state;
  return v;
}

void ShardSupervisor::OnRestartSucceeded(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  Health& h = shards_[static_cast<size_t>(shard)];
  h.state = ShardState::kHealthy;
  h.restarts += 1;
  // Force the next pass to read the fresh engine's counter as
  // progress.
  h.last_heartbeat = INT64_MIN;
}

void ShardSupervisor::OnRestartFailed(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_[static_cast<size_t>(shard)].state = ShardState::kDown;
}

ShardSupervisor::ShardState ShardSupervisor::state(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[static_cast<size_t>(shard)].state;
}

int64_t ShardSupervisor::restarts(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[static_cast<size_t>(shard)].restarts;
}

bool ShardSupervisor::out_of_rotation(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[static_cast<size_t>(shard)].state != ShardState::kHealthy;
}

int64_t ShardSupervisor::BackoffUs(int attempt, int64_t base_ms,
                                   int64_t max_ms, uint64_t* rng_state) {
  attempt = std::max(1, attempt);
  // base_ms << (attempt-1), saturating, capped at max_ms.
  int64_t ms = base_ms;
  for (int i = 1; i < attempt && ms < max_ms; ++i) ms <<= 1;
  ms = std::min(ms, std::max<int64_t>(base_ms, max_ms));
  ms = std::max<int64_t>(ms, 1);
  // splitmix64 step for the jitter draw.
  uint64_t z = (*rng_state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const int64_t us = ms * 1000;
  // Uniform in [us/2, 3*us/2): full backoff +/- 50%.
  return us / 2 + static_cast<int64_t>(z % static_cast<uint64_t>(us));
}

}  // namespace qsys
