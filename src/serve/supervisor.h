// ShardSupervisor: the health state machine behind QueryService's
// fault tolerance.
//
// The supervisor is a pure policy object. Each supervision pass the
// service feeds it one Observation per shard — the shard's heartbeat
// counter (EngineShard::heartbeat), whether its executor has exited,
// whether its terminal status is a failure, and whether any in-flight
// query is pinned to it — and the supervisor answers with a Verdict:
// has this shard just failed (fail its in-flight queries over now),
// and should its engine be restarted. Keeping the state machine free
// of threads and shard pointers makes the detection rules directly
// unit-testable (tests/fault_tolerance_test.cc) and keeps
// QueryService's supervision loop a thin driver.
//
// Health model:
//  - kHealthy: heartbeat advancing, terminal OK.
//  - kStalled: pending work but a frozen heartbeat for longer than
//    stall_timeout_us. The executor may still be alive (wedged), so a
//    stalled shard is failed over but never restarted from this state;
//    it is marked down and traffic routes around it.
//  - kCrashed: terminal status is a failure (the executor exited or is
//    exiting). Failed over immediately; restartable once the executor
//    has exited, until max_restarts_per_shard is spent.
//  - kRestarting: a restart attempt is in flight (one at a time).
//  - kDown: permanently out of rotation (stall, restart budget spent,
//    or a failed restart).
//
// Failure is sticky: a shard only leaves kStalled/kCrashed/kDown via a
// successful restart, never by its heartbeat "coming back" — a query
// failed over must not race a zombie's late revival.

#ifndef QSYS_SERVE_SUPERVISOR_H_
#define QSYS_SERVE_SUPERVISOR_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace qsys {

/// \brief Detection / restart policy knobs (see ServiceOptions).
struct SupervisorPolicy {
  /// Declare a shard stalled after this long with pending work and a
  /// frozen heartbeat. 0 disables stall detection.
  int64_t stall_timeout_us = 0;
  /// Restart budget per shard; beyond it a crashed shard goes kDown
  /// (0 = never restart).
  int max_restarts_per_shard = 1;
};

/// \brief Per-shard health state machine. Thread-safe.
class ShardSupervisor {
 public:
  enum class ShardState {
    kHealthy = 0,
    kStalled,
    kCrashed,
    kRestarting,
    kDown,
  };

  /// One shard's health inputs for one supervision pass.
  struct Observation {
    int64_t heartbeat = 0;
    bool executor_finished = false;
    bool terminal_failed = false;
    /// Any in-flight query pinned to the shard. Stall detection only
    /// fires with pending work: an idle shard's frozen heartbeat is
    /// just idleness.
    bool has_pending = false;
  };

  /// What the service should do about one shard right now.
  struct Verdict {
    ShardState state = ShardState::kHealthy;
    /// True exactly once per failure: fail over the shard's in-flight
    /// queries (retry elsewhere / resolve terminally).
    bool newly_failed = false;
    /// True when a restart attempt should be made now; the service
    /// reports the result via OnRestartSucceeded/OnRestartFailed.
    bool should_restart = false;
  };

  ShardSupervisor(int num_shards, SupervisorPolicy policy);

  /// Folds one observation into shard `shard`'s state machine.
  Verdict Observe(int shard, const Observation& obs, int64_t now_us);

  /// Restart attempt outcomes (shard was kRestarting).
  void OnRestartSucceeded(int shard);
  void OnRestartFailed(int shard);

  ShardState state(int shard) const;
  /// Successful restarts of shard `shard`.
  int64_t restarts(int shard) const;
  /// True when the shard should receive no new traffic.
  bool out_of_rotation(int shard) const;

  /// Jittered exponential backoff for retry attempt `attempt` (1-based):
  /// base_ms << (attempt-1), capped at max_ms, then jittered uniformly
  /// to 50–150% so a failed shard's queries do not retry in lockstep.
  /// `rng_state` is splitmix64 state, advanced per call. Exposed for
  /// the retry path and pinned by tests/fault_tolerance_test.cc.
  static int64_t BackoffUs(int attempt, int64_t base_ms, int64_t max_ms,
                           uint64_t* rng_state);

 private:
  struct Health {
    ShardState state = ShardState::kHealthy;
    int64_t last_heartbeat = INT64_MIN;  // forces "advanced" on first pass
    int64_t last_progress_us = 0;
    int64_t restarts = 0;
  };

  const SupervisorPolicy policy_;
  mutable std::mutex mu_;
  std::vector<Health> shards_;
};

}  // namespace qsys

#endif  // QSYS_SERVE_SUPERVISOR_H_
