// Fault injection for shard executors.
//
// EngineShard consults an optional ShardFaultInjector at the top of
// every epoch drive, letting tests and the differential fuzz harness
// (src/sim/) inject the failure modes a production shard fleet
// produces — a crashed executor, a wedged (stalled) executor whose
// heartbeat freezes, and slow completion delivery — deterministically
// from a scripted plan. Mirrors the spill tier's
// SegmentFaultInjector (src/buffer/fault_injection.h): a pure test
// seam consulted at one choke point, costing nothing when absent.
//
// The serving contract under these faults is the fault-tolerance
// layer's invariant set: every submitted query still reaches a
// terminal status (answer, kDeadlineExceeded, or kUnavailable), the
// ShardSupervisor detects the frozen heartbeat / failed terminal and
// re-routes in-flight queries, and answers re-computed on a healthy
// shard stay byte-equivalent to the no-fault oracle.
//
// Stall semantics by drive mode:
//  - threaded executors BLOCK inside the injector's gate with a frozen
//    heartbeat until ReleaseStalls() — tests release at shutdown so
//    the thread is join-able and sanitizer-clean;
//  - manual-pump drivers (tests, src/sim/) cannot block the pump, so a
//    stalled shard instead *skips* its epoch without ticking the
//    heartbeat: identical observable symptom (pending work, frozen
//    heartbeat), no blocked caller.

#ifndef QSYS_SHARD_FAULT_INJECTION_H_
#define QSYS_SHARD_FAULT_INJECTION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace qsys {

/// \brief Decides, per epoch drive, whether a shard misbehaves.
class ShardFaultInjector {
 public:
  enum class Action {
    kNone = 0,   ///< drive the epoch normally
    kCrash,      ///< executor fails terminally (kUnavailable)
    kStall,      ///< wedge: no work, frozen heartbeat, until released
    kDelay,      ///< drive the epoch after sleeping `delay_us`
  };

  struct Decision {
    Action action = Action::kNone;
    /// kDelay only: microseconds to sleep before driving the epoch.
    int64_t delay_us = 0;
  };

  virtual ~ShardFaultInjector() = default;

  /// Consulted by shard `shard` before its `seq`-th epoch drive (a
  /// per-shard monotone counter that survives engine restarts). Called
  /// from executor threads — implementations shared across shards must
  /// synchronize internally.
  virtual Decision OnEpochDrive(int shard, int64_t seq) = 0;

  /// Blocks a threaded executor for the duration of a stall; returns
  /// immediately once released. Heartbeats freeze while blocked.
  void BlockWhileStalled();

  /// Ends every current and future stall (turns kStall decisions into
  /// no-ops for implementations that honor released()). Tests call
  /// this before shutdown so stalled executors become join-able.
  void ReleaseStalls();

  /// True after ReleaseStalls().
  bool released() const;

 private:
  mutable std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool released_ = false;
};

/// \brief Scripted, deterministic shard-fault plan: one target shard,
/// one-shot crash/stall triggers at fixed epoch-drive sequence
/// numbers, optional per-drive completion delay. Same plan + same
/// drive sequence = same faults.
struct ShardFaultPlan {
  /// Shard the plan applies to; other shards run clean.
  int target_shard = 0;
  /// Crash the target's executor on this drive sequence number
  /// (one-shot: a supervisor-restarted engine runs clean). -1 = never.
  int64_t crash_at_seq = -1;
  /// Wedge the target from this drive sequence number on (sticky until
  /// ReleaseStalls()). -1 = never.
  int64_t stall_at_seq = -1;
  /// Sleep this long before every epoch drive on the target (delayed
  /// completion delivery). 0 = no delay.
  int64_t delay_us = 0;
};

/// \brief ShardFaultInjector executing a ShardFaultPlan.
class ScriptedShardFaultInjector : public ShardFaultInjector {
 public:
  explicit ScriptedShardFaultInjector(ShardFaultPlan plan) : plan_(plan) {}

  Decision OnEpochDrive(int shard, int64_t seq) override;

  /// True once the crash trigger has fired.
  bool crash_fired() const;

 private:
  const ShardFaultPlan plan_;
  mutable std::mutex mu_;
  bool crash_fired_ = false;
};

}  // namespace qsys

#endif  // QSYS_SHARD_FAULT_INJECTION_H_
