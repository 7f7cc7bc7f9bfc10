// Fault injection for the spill tier's segment I/O.
//
// SegmentFile consults an optional SegmentFaultInjector before every
// ::open / ::pwrite / ::pread, letting tests drive the exact failure
// modes local scratch disks produce — failed opens, ENOSPC, EIO, and
// short transfers — deterministically from a seed. The spill tier's
// contract under these faults is *degradation, never data loss*: a
// failed demotion keeps the victim in memory, a failed restore leaves
// the destination untouched, and every survived fault is counted in
// SpillStats::spill_faults (answers never change, only counters).
//
// The injector is a test seam, not a durability mechanism: production
// engines run with no injector installed and pay nothing for it.

#ifndef QSYS_BUFFER_FAULT_INJECTION_H_
#define QSYS_BUFFER_FAULT_INJECTION_H_

#include <cerrno>
#include <cstdint>
#include <mutex>
#include <random>

namespace qsys {

/// \brief Decides, per raw segment I/O call, whether to inject a fault.
class SegmentFaultInjector {
 public:
  enum class Op { kOpen = 0, kWrite = 1, kRead = 2 };

  /// What to do to the next I/O call: fail it with `err`, deliver a
  /// short transfer, or (both zero/false) let it through.
  struct Fault {
    int err = 0;
    bool short_io = false;
  };

  virtual ~SegmentFaultInjector() = default;

  /// Consulted by SegmentFile immediately before the raw syscall.
  /// Called under the owning SpillManager's mutex (SpillManager::mu_)
  /// — implementations shared across engines must synchronize
  /// internally.
  virtual Fault Next(Op op) = 0;
};

/// \brief Seeded fault schedule with per-operation probabilities.
struct FaultPlan {
  uint64_t seed = 1;
  /// Probability that a segment-file open fails outright.
  double open_fail_p = 0.0;
  /// Probability that one pwrite fails with `write_errno` (ENOSPC by
  /// default — the canonical full-scratch-disk failure).
  double write_error_p = 0.0;
  /// Probability that one pwrite transfers only part of its buffer
  /// (the write loop must finish the page across calls).
  double write_short_p = 0.0;
  /// Probability that one pread fails with `read_errno` (EIO).
  double read_error_p = 0.0;
  /// Probability that one pread returns fewer bytes than asked.
  double read_short_p = 0.0;
  int write_errno = ENOSPC;
  int read_errno = EIO;
  /// Transiency bound: at most this many *consecutive* injected hard
  /// errors per operation kind, after which the next call is forced
  /// through. The spill tier's bounded per-page retry (which makes
  /// injected read and write faults answer-preserving) relies on this
  /// bound being below its retry budget.
  int max_consecutive_errors = 2;
};

/// \brief Deterministic injector: same plan + same call sequence means
/// the same faults. Thread-safe (one internal mutex).
class SeededFaultInjector : public SegmentFaultInjector {
 public:
  explicit SeededFaultInjector(FaultPlan plan)
      : plan_(plan), rng_(plan.seed) {}

  Fault Next(Op op) override;

  /// Hard errors injected for `op` so far.
  int64_t injected(Op op) const;
  /// Hard errors injected across all operations.
  int64_t injected_total() const;
  /// Short transfers injected across all operations.
  int64_t short_ios() const;

 private:
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::mt19937_64 rng_;
  int consecutive_[3] = {0, 0, 0};
  int64_t injected_[3] = {0, 0, 0};
  int64_t short_ios_[3] = {0, 0, 0};
};

}  // namespace qsys

#endif  // QSYS_BUFFER_FAULT_INJECTION_H_
