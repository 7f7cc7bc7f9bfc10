// Deterministic serving scenarios for the differential fuzz harness.
//
// A Scenario is a complete, replayable description of one serving run:
// which generated workload, which queries in which order, how they are
// grouped into submission waves, how many shards and executor threads,
// whether the spill tier is attached, the memory budget, and an
// optional mid-run budget drop. Scenarios round-trip through a one-line
// string (ToString/Parse), so a failing run prints as something a
// developer pastes straight back into a regression test.
//
// The harness (src/sim/runner.h) executes scenarios against the real
// QueryService and compares per-query answers byte-for-byte against a
// fresh single-shard oracle; the shrinker (src/sim/shrink.h) minimizes
// failing scenarios. GenerateScenario derives the whole shape from one
// seed with no stdlib-distribution dependence, so scenario N is the
// same bytes on every platform and toolchain.

#ifndef QSYS_SIM_SCENARIO_H_
#define QSYS_SIM_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace qsys::sim {

/// \brief One replayable serving run.
struct Scenario {
  /// Workload-generator seed and size: the scenario draws its queries
  /// from GenerateBioWorkload(seed, size) over the fixed GUS dataset.
  uint64_t workload_seed = 7;
  int workload_size = 10;

  /// Submission order: indices into the generated workload. Repeats
  /// are allowed (and generated on purpose — repeated queries exercise
  /// warm grafts onto retained state).
  std::vector<int> order;

  /// Wave sizes; must sum to order.size(). Each wave is submitted,
  /// pumped to completion, and only then is the next wave submitted —
  /// so wave boundaries are exactly the warm-graft boundaries.
  std::vector<int> waves;

  int shards = 1;
  int exec_threads = 1;

  /// Whether the disk-spill tier is attached (evictions demote instead
  /// of destroy).
  bool spill = true;

  /// Cache budget in bytes; 0 = unlimited (the engine default).
  int64_t budget_bytes = 0;

  /// Mid-run budget drop: after wave `drop_after_wave` completes the
  /// budget is lowered to `drop_to_bytes` on every shard (which evicts
  /// immediately). drop_after_wave = -1 disables.
  int drop_after_wave = -1;
  int64_t drop_to_bytes = 0;

  /// Shard fault injection (src/shard/fault_injection.h): kNone runs
  /// clean; kCrash fails fault_shard's executor terminally at its
  /// fault_seq-th epoch drive; kStall freezes its heartbeat from that
  /// drive on. Serialized as `fault=crash@<shard>:<seq>` /
  /// `fault=stall@<shard>:<seq>`; the key is optional on Parse (and
  /// omitted from ToString when kNone) so pre-fault reproducer strings
  /// stay valid.
  enum class Fault { kNone = 0, kCrash, kStall };
  Fault fault = Fault::kNone;
  int fault_shard = 0;
  int64_t fault_seq = 0;

  /// Whether the harness asserts byte-equivalence against the oracle.
  /// Destroying evicted hash tables under a finite budget *without* a
  /// spill tier loses stream arrivals by design (§6.3) — those runs
  /// are executed for robustness (no crash, no hang) but not checked.
  /// A mid-run drop imposes a finite budget too, even when the run
  /// starts unlimited.
  bool CheckedForEquivalence() const {
    return spill || (budget_bytes == 0 && drop_after_wave < 0);
  }

  /// Total queries submitted.
  int NumQueries() const { return static_cast<int>(order.size()); }

  /// One-line replayable form, e.g.
  ///   "sim1 wseed=7 wn=10 order=0,1,2 waves=2,1 shards=1 threads=1
  ///    spill=1 budget=65536 drop=32768@0"
  std::string ToString() const;

  /// Inverse of ToString. Validates wave/order consistency.
  static Result<Scenario> Parse(const std::string& text);

  /// Coarse shape key for coverage reporting: every knob except the
  /// concrete query indices.
  std::string ShapeKey() const;
};

/// Derives a full scenario from `seed` (pure function of the seed).
Scenario GenerateScenario(uint64_t seed);

/// GenerateScenario(seed) plus a shard fault (crash or stall) drawn
/// from an independent rng stream: the base shape for a seed is
/// bit-identical to the fault-free generator's.
Scenario GenerateFaultScenario(uint64_t seed);

}  // namespace qsys::sim

#endif  // QSYS_SIM_SCENARIO_H_
