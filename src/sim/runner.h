// Executes Scenarios against the real QueryService and checks them
// byte-for-byte against a single-shard oracle.
//
// RunScenario drives a manually-pumped service exactly the way the
// deterministic serving tests do: submit a wave, pump until every
// ticket in it resolves, apply any scheduled mid-run budget drop, move
// to the next wave, then drain-shutdown and fingerprint every answer
// with FingerprintResults — the same canonical rendering the
// cross-shard/threads/spill equivalence suite keys on.
//
// The oracle for a (workload_seed, workload_size) pair is one fresh
// run: single shard, one executor thread, unlimited budget, no spill
// tier, all queries in a single wave. The serving stack's correctness
// bar (pinned by tests/temporal_reuse_test.cc's permutation sweep) is
// that a query's top-k is a pure function of the query and the data —
// independent of co-batched queries, arrival order, warm grafts,
// shards, threads, and spill — so any scenario position whose
// fingerprint differs from the oracle's for the same workload query is
// a real divergence. Oracle runs are cached per workload pair, so a
// sweep pays for each oracle once.

#ifndef QSYS_SIM_RUNNER_H_
#define QSYS_SIM_RUNNER_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/buffer/fault_injection.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/sim/scenario.h"

namespace qsys::sim {

/// \brief Optional instrumentation for one scenario run.
struct SimOptions {
  /// Installed on every shard's spill manager after Start(): every
  /// spill-segment syscall consults it. The harness uses this to prove
  /// injected I/O faults change counters, never answers.
  SegmentFaultInjector* injector = nullptr;

  /// Shrinker self-test hook: deterministically corrupts the reported
  /// fingerprint of every query completed in wave index >= 1 — a
  /// planted "warm waves are broken" bug the shrinker must reduce to a
  /// <= 2-query, <= 2-wave reproducer. Never set outside that test.
  bool planted_warm_wave_bug = false;
};

/// \brief Everything one scenario run produced.
struct RunOutcome {
  /// False when the service lifecycle itself failed (start, pump, a
  /// wave that never completed, shutdown); `error` says why. Answer
  /// checking is meaningless when false.
  bool ran_ok = false;
  std::string error;

  /// Per-position fingerprints, parallel to Scenario::order. "" means
  /// that query resolved with a failure status.
  std::vector<std::string> fingerprints;

  /// Per-position terminal status strings, parallel to order; "" = OK.
  /// Under an injected shard fault a position may legitimately resolve
  /// kUnavailable/kDeadlineExceeded — CheckScenario only accepts that
  /// when the scenario carries a fault.
  std::vector<std::string> statuses;

  /// Fault-tolerance counters read back at shutdown.
  int64_t retries = 0;
  int64_t deadline_exceeded = 0;
  int64_t shard_restarts = 0;

  /// Non-empty when the counter surface is inconsistent: the resolution
  /// counters don't conserve submissions, or ServiceCounters and the
  /// Prometheus qsys_*_total families disagree. CheckScenario reports
  /// it as a divergence.
  std::string counter_error;

  /// Spill-tier gauges summed over all shards at shutdown.
  SpillStats spill;
};

/// Runs one scenario (no oracle comparison).
RunOutcome RunScenario(const Scenario& scenario, const SimOptions& options = {});

/// \brief One answer mismatch against the oracle.
struct Divergence {
  int position = 0;  ///< index into Scenario::order
  int query = 0;     ///< workload index at that position
  std::string got;
  std::string want;
  std::string ToString() const;
};

/// \brief Cache of per-workload oracle fingerprints.
class Oracle {
 public:
  /// Fingerprints of workload (seed, size), indexed by workload query
  /// index. Computed on first use (one fresh single-shard run), cached
  /// after.
  Result<std::vector<std::string>> Fingerprints(uint64_t workload_seed,
                                                int workload_size);

 private:
  std::map<std::pair<uint64_t, int>, std::vector<std::string>> cache_;
};

/// Runs `scenario` and compares it against the oracle. Returns the
/// first divergence, or nullopt when every checked position matched
/// (including scenarios CheckedForEquivalence() exempts — those only
/// assert the run completed). A run failure (timeout, lifecycle error)
/// is reported as a divergence at position -1 so sweeps never pass on
/// a hung configuration. `outcome_out`, when non-null, receives the
/// full run outcome (for fault counters and coverage accounting).
std::optional<Divergence> CheckScenario(const Scenario& scenario,
                                        Oracle& oracle,
                                        const SimOptions& options = {},
                                        RunOutcome* outcome_out = nullptr);

}  // namespace qsys::sim

#endif  // QSYS_SIM_RUNNER_H_
