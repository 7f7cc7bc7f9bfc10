#include "src/sim/shrink.h"

namespace qsys::sim {

namespace {

/// Wave index containing order position `pos`.
int WaveOfPosition(const Scenario& s, int pos) {
  int covered = 0;
  for (size_t w = 0; w < s.waves.size(); ++w) {
    covered += s.waves[w];
    if (pos < covered) return static_cast<int>(w);
  }
  return static_cast<int>(s.waves.size()) - 1;
}

/// Removes one order position, shrinking (and possibly deleting) its
/// containing wave and keeping the mid-run drop index valid.
Scenario DropPosition(const Scenario& s, int pos) {
  Scenario c = s;
  const int w = WaveOfPosition(s, pos);
  c.order.erase(c.order.begin() + pos);
  c.waves[static_cast<size_t>(w)] -= 1;
  if (c.waves[static_cast<size_t>(w)] == 0) {
    c.waves.erase(c.waves.begin() + w);
    if (c.drop_after_wave > w) c.drop_after_wave -= 1;
  }
  if (c.drop_after_wave >= static_cast<int>(c.waves.size())) {
    c.drop_after_wave = static_cast<int>(c.waves.size()) - 1;
  }
  return c;
}

}  // namespace

Scenario ShrinkScenario(const Scenario& failing,
                        const std::function<bool(const Scenario&)>& fails,
                        int max_runs, int* runs_used) {
  Scenario current = failing;
  int runs = 0;
  // One predicate evaluation = one full scenario run; accept a mutation
  // only when the failure survives it.
  auto keep_if_fails = [&](const Scenario& candidate) {
    if (runs >= max_runs) return false;
    ++runs;
    if (!fails(candidate)) return false;
    current = candidate;
    return true;
  };

  bool progress = true;
  while (progress && runs < max_runs) {
    progress = false;

    // Pass 1: drop order positions, last to first (later positions are
    // more often redundant repeats; dropping them first converges on
    // the triggering prefix fastest).
    for (int pos = current.NumQueries() - 1;
         pos >= 0 && current.NumQueries() > 1 && runs < max_runs; --pos) {
      if (pos >= current.NumQueries()) continue;  // list shrank under us
      if (keep_if_fails(DropPosition(current, pos))) progress = true;
    }

    // Pass 2: merge adjacent waves (every surviving wave boundary is a
    // load-bearing warm-graft boundary).
    for (size_t b = 0; b + 1 < current.waves.size() && runs < max_runs;) {
      Scenario candidate = current;
      candidate.waves[b] += candidate.waves[b + 1];
      candidate.waves.erase(candidate.waves.begin() +
                            static_cast<long>(b) + 1);
      if (candidate.drop_after_wave > static_cast<int>(b)) {
        candidate.drop_after_wave -= 1;
      }
      if (candidate.drop_after_wave >=
          static_cast<int>(candidate.waves.size())) {
        candidate.drop_after_wave =
            static_cast<int>(candidate.waves.size()) - 1;
      }
      if (keep_if_fails(candidate)) {
        progress = true;  // re-try the same boundary against the merge
      } else {
        ++b;
      }
    }

    // Pass 3: collapse parallelism.
    if (current.shards > 1 && runs < max_runs) {
      Scenario candidate = current;
      candidate.shards = 1;
      candidate.fault_shard = 0;  // keep an injected fault in range
      if (keep_if_fails(candidate)) progress = true;
    }
    if (current.exec_threads > 1 && runs < max_runs) {
      Scenario candidate = current;
      candidate.exec_threads = 1;
      if (keep_if_fails(candidate)) progress = true;
    }

    // Pass 4: relax memory pressure (drop first, then the budget, then
    // the spill tier — a reproducer that survives all three needs none
    // of them).
    if (current.drop_after_wave >= 0 && runs < max_runs) {
      Scenario candidate = current;
      candidate.drop_after_wave = -1;
      candidate.drop_to_bytes = 0;
      if (keep_if_fails(candidate)) progress = true;
    }
    if (current.budget_bytes != 0 && runs < max_runs) {
      Scenario candidate = current;
      candidate.budget_bytes = 0;
      if (keep_if_fails(candidate)) progress = true;
    }
    if (current.spill && runs < max_runs) {
      Scenario candidate = current;
      candidate.spill = false;
      if (keep_if_fails(candidate)) progress = true;
    }

    // Pass 5: relax the injected shard fault — a reproducer that still
    // fails without it is an ordinary serving bug, not a
    // fault-tolerance bug.
    if (current.fault != Scenario::Fault::kNone && runs < max_runs) {
      Scenario candidate = current;
      candidate.fault = Scenario::Fault::kNone;
      candidate.fault_shard = 0;
      candidate.fault_seq = 0;
      if (keep_if_fails(candidate)) progress = true;
    }
  }

  if (runs_used != nullptr) *runs_used = runs;
  return current;
}

}  // namespace qsys::sim
