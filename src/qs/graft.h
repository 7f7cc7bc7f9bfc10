// Grafting new query plan graphs onto running ones (§6.2).
//
// Each optimized batch yields PlanSpecs; the grafter materializes them
// inside an ATC's live graph: existing m-joins are matched (by expression
// and module structure) and reused together with their hash-table state;
// unmatched components become new operators. Every module table of a
// grafted operator is *backfilled* by the state manager from the state
// earlier executions retained under its signature, then registered
// there as one more copy, so future arrivals join against everything
// that was already read. The grafter keeps no table list of its own.
// Conjunctive queries whose streaming inputs were all partially consumed
// additionally get a RecoverState query (Algorithm 2), driven from the
// state manager's fullest copies, for the all-buffered results.

#ifndef QSYS_QS_GRAFT_H_
#define QSYS_QS_GRAFT_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/explain.h"
#include "src/opt/optimizer.h"
#include "src/qs/recover.h"
#include "src/qs/state_manager.h"

namespace qsys {

/// \brief Builds/merges plan specs into ATC graphs. One grafter per
/// system; it remembers producer wiring so operator reuse is sound.
class PlanGrafter {
 public:
  PlanGrafter(const Catalog* catalog, SourceManager* sources,
              StateManager* state)
      : catalog_(catalog), sources_(sources), state_(state) {}

  /// Attaches the decision journal (may be null): graft decisions —
  /// component reuse vs fresh build, replay vs watermark skip, recovery
  /// queries, inherited warm prefixes — are recorded per user query.
  void set_journal(DecisionJournal* journal, int shard) {
    journal_ = journal;
    journal_shard_ = shard;
  }

  /// Grafts `group` (one optimized PlanSpec) into `atc` under sharing
  /// scope `tag`. `uqs` must contain the user query of every CQ the spec
  /// covers. Advances the ATC's epoch.
  Status Graft(const OptimizedGroup& group,
               const std::vector<const UserQuery*>& uqs, Atc* atc, int tag);

  /// Number of recovery queries built so far (observability).
  int64_t recoveries_built() const { return recoveries_built_; }
  /// Number of m-join operators reused instead of rebuilt.
  int64_t ops_reused() const { return ops_reused_; }
  /// Tuples copied while backfilling fresh modules from retained state.
  int64_t tuples_backfilled() const { return tuples_backfilled_; }
  /// Buffered tuples re-derived through upstream producers' joins at
  /// graft time (hierarchical warm-state completeness).
  int64_t tuples_rederived() const { return tuples_rederived_; }
  /// Buffered tuples a warm graft skipped because the producer's
  /// replay watermark showed them already replayed (steady-state warm
  /// grafts are O(new entries) instead of O(whole prefix)).
  int64_t tuples_rederived_skipped() const {
    return tuples_rederived_skipped_;
  }

 private:
  RankMergeOp* GetOrCreateMerge(Atc* atc, const UserQuery& uq);

  /// Backfills every module table of `op` through the state manager
  /// (BackfillModuleTable) and registers it under (tag, signature) as
  /// a copy `op` owns. Counts the backfilled tuples and returns them.
  int64_t BackfillAndRegister(MJoinOp* op, int tag, ExecContext& ctx);

  /// Warm-state completeness for *hierarchical* plans: backfill
  /// equalizes same-signature module tables, but an upstream producer's
  /// output table has no prior copy when the component shape is new —
  /// and a producer only emits on fresh arrivals, so join combos made
  /// entirely of already-buffered leaf prefixes would never reach the
  /// downstream module tables (new arrivals then probe an incomplete
  /// prefix and silently lose results; the zero-result warm-graft bug).
  /// This pass replays each root producer's buffered prefix through its
  /// own join, re-deriving those combos into every attached consumer
  /// (identity dedup at each table and the merges' per-CQ dedup absorb
  /// re-derivations). `ctx.epoch` must be the pre-graft epoch so the
  /// derived state stays visible to this epoch's recovery queries.
  ///
  /// Steady-state warm grafts are incremental: a per-producer replay
  /// watermark records how much of each stream module has already been
  /// replayed (or live-consumed up to the last graft), and only the
  /// suffixes past it are re-offered — every combo containing at least
  /// one post-watermark tuple is derived when that module's suffix
  /// replays against the already-backfilled sibling tables, and every
  /// all-pre-watermark combo was derived before. A *full* replay (the
  /// original smallest-module drive) runs only when it must: a fresh
  /// consumer was attached anywhere downstream of the producer this
  /// graft, stale state was detected (`warmed_ops` — any op whose
  /// tables needed backfill/restore, meaning derived combos may have
  /// been evicted with them), a module table shrank below its
  /// watermark, or the producer has never been replayed.
  /// Returns the number of tuples replayed.
  int64_t RederivePrefixes(const PlanSpec& spec,
                           const std::vector<MJoinOp*>& comp_ops,
                           const std::vector<bool>& comp_reused,
                           const std::set<const MJoinOp*>& warmed_ops,
                           ExecContext& ctx);

  /// True if `candidate` can stand in for `comp`: built under the same
  /// sharing scope (`tag`), same expression, same module structure, and
  /// every upstream feeder is the operator we resolved for that
  /// upstream component. (Recovery m-joins, the only ones with frozen
  /// modules, are never candidates: FindMJoins does not list them.)
  bool Matches(const MJoinOp* candidate, const PlanSpec& spec,
               const PlanSpec::Component& comp,
               const std::vector<MJoinOp*>& comp_ops,
               const std::vector<bool>& comp_reused, int tag) const;

  const Catalog* catalog_;
  SourceManager* sources_;
  StateManager* state_;
  DecisionJournal* journal_ = nullptr;
  int journal_shard_ = 0;
  /// child op -> upstream producer ops (wiring memory for safe reuse).
  std::unordered_map<const MJoinOp*, std::vector<const MJoinOp*>>
      producers_;
  /// op -> sharing scope it was built under (reuse is scope-local).
  std::unordered_map<const MJoinOp*, int> op_tag_;
  /// Producer op -> per-stream-module replay watermark: entry counts up
  /// to which every purely-buffered combo has been derived into the
  /// op's downstream consumers (advanced by each replay; reset to a
  /// full replay when a fresh consumer attaches or staleness is
  /// detected).
  std::unordered_map<const MJoinOp*, std::vector<int64_t>> replayed_upto_;
  /// Op -> per-stream-module entry counts as of the end of its last
  /// graft. A reused op whose table holds *fewer* entries than this was
  /// evicted in between (eviction clears whole tables) — derived combos
  /// downstream of it may be gone even when backfill found nothing
  /// fuller to copy (the cleared table was the only holder of its
  /// signature and nothing was spilled), so it must taint the
  /// replay watermark like a backfilled op does.
  std::unordered_map<const MJoinOp*, std::vector<int64_t>>
      counts_at_last_graft_;
  int64_t recoveries_built_ = 0;
  int64_t ops_reused_ = 0;
  int64_t tuples_backfilled_ = 0;
  int64_t tuples_rederived_ = 0;
  int64_t tuples_rederived_skipped_ = 0;
};

}  // namespace qsys

#endif  // QSYS_QS_GRAFT_H_
