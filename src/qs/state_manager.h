// The query state (QS) manager (§3, §6): the registry of retained
// execution state — module hash tables and probe caches — with
// pinning, memory accounting, and cache replacement.
//
// The registry is what makes reuse work, and it is the only list of
// retained tables: every module-table copy the plan grafter builds is
// registered under its (sharing scope, expression signature) key, the
// memory budget counts every copy, and eviction treats each copy as
// one item. The grafter asks it for the fullest copy of a
// subexpression to drive RecoverState replays, and has it backfill
// each new or reused module table from the fullest copy (or from a
// copy demoted to disk) before the table consumes new arrivals.

#ifndef QSYS_QS_STATE_MANAGER_H_
#define QSYS_QS_STATE_MANAGER_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/buffer/spill_manager.h"
#include "src/exec/atc.h"
#include "src/obs/explain.h"
#include "src/obs/trace.h"
#include "src/opt/stats_registry.h"
#include "src/qs/eviction.h"
#include "src/source/delay_model.h"
#include "src/source/source_manager.h"

namespace qsys {

/// \brief Tracks reusable state across plan graphs and across time.
class StateManager {
 public:
  StateManager(SourceManager* sources, int64_t memory_budget_bytes,
               EvictionPolicy policy)
      : sources_(sources),
        memory_budget_bytes_(memory_budget_bytes),
        policy_(policy) {}

  // ---- module-table registry (reuse + recovery) ----

  /// Lists `table`, which `owner` fills with arrivals of expression
  /// `expr_signature` under sharing scope `tag`, as one more copy under
  /// that key, stamped `now` for the replacement policy. Registering a
  /// listed table again refreshes its owner and stamp and keeps its
  /// place. Copies stay listed after eviction clears them.
  void RegisterModuleTable(int tag, const std::string& expr_signature,
                           JoinHashTable* table, MJoinOp* owner,
                           VirtualTime now);

  /// The fullest copy listed under (tag, signature); among equally full
  /// copies the oldest registration. nullptr when none is listed. Every
  /// copy of one key is a prefix of the same arrival sequence — copies
  /// drift apart as their operators deactivate at different times — so
  /// the fullest is the most complete prefix.
  JoinHashTable* FullestModuleTable(int tag,
                                    const std::string& expr_signature) const;

  /// Tops `dest` up to the most complete state held for (tag,
  /// signature): the parked disk copy when it is fuller than every
  /// listed copy (faulted in at disk cost), else the fullest copy's
  /// entries `dest` lacks (arrival order, identity-deduplicated, at
  /// join-output cost). Either cost is charged to `ctx`. `dest` then
  /// covers the disk copy, which is dropped. Returns the entries added.
  int64_t BackfillModuleTable(int tag, const std::string& expr_signature,
                              JoinHashTable* dest, ExecContext& ctx);

  // ---- statistics feedback ----

  StatsRegistry& observed_stats() { return observed_; }
  const StatsRegistry& observed_stats() const { return observed_; }

  /// Records stream progress for all sources (called at batch
  /// boundaries so the next optimization sees fresh numbers).
  void SnapshotSourceStats();

  // ---- memory accounting & eviction (§6.3) ----

  int64_t memory_budget_bytes() const { return memory_budget_bytes_; }

  /// Sets the budget and enforces it immediately: lowering the budget
  /// below current usage evicts (or spills) right away rather than
  /// waiting for the next batch-flush EnforceBudget call site.
  void set_memory_budget_bytes(int64_t b);

  /// Total bytes across every registered table copy and probe cache.
  int64_t TotalCacheBytes() const;

  /// Enforces the budget: evicts unreferenced items — each table copy
  /// is one item — per the policy until under budget. Returns the
  /// number of items evicted. A table victim that another listed copy
  /// or the parked disk copy already covers is cleared without I/O.
  /// With a spill tier attached, any other victim whose estimated
  /// spill-read cost undercuts its recompute cost is serialized to disk
  /// before its memory is freed (demotion instead of destruction).
  int EnforceBudget(VirtualTime now);

  int64_t evictions() const { return evictions_; }

  // ---- disk-spill tier (src/buffer/) ----

  /// Attaches the spill tier. `delays` supplies the cost constants for
  /// the spill-vs-drop decision and restore charging. Both must
  /// outlive this manager.
  void AttachSpill(SpillManager* spill, const DelayParams* delays);

  struct RestoreOutcome {
    int64_t entries = 0;
    int64_t bytes = 0;
  };

  /// Faults the spilled table for (tag, signature) back from disk,
  /// appending its entries — original arrival order, original epochs —
  /// to `dest`. Returns zeros when nothing is spilled under the key.
  /// The disk copy is dropped: `dest` now holds its entries.
  RestoreOutcome RestoreSpilledTable(int tag,
                                     const std::string& expr_signature,
                                     JoinHashTable* dest);

  /// Items demoted to disk / restored from disk by this manager.
  int64_t spills() const { return spills_; }
  int64_t spill_restores() const {
    return spill_restores_.load(std::memory_order_relaxed);
  }

  /// Virtual time to page `bytes` of spilled state back from local
  /// disk — the single cost formula behind the spill-vs-drop decision
  /// and every restore charge.
  VirtualTime SpillReadCostUs(int64_t bytes) const;

  /// Attaches the serving trace sink (may be null). Budget enforcement
  /// records one kEvict instant (arg = victims) per eviction pass.
  void set_tracer(Tracer* tracer, int shard) {
    tracer_ = tracer;
    trace_shard_ = shard;
  }

  /// Attaches the decision journal (may be null). Budget enforcement
  /// records engine-scope events: one kEvictPass per pass and one
  /// kEvictVictim per victim with the demote-vs-reexecute cost
  /// comparison behind its spill decision; restores record
  /// kSpillRestore (possibly from an ATC drain worker on a probe
  /// spill fault — the journal locks internally).
  void set_journal(DecisionJournal* journal, int shard) {
    journal_ = journal;
    journal_shard_ = shard;
  }

 private:
  struct TableEntry {
    JoinHashTable* table = nullptr;
    MJoinOp* owner = nullptr;
    VirtualTime last_used_us = 0;
  };

  static std::string Key(int tag, const std::string& sig) {
    return std::to_string(tag) + "/" + sig;
  }

  /// FullestModuleTable by registry key.
  JoinHashTable* FullestCopy(const std::string& key) const;

  /// True when a copy other than `victim` listed under `key`, or the
  /// disk copy parked under it, holds at least as many entries: the
  /// victim's state survives its eviction without being demoted.
  bool Covered(const std::string& key, const JoinHashTable* victim) const;

  /// True when demoting `item` to disk beats rebuilding it later:
  /// estimated spill-read cost (payload bytes over local-disk
  /// bandwidth) below estimated recompute cost (re-streaming /
  /// re-probing over the wide-area network).
  bool ShouldSpill(const CacheItem& item, int64_t entries) const;

  /// Estimated virtual cost of rebuilding `item` from the sources if
  /// destroyed — the right-hand side of the spill decision.
  double RecomputeCostUs(const CacheItem& item, int64_t entries) const;

  /// Records one kEvictVictim engine-scope event (no-op without a
  /// journal).
  void JournalVictim(const CacheItem& item, int64_t entries,
                     bool spilled) const;

  SourceManager* sources_;
  int64_t memory_budget_bytes_;
  EvictionPolicy policy_;
  /// Key(tag, signature) -> every registered copy, oldest first.
  std::unordered_map<std::string, std::vector<TableEntry>> tables_;
  StatsRegistry observed_;
  int64_t evictions_ = 0;
  SpillManager* spill_ = nullptr;
  const DelayParams* spill_delays_ = nullptr;
  int64_t spills_ = 0;
  /// Atomic: probe spill-fault restores run on whichever ATC drain
  /// worker first misses the evicted cache (see EnforceBudget), so
  /// under multi-core epochs this counter is bumped off the
  /// coordinator thread.
  std::atomic<int64_t> spill_restores_{0};
  /// Timestamp of the latest registration/enforcement, so the
  /// immediate enforcement in set_memory_budget_bytes has a clock.
  VirtualTime last_now_us_ = 0;
  /// Serving trace sink (null in the simulator).
  Tracer* tracer_ = nullptr;
  int trace_shard_ = 0;
  /// Decision journal (null unless explain is enabled).
  DecisionJournal* journal_ = nullptr;
  int journal_shard_ = 0;
};

}  // namespace qsys

#endif  // QSYS_QS_STATE_MANAGER_H_
