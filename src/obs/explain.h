// The decision journal: a bounded, allocation-light structured log of
// every *sharing decision* the serving stack makes on a query's behalf —
// which ATC its batch landed in (and why), which plan the multi-query
// optimizer chose over which costed alternatives and by what margin,
// which plan components were grafted onto running operators vs built
// fresh, whether warm prefixes were replayed or watermark-skipped, and
// which eviction victims were demoted to disk vs destroyed.
//
// PR 6 (src/obs/trace.h) made *time* observable; this makes *decisions*
// observable: `QueryService::Explain(uq)` renders the journal of one
// resolved user query as deterministic structured text — no wall
// timestamps, no raw sharing tags, doubles via %.6g — so a fixed-seed
// workload explains byte-identically run to run.
//
// The journal also hosts the sharing-benefit attribution profiler:
// every warm stream prefix a grafted query inherits is credited to the
// user query that produced it (Credit()), giving the paper's Figure 7
// "per-query gain" as a live serving metric. The per-UQ totals
// reconcile exactly against ExecStats::tuples_shared_served.
//
// Off by default (QConfig::explain_journal_queries == 0): no journal is
// allocated and every record site in the optimizer / grafter / state
// manager / engine is a single null-pointer test. Recording sites run
// in the engines' coordinator-serialized sections except spill-fault
// restores (drain workers) and Explain() reads (client threads), so the
// journal serializes internally on one mutex.

#ifndef QSYS_OBS_EXPLAIN_H_
#define QSYS_OBS_EXPLAIN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/virtual_clock.h"

namespace qsys {

/// \brief The journal's event taxonomy — one kind per decision site.
enum class DecisionKind : int {
  /// Which ATC (plan graph) a user query's batch was assigned to, and
  /// under which sharing mode (engine.cc OptimizeAndGraft).
  kAtcAssign = 0,
  /// ATC-CL only: the Jaccard cluster-routing decision — best
  /// similarity found, and whether an existing plan graph was joined
  /// (engine.cc RouteBatch).
  kClusterRoute,
  /// The winning BestPlan assignment for one optimized group: its cost,
  /// the margin to the runner-up, and the search effort behind it.
  kOptChoice,
  /// One costed alternative the BestPlan search considered (rank 0 is
  /// the winner; at least two are always recorded per decision).
  kOptAlternative,
  /// One plan component grafted: reused a running operator vs built
  /// fresh, and whether its state needed a warm top-up.
  kGraftComponent,
  /// Graft-time full prefix replay through upstream producers, with its
  /// estimated virtual cost (warm-state completeness).
  kReplay,
  /// Replay avoided by the per-producer watermark, with the estimated
  /// virtual cost it saved.
  kWatermarkSkip,
  /// Warm stream prefix inherited from shared state: the attribution
  /// event (producer uq, tuples, estimated streaming cost saved).
  kSharedInherit,
  /// A RecoverState query (Algorithm 2) was built for a CQ whose
  /// streaming inputs were all partially consumed.
  kRecovery,
  /// One budget-enforcement pass: victims chosen, bytes over budget
  /// (engine scope — not attributable to one uq).
  kEvictPass,
  /// One eviction victim: size, the demote-vs-reexecute cost
  /// comparison, and whether it was spilled or destroyed (engine
  /// scope).
  kEvictVictim,
  /// A demoted item faulted back from the spill tier (engine scope;
  /// may fire on an ATC drain worker).
  kSpillRestore,
};

/// Stable snake_case name ("atc_assign", "opt_choice", ...).
const char* DecisionKindName(DecisionKind k);

/// \brief One journal entry: a fixed-size record (no per-event heap
/// allocation beyond vector growth) with kind-specific operand slots.
/// The meaning of a/b/c/x/y per kind is defined by the rendering table
/// in explain.cc; `label` holds a truncated deterministic descriptor
/// (an expression signature, a cache key) when the kind has one.
struct DecisionEvent {
  DecisionKind kind = DecisionKind::kAtcAssign;
  int shard = 0;
  /// Recording order within (uq, shard) — the deterministic sort key
  /// for rendering (a retried query records on two shards).
  int seq = 0;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  double x = 0.0;
  double y = 0.0;
  char label[56] = {0};
};

/// \brief Bounded per-user-query decision log + sharing-benefit
/// attribution. One instance per QueryService, shared by every shard
/// (events carry the shard id). Thread-safe.
class DecisionJournal {
 public:
  /// Cap on events retained per user query (drop-newest once full;
  /// the truncation is itself recorded), which bounds Explain() output
  /// for pathological plans. Engine-scope events (eviction/spill) keep
  /// a separate drop-oldest ring of this many entries.
  static constexpr int kEventsPerQuery = 256;

  /// Retains the journals of the `retained_queries` most recently
  /// resolved user queries.
  explicit DecisionJournal(int retained_queries);

  // ---- recording (any thread) ----

  /// Appends one event to `uq_id`'s journal (uq_id < 0: the engine
  /// scope). `label` is copied truncated to the event's fixed slot.
  void Record(int uq_id, DecisionKind kind, int shard, int64_t a = 0,
              int64_t b = 0, int64_t c = 0, double x = 0.0, double y = 0.0,
              const char* label = nullptr);

  /// Attributes `tuples` of warm shared-state prefix (worth an
  /// estimated `est_saved_us` of streaming) inherited by
  /// `consumer_uq` to the query that produced it. Feeds the per-UQ
  /// sharing_benefit summary; the caller records the matching
  /// kSharedInherit event separately.
  void Credit(int consumer_uq, int producer_uq, int shard, int64_t tuples,
              VirtualTime est_saved_us);

  /// Marks a query resolved (its journal becomes queryable) and evicts
  /// the oldest resolved journals beyond the retention cap.
  void MarkResolved(int uq_id);

  /// Whether `uq_id` has been resolved and its journal is retained.
  bool Resolved(int uq_id) const;

  // ---- rendering (deterministic; see file header) ----

  /// Structured text for one resolved query ("" when unknown — callers
  /// gate on Resolved()).
  std::string RenderText(int uq_id) const;
  /// The engine-scope log (eviction passes, victim scoring, spill
  /// restores) across all shards.
  std::string RenderEngineText() const;

 private:
  struct Benefit {
    int64_t tuples = 0;
    VirtualTime est_saved_us = 0;
  };
  struct PerUq {
    std::vector<DecisionEvent> events;
    /// Next seq per recording shard.
    std::unordered_map<int, int> seq_by_shard;
    /// producer uq -> inherited benefit (ordered: deterministic render).
    std::map<int, Benefit> by_producer;
    Benefit total;
    int64_t dropped = 0;
    bool resolved = false;
  };

  /// Events of `p` in deterministic (shard, seq) order.
  static std::vector<const DecisionEvent*> OrderedLocked(const PerUq& p);

  const int retained_queries_;
  mutable std::mutex mu_;
  std::unordered_map<int, PerUq> per_uq_;
  std::deque<int> resolved_fifo_;
  std::deque<DecisionEvent> engine_events_;
  std::unordered_map<int, int> engine_seq_by_shard_;
  int64_t engine_dropped_ = 0;
};

}  // namespace qsys

#endif  // QSYS_OBS_EXPLAIN_H_
