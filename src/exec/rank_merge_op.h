// The rank-merge operator: top-k merging of conjunctive query outputs
// (§4.1, Figure 6), following the Threshold / No-Random-Access algorithms
// of Fagin et al.
//
// One rank-merge serves one user query. Each registered conjunctive
// query (or epoch-recovery query CQᵉ) contributes result tuples and a
// live *threshold*: an upper bound on the score of any result it has not
// yet delivered, derived from the frontiers of its streaming inputs. A
// buffered result is released to the user once its score dominates every
// threshold; a CQ is activated only once its bound could matter, and
// pruned once its threshold falls below the current kth answer (§6.3).

#ifndef QSYS_EXEC_RANK_MERGE_OP_H_
#define QSYS_EXEC_RANK_MERGE_OP_H_

#include <functional>
#include <limits>
#include <string>
#include <set>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/exec/operator.h"
#include "src/query/score.h"
#include "src/source/table_stream.h"

namespace qsys {

/// \brief One emitted top-k answer.
struct ResultTuple {
  double score = 0.0;
  /// Logical conjunctive query that produced it.
  int cq_id = -1;
  CompositeTuple tuple;
  /// Virtual time of emission.
  VirtualTime emitted_at_us = 0;
};

/// \brief Canonical total order on result tuples: score (descending),
/// then the lexicographic (table, row) provenance of the composite,
/// then ref count, then score contributions. Deterministic across runs
/// — it never consults arrival order, emission time, or engine-local
/// CQ ids (which differ between shard layouts). The rank-merge applies
/// it to every completed answer set (so a warm-state run selects the
/// same tied-score subset as a fresh run), and the sharded serving
/// layer reuses it for cross-shard top-k merging.
struct ResultTupleOrder {
  bool operator()(const ResultTuple& a, const ResultTuple& b) const;
};

/// \brief Bit-exact serialization of a ranked answer list: score bits
/// plus the full (table, row, slot-score) provenance of every result.
/// Engine-local CQ ids and emission times are excluded — they are not
/// stable across shard layouts or thread counts (and are not part of
/// what a client ranks on). The single definition every differential
/// byte-equivalence check (tests and benches) compares with.
std::string FingerprintResults(const std::vector<ResultTuple>& results);

/// \brief Registration of one conjunctive query with the merge.
struct CqRegistration {
  /// Logical CQ id (a recovery query CQᵉ shares its parent's id).
  int cq_id = -1;
  ScoreFunction score_fn;
  /// Σ over the CQ's atoms of their max base scores (U = Score(max_sum)).
  double max_sum = 0.0;
  /// Streaming inputs whose frontiers bound this CQ's future results.
  std::vector<StreamingSource*> streams;
  /// Recovery queries start active (their driving replay is in-memory).
  bool initially_active = false;
  /// Grounding report from the grafter: tuples its streams had already
  /// delivered when this registration was grafted (0 = cold graft).
  /// Thresholds read live stream state, so a warm registration's bound
  /// is grounded in the true consumed depth from its first Maintain; the
  /// depth is recorded for observability (warm_registrations()).
  int64_t grafted_depth = 0;
  /// Streams of this registration already exhausted by an earlier epoch
  /// at graft time. Such an input contributes its last-seen bound
  /// (frontier −inf, excluded from the slack minimum) — never the
  /// stale statistics bound it had before it was first opened.
  int grafted_exhausted = 0;
};

/// \brief Top-k rank merge for one user query.
class RankMergeOp : public Operator {
 public:
  RankMergeOp(int uq_id, int k, VirtualTime submit_time_us)
      : uq_id_(uq_id), k_(k), submit_time_us_(submit_time_us) {}

  /// Registers a CQ; returns the input port its results arrive on.
  int RegisterCq(CqRegistration reg);

  void Consume(int port, const CompositeTuple& tuple,
               ExecContext& ctx) override;

  std::string Describe() const override;

  // ---- scheduling interface (driven by the ATC) ----

  /// Upper bound on the score of any not-yet-delivered result of the
  /// registration on `port` (−inf when it can produce nothing more).
  double Threshold(int port) const;

  /// Picks the stream whose read most reduces the governing threshold,
  /// activating the owning CQ if it was pending (this is where Table 4's
  /// "CQs executed" counter advances). Returns nullptr when no read can
  /// help (the merge then completes via Maintain()).
  StreamingSource* PreferredStream();

  /// Emits every buffered result that clears the global threshold,
  /// prunes contributing CQs whose bound fell below the kth answer, and
  /// detects completion.
  void Maintain(ExecContext& ctx);

  /// Whether Maintain() could change anything: true until the first
  /// Maintain(), and afterwards once a result was consumed, a CQ
  /// registered or a stream of a live registration advanced. Otherwise
  /// Maintain() is a deterministic no-op — a call leaves nothing for an
  /// identical next call, since its prunes never lower the emission bar
  /// — and skipping it leaves every answer, emission time and
  /// completion time unchanged.
  bool NeedsMaintain() const;

  bool complete() const { return complete_; }
  int uq_id() const { return uq_id_; }
  int k() const { return k_; }
  VirtualTime submit_time_us() const { return submit_time_us_; }
  VirtualTime complete_time_us() const { return complete_time_us_; }
  /// Time the query's plan was grafted (execution start).
  VirtualTime start_time_us() const { return start_time_us_; }
  void set_start_time_us(VirtualTime t) { start_time_us_ = t; }

  const std::vector<ResultTuple>& results() const { return results_; }

  /// Number of distinct logical CQs activated (Table 4).
  int cqs_executed() const {
    return static_cast<int>(executed_cq_ids_.size());
  }
  /// Registrations grafted against warm state (grafted_depth > 0 or an
  /// already-exhausted stream) — the temporal-reuse pressure on this
  /// merge's completeness invariant.
  int warm_registrations() const { return warm_registrations_; }
  /// Number of distinct logical CQs registered in total.
  int cqs_total() const { return static_cast<int>(all_cq_ids_.size()); }

  /// Sharing-benefit attribution (src/obs/explain.h): warm stream
  /// prefix this merge's registrations inherited from shared state
  /// produced by *other* user queries, credited by the grafter. The
  /// sum over all merges reconciles exactly with
  /// ExecStats::tuples_shared_served.
  void AddSharedCredit(int64_t tuples, VirtualTime est_saved_us) {
    tuples_from_shared_ += tuples;
    est_saved_us_ += est_saved_us;
  }
  int64_t tuples_from_shared() const { return tuples_from_shared_; }
  VirtualTime est_saved_us() const { return est_saved_us_; }
  /// Every logical CQ id ever registered (for retirement unlinking).
  const std::set<int>& all_cq_ids() const { return all_cq_ids_; }

  int num_registrations() const {
    return static_cast<int>(regs_.size());
  }

  /// Ranking-queue footprint (cacheable object, §6.3).
  int64_t StateSizeBytes() const;

  /// Invoked when a CQ is pruned or exhausted, so the state manager can
  /// unlink its plan path.
  std::function<void(int cq_id)> on_cq_pruned;

 private:
  enum class CqStatus { kPending, kActive, kDone };

  struct CqSlot {
    CqRegistration reg;
    CqStatus status = CqStatus::kPending;
    /// Threshold() as of the stream frontier versions summing to
    /// `bound_version` (−inf once done); RefreshBounds() recomputes it
    /// only after one of the registration's streams has advanced.
    double bound = -std::numeric_limits<double>::infinity();
    int64_t bound_version = -1;
  };

  struct Buffered {
    double score;
    int port;
    int64_t seq;  // tie-break for deterministic order
    CompositeTuple tuple;
    bool operator<(const Buffered& o) const {
      if (score != o.score) return score < o.score;
      return seq > o.seq;  // earlier arrivals first on ties
    }
  };

  /// Brings every live registration's cached bound up to date with its
  /// streams' frontiers; returns whether any bound was recomputed.
  bool RefreshBounds();

  /// max over registrations of their cached bounds — the bar a buffered
  /// result must clear to be emitted.
  double GlobalBound() const;

  /// kth best score across emitted + buffered results (−inf if fewer
  /// than k are known).
  double KthKnownScore();

  /// Pops the best buffered result (buffer_ is a binary max-heap).
  Buffered PopBest();

  void MarkDone(int port);

  /// Drops the per-CQ dedup entries of `cq_id` once its last
  /// registration is done (no further Consume can reference them).
  void ReleaseCqDedup(int cq_id);

  int uq_id_;
  int k_;
  VirtualTime submit_time_us_;
  VirtualTime start_time_us_ = 0;
  VirtualTime complete_time_us_ = 0;
  bool complete_ = false;
  std::vector<CqSlot> regs_;
  /// Buffered results, a binary max-heap under Buffered::operator<.
  std::vector<Buffered> buffer_;
  /// Scratch heap of buffer_ indices for KthKnownScore's walk.
  std::vector<size_t> kth_walk_;
  /// A result or registration arrived since the last Maintain, or a
  /// bound moved without one (NeedsMaintain).
  bool dirty_ = true;
  std::vector<ResultTuple> results_;
  std::set<int> executed_cq_ids_;
  std::set<int> all_cq_ids_;
  /// (cq id, result identity) pairs already delivered — per-CQ dedup
  /// of duplicate derivations (see Consume). Entries of a CQ are
  /// released as soon as its last registration completes
  /// (ReleaseCqDedup), so long-serving engines do not accumulate them.
  std::set<std::pair<int, uint64_t>> seen_results_;
  int warm_registrations_ = 0;
  int64_t seq_counter_ = 0;
  int64_t tuples_from_shared_ = 0;
  VirtualTime est_saved_us_ = 0;
};

}  // namespace qsys

#endif  // QSYS_EXEC_RANK_MERGE_OP_H_
