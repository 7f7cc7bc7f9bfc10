// The ATC ("air traffic controller"), §4.2: the scheduler that routes
// tuples among the plan graph's pipelined operators.
//
// Each scheduling round visits the next incomplete rank-merge operator
// (round-robin — the policy the paper found best), asks it for its
// preferred input stream, reads one tuple from that stream, and pushes
// the tuple through splits and m-joins to every query that uses it.
// It then re-maintains only the rank-merges that read could change
// (RankMergeOp::NeedsMaintain), so a round costs what its read changed.
// Round-robin over rank-merges equals a voting scheme where the most
// demanded streams are read most, while preventing starvation.
//
// Threading: an ATC is single-threaded *at a time*. Under multi-core
// epochs (QConfig::exec_threads > 1) different ATCs of one engine run
// concurrently on a worker pool, each worker holding its ATC's mu()
// for the whole drain segment; everything an ATC touches while
// stepping — its plan graph, its virtual clock and stats, its delay
// sampler, and the per-sharing-scope streams and probe caches feeding
// its operators — is private to it, so per-ATC execution is a
// deterministic function of the grafted queries regardless of thread
// count or interleaving (the byte-equivalence bar of the parallel
// tests).

#ifndef QSYS_EXEC_ATC_H_
#define QSYS_EXEC_ATC_H_

#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/exec/plan_graph.h"

namespace qsys {

/// \brief One execution actor: a plan graph plus its virtual clock and
/// statistics. Under ATC-CL several ATCs run as independent discrete-
/// event actors (the paper's parallel plan graphs).
class Atc {
 public:
  /// An ATC sampling delays from a caller-owned model (tests and
  /// single-ATC drivers).
  Atc(int id, const Catalog* catalog, DelayModel* delays, bool adaptive)
      : id_(id),
        catalog_(catalog),
        delays_(delays),
        graph_(std::make_unique<PlanGraph>(catalog, adaptive)) {}

  /// An ATC owning its delay sampler. The engine derives one
  /// deterministic sampler per ATC (seed mixed with the ATC id) so
  /// concurrent ATCs never interleave draws from a shared RNG — the
  /// prerequisite for byte-equivalent parallel execution.
  Atc(int id, const Catalog* catalog, std::unique_ptr<DelayModel> delays,
      bool adaptive)
      : id_(id),
        catalog_(catalog),
        owned_delays_(std::move(delays)),
        delays_(owned_delays_.get()),
        graph_(std::make_unique<PlanGraph>(catalog, adaptive)) {}

  int id() const { return id_; }
  PlanGraph& graph() { return *graph_; }
  const PlanGraph& graph() const { return *graph_; }

  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

  /// Current reuse epoch; the state manager bumps it per grafted batch.
  int epoch() const { return epoch_; }
  void set_epoch(int e) { epoch_ = e; }

  /// The per-ATC lock of the multi-core locking hierarchy
  /// (engine -> ATC -> merge maintenance): a worker holds it for the
  /// whole of one drain segment; the coordinator takes it in serialized
  /// sections that touch this ATC's graph (graft, MaintainAll,
  /// introspection). Workers are quiesced at those points, so the lock
  /// is contention-free — it exists to make the ownership handoff
  /// explicit (and visible to TSan).
  std::mutex& mu() { return mu_; }

  /// Execution context bound to this ATC's clock/stats.
  ExecContext MakeContext();

  /// One scheduling round. Returns false when every rank-merge is
  /// complete (nothing left to do).
  bool Step();

  /// Maintains every rank-merge that NeedsMaintain() and records new
  /// completions. Called by the engine right after a graft: late
  /// registrations (a recovery replay, an all-exhausted live port) can
  /// settle a merge's completion without any stream read, and deferring
  /// that to the next scheduled round would leave a window where the
  /// merge's bounds are not grounded in the just-grafted state.
  void MaintainAll();

  /// Runs rounds until AllComplete() (or `max_rounds` as a safety net).
  /// Returns the number of rounds executed.
  int64_t RunToCompletion(int64_t max_rounds = -1);

  bool HasWork() const { return !graph_->AllComplete(); }

  /// Per-UQ metrics recorded as rank-merges completed (ownership
  /// transfers to the caller).
  std::vector<UserQueryMetrics> TakeCompletedMetrics();

  /// This ATC's ranked answers for `uq_id` (nullptr if its graph holds
  /// no such merge). ATC-local so a drain worker can snapshot results
  /// without touching any other ATC.
  const std::vector<ResultTuple>* ResultsFor(int uq_id) const;

  /// Serving-mode GC: frees the completed user query's rank-merge,
  /// with the recovery m-joins and replay streams built for it
  /// (PlanGraph::RetireRankMerge), and forgets its recording slot. The
  /// graph keeps only live queries plus the grafter's reusable m-joins
  /// and their retained tables, which the number of distinct plan
  /// shapes and the eviction budget bound (see
  /// QueryServiceTest.PlanGraphStaysBoundedUnderRepeatTraffic and the
  /// qsys_plan_graph_operators gauge). Call only after the query's
  /// results have been copied out.
  void RetireCompleted(int uq_id);

 private:
  /// Maintains `rm` if NeedsMaintain() says Maintain could change it —
  /// skipping is exact otherwise — and records its completion.
  void MaintainIfNeeded(RankMergeOp* rm, ExecContext& ctx);
  void RecordIfComplete(RankMergeOp* rm);

  int id_;
  const Catalog* catalog_;
  std::unique_ptr<DelayModel> owned_delays_;
  DelayModel* delays_;
  std::unique_ptr<PlanGraph> graph_;
  VirtualClock clock_;
  ExecStats stats_;
  std::mutex mu_;
  int epoch_ = 0;
  size_t rr_pos_ = 0;
  std::set<int> recorded_uqs_;
  std::vector<UserQueryMetrics> completed_;
};

}  // namespace qsys

#endif  // QSYS_EXEC_ATC_H_
