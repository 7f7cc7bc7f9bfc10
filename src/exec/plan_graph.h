// The query plan graph (§4): operators as nodes, dataflows as edges,
// streaming sources at the leaves, rank-merges at the roots.
//
// The graph is graph-structured (not tree-structured): shared
// subexpressions feed multiple downstream consumers through split
// operators. It is long-lived: the query state manager grafts new
// queries onto it across batches and unlinks completed paths (§6).

#ifndef QSYS_EXEC_PLAN_GRAPH_H_
#define QSYS_EXEC_PLAN_GRAPH_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/mjoin_op.h"
#include "src/exec/rank_merge_op.h"
#include "src/exec/replay_stream.h"
#include "src/exec/split_op.h"

namespace qsys {

/// \brief Owns the operators and wiring of one executable plan graph.
class PlanGraph {
 public:
  PlanGraph(const Catalog* catalog, bool adaptive)
      : catalog_(catalog), adaptive_(adaptive) {}
  PlanGraph(const PlanGraph&) = delete;
  PlanGraph& operator=(const PlanGraph&) = delete;

  // ---- node factories ----

  /// New m-join for `expr`; registered for grafting lookups.
  MJoinOp* AddMJoin(Expr expr);

  /// New recovery m-join (Algorithm 2) computing `expr` for `merge`.
  /// Never a grafting candidate, so it is not registered for lookups;
  /// it is destroyed when `merge` retires.
  MJoinOp* AddRecoveryMJoin(RankMergeOp* merge, Expr expr);

  SplitOp* AddSplit();

  RankMergeOp* AddRankMerge(int uq_id, int k, VirtualTime submit_time_us);

  /// New replay stream over a hash table prefix, driving one of
  /// `merge`'s recovery m-joins; destroyed when `merge` retires.
  ReplayStream* AddReplayStream(RankMergeOp* merge, Expr expr,
                                double initial_max_sum,
                                const JoinHashTable* table,
                                int max_epoch_exclusive);

  // ---- wiring ----

  /// Routes `src`'s tuples to `c`. Multiple calls for the same source
  /// insert a SplitOp automatically (§4.1).
  void ConnectSource(StreamingSource* src, Consumer c);

  /// Routes `producer`'s outputs to `c`, inserting a SplitOp on fan-out.
  void ConnectMJoin(MJoinOp* producer, Consumer c);

  /// Delivers one freshly read source tuple into the graph.
  void RouteFromSource(StreamingSource* src, const CompositeTuple& tuple,
                       ExecContext& ctx);

  // ---- lookup (grafting, §6.2) ----

  /// Existing AddMJoin() m-joins computing exactly `signature`
  /// (possibly with different input structures), oldest first.
  const std::vector<MJoinOp*>& FindMJoins(const std::string& signature) const;

  /// Whether `src` already feeds some consumer in this graph.
  bool SourceAttached(const StreamingSource* src) const;

  // ---- CQ dependency tracking & unlinking (§6.3) ----

  /// Declares that `cq_id`'s results flow through `op`.
  void RegisterCqDependency(int cq_id, Operator* op);

  /// Removes `cq_id` from all operators it flows through; operators left
  /// with no dependent CQs are deactivated (their state is retained for
  /// reuse until evicted).
  void UnlinkCq(int cq_id);

  /// Serving-mode GC: frees a completed rank-merge. Unlinks its CQs
  /// (deactivating upstream operators no live query flows through),
  /// takes the merge out of its producers' fan-out (an emptied split
  /// stays for the next ConnectMJoin), and destroys the merge together
  /// with the recovery m-joins and replay streams built for it. What
  /// survives is the AddMJoin() m-joins the grafter reuses, their
  /// splits and their retained tables: bounded by the number of
  /// distinct plan shapes and by the eviction budget. Pinned by
  /// PlanGraphTest.RetireRankMergeReclaimsRecoveryOperators and
  /// QueryServiceTest.PlanGraphStaysBoundedUnderRepeatTraffic, and
  /// exported per shard as the qsys_plan_graph_operators gauge.
  void RetireRankMerge(RankMergeOp* rm);

  // ---- introspection ----

  const std::vector<RankMergeOp*>& rank_merges() const {
    return rank_merges_;
  }
  /// AddMJoin() m-joins by signature, each list oldest first.
  const std::unordered_map<std::string, std::vector<MJoinOp*>>&
  mjoins_by_signature() const {
    return mjoin_by_sig_;
  }
  /// Streaming sources with at least one consumer here.
  std::vector<StreamingSource*> attached_sources() const;

  /// Live operators: m-joins, splits and rank-merges.
  int64_t num_operators() const {
    return static_cast<int64_t>(operators_.size());
  }
  /// Live replay streams (one per recovery m-join).
  int64_t num_replay_streams() const;

  /// Multi-line plan rendering (for examples and debugging).
  std::string ToString() const;

  bool AllComplete() const;

 private:
  struct SourceEndpoint {
    StreamingSource* src = nullptr;
    Consumer consumer;       // single; split inserted on fan-out
    SplitOp* split = nullptr;  // the auto-inserted split, if any
  };

  /// Takes ownership of a new operator and assigns its node id.
  template <typename Op>
  Op* Own(std::unique_ptr<Op> op);

  /// What retiring a rank-merge releases besides the merge itself.
  struct MergeTies {
    /// M-joins whose output feeds the merge (its CQs' terminals and its
    /// recovery m-joins), to take the merge out of their fan-out.
    std::vector<MJoinOp*> feeders;
    /// Recovery m-joins built for the merge.
    std::vector<MJoinOp*> recovery_ops;
    /// Their driving replay streams.
    std::vector<std::unique_ptr<ReplayStream>> replays;
  };

  const Catalog* catalog_;
  bool adaptive_;
  // Keyed by node id, so rendering keeps creation order.
  std::map<int, std::unique_ptr<Operator>> operators_;
  std::unordered_map<const Operator*, MergeTies> merge_ties_;
  std::unordered_map<const StreamingSource*, SourceEndpoint> sources_;
  std::unordered_map<std::string, std::vector<MJoinOp*>> mjoin_by_sig_;
  std::unordered_map<MJoinOp*, SplitOp*> mjoin_split_;
  std::vector<RankMergeOp*> rank_merges_;
  // Operator -> dependent CQ ids; empties deactivate.
  std::unordered_map<Operator*, std::set<int>> cq_deps_;
  std::unordered_map<int, std::vector<Operator*>> cq_to_ops_;
  int next_node_id_ = 0;
};

}  // namespace qsys

#endif  // QSYS_EXEC_PLAN_GRAPH_H_
