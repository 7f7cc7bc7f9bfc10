#include "src/qs/recover.h"

#include "src/source/pushdown.h"

namespace qsys {

Status BuildRecoveryQuery(const ConjunctiveQuery& cq,
                          const std::vector<FrozenInput>& frozen,
                          const std::vector<Atom>& probe_atoms, int epoch,
                          RankMergeOp* merge, Atc* atc,
                          SourceManager* sources, int tag,
                          const Catalog& catalog) {
  if (frozen.empty()) {
    return Status::InvalidArgument("recovery requires a buffered input");
  }
  for (const FrozenInput& f : frozen) {
    if (f.table == nullptr) {
      return Status::InvalidArgument("recovery input lacks a hash table");
    }
  }
  PlanGraph& graph = atc->graph();

  // The recovery m-join computes the whole query over frozen state. It
  // and its replay live exactly as long as `merge` (RetireRankMerge).
  MJoinOp* op = graph.AddRecoveryMJoin(merge, cq.expr);
  int driving_port = -1;
  for (size_t i = 0; i < frozen.size(); ++i) {
    auto port = op->AddFrozenModule(frozen[i].expr, frozen[i].table, epoch);
    QSYS_RETURN_IF_ERROR(port.status());
    if (i == 0) driving_port = port.value();
  }
  for (const Atom& a : probe_atoms) {
    auto port = op->AddProbeModule(a, sources, tag);
    QSYS_RETURN_IF_ERROR(port.status());
  }
  QSYS_RETURN_IF_ERROR(op->Finalize());

  // Driving replay: the buffered prefix of frozen[0], in arrival (=
  // score) order, reading at in-memory cost.
  ReplayStream* replay = graph.AddReplayStream(
      merge, frozen[0].expr, ExprMaxSum(frozen[0].expr, catalog),
      frozen[0].table, epoch);
  graph.ConnectSource(replay, {op, driving_port});

  // Register CQᵉ with the rank-merge: same logical id and score
  // function, its own threshold via the replay frontier; active from the
  // start (its input is local memory). Activation order matters here:
  // the recovery registration must exist before the merge's next
  // Maintain, or the live registration's (possibly exhausted) bound
  // could complete the merge while the all-buffered results are still
  // unread — Graft() registers both inside one engine step to keep
  // that window closed.
  CqRegistration reg;
  reg.cq_id = cq.id;
  reg.score_fn = cq.score_fn;
  reg.max_sum = cq.max_sum;
  reg.streams = {replay};
  reg.initially_active = true;
  // Grounding report: the replay drives a warm prefix of `limit`
  // already-consumed tuples (its frontier is real buffered state, never
  // a statistics bound).
  reg.grafted_depth = replay->limit();
  int port = merge->RegisterCq(std::move(reg));
  graph.ConnectMJoin(op, {merge, port});
  graph.RegisterCqDependency(cq.id, op);
  return Status::OK();
}

}  // namespace qsys
