#include "src/exec/plan_graph.h"

#include <algorithm>

namespace qsys {

template <typename Op>
Op* PlanGraph::Own(std::unique_ptr<Op> op) {
  Op* raw = op.get();
  raw->set_node_id(next_node_id_++);
  operators_.emplace(raw->node_id(), std::move(op));
  return raw;
}

MJoinOp* PlanGraph::AddMJoin(Expr expr) {
  MJoinOp* raw = Own(
      std::make_unique<MJoinOp>(std::move(expr), catalog_, adaptive_));
  mjoin_by_sig_[raw->expr().Signature()].push_back(raw);
  return raw;
}

MJoinOp* PlanGraph::AddRecoveryMJoin(RankMergeOp* merge, Expr expr) {
  MJoinOp* raw = Own(
      std::make_unique<MJoinOp>(std::move(expr), catalog_, adaptive_));
  merge_ties_[merge].recovery_ops.push_back(raw);
  return raw;
}

SplitOp* PlanGraph::AddSplit() { return Own(std::make_unique<SplitOp>()); }

RankMergeOp* PlanGraph::AddRankMerge(int uq_id, int k,
                                     VirtualTime submit_time_us) {
  RankMergeOp* raw =
      Own(std::make_unique<RankMergeOp>(uq_id, k, submit_time_us));
  rank_merges_.push_back(raw);
  merge_ties_.try_emplace(raw);
  return raw;
}

ReplayStream* PlanGraph::AddReplayStream(RankMergeOp* merge, Expr expr,
                                         double initial_max_sum,
                                         const JoinHashTable* table,
                                         int max_epoch_exclusive) {
  auto stream = std::make_unique<ReplayStream>(
      std::move(expr), initial_max_sum, table, max_epoch_exclusive);
  ReplayStream* raw = stream.get();
  merge_ties_[merge].replays.push_back(std::move(stream));
  return raw;
}

void PlanGraph::ConnectSource(StreamingSource* src, Consumer c) {
  SourceEndpoint& ep = sources_[src];
  ep.src = src;
  if (ep.consumer.op == nullptr) {
    ep.consumer = c;
    return;
  }
  if (ep.split == nullptr) {
    // Fan-out: interpose a split carrying the existing consumer.
    ep.split = AddSplit();
    ep.split->AddConsumer(ep.consumer);
    ep.consumer = {ep.split, 0};
  }
  ep.split->AddConsumer(c);
}

void PlanGraph::ConnectMJoin(MJoinOp* producer, Consumer c) {
  if (auto ties = merge_ties_.find(c.op); ties != merge_ties_.end()) {
    ties->second.feeders.push_back(producer);
  }
  if (producer->consumer().op == nullptr) {
    producer->SetConsumer(c);
    return;
  }
  auto it = mjoin_split_.find(producer);
  if (it == mjoin_split_.end()) {
    SplitOp* split = AddSplit();
    split->AddConsumer(producer->consumer());
    producer->SetConsumer({split, 0});
    it = mjoin_split_.emplace(producer, split).first;
  }
  it->second->AddConsumer(c);
}

void PlanGraph::RouteFromSource(StreamingSource* src,
                                const CompositeTuple& tuple,
                                ExecContext& ctx) {
  auto it = sources_.find(src);
  if (it == sources_.end()) return;
  const Consumer& c = it->second.consumer;
  if (c.op != nullptr && c.op->active()) {
    c.op->Consume(c.port, tuple, ctx);
  }
}

const std::vector<MJoinOp*>& PlanGraph::FindMJoins(
    const std::string& signature) const {
  static const std::vector<MJoinOp*> kNone;
  auto it = mjoin_by_sig_.find(signature);
  return it == mjoin_by_sig_.end() ? kNone : it->second;
}

bool PlanGraph::SourceAttached(const StreamingSource* src) const {
  auto it = sources_.find(src);
  return it != sources_.end() && it->second.consumer.op != nullptr;
}

void PlanGraph::RegisterCqDependency(int cq_id, Operator* op) {
  cq_deps_[op].insert(cq_id);
  cq_to_ops_[cq_id].push_back(op);
}

void PlanGraph::UnlinkCq(int cq_id) {
  auto it = cq_to_ops_.find(cq_id);
  if (it == cq_to_ops_.end()) return;
  for (Operator* op : it->second) {
    auto dit = cq_deps_.find(op);
    if (dit == cq_deps_.end()) continue;
    dit->second.erase(cq_id);
    if (dit->second.empty()) {
      // No live query flows through this operator: deactivate. Its
      // hash-table state survives for reuse until the state manager
      // evicts it (§6.3).
      op->set_active(false);
      cq_deps_.erase(dit);
    }
  }
  cq_to_ops_.erase(it);
}

void PlanGraph::RetireRankMerge(RankMergeOp* rm) {
  // Deactivating the recovery m-joins here also unpins the tables
  // their frozen modules borrowed (MJoinOp::OnDeactivate).
  for (int cq_id : rm->all_cq_ids()) UnlinkCq(cq_id);
  rank_merges_.erase(
      std::remove(rank_merges_.begin(), rank_merges_.end(), rm),
      rank_merges_.end());
  auto ties = merge_ties_.find(rm);
  for (MJoinOp* feeder : ties->second.feeders) {
    if (feeder->consumer().op == rm) {
      feeder->SetConsumer({});
    } else if (auto it = mjoin_split_.find(feeder);
               it != mjoin_split_.end()) {
      it->second->RemoveConsumer(rm);
    }
  }
  for (MJoinOp* op : ties->second.recovery_ops) {
    op->set_active(false);
    cq_deps_.erase(op);
    operators_.erase(op->node_id());
  }
  for (const auto& replay : ties->second.replays) {
    sources_.erase(replay.get());
  }
  merge_ties_.erase(ties);
  operators_.erase(rm->node_id());
}

std::vector<StreamingSource*> PlanGraph::attached_sources() const {
  std::vector<StreamingSource*> out;
  for (const auto& [src, ep] : sources_) {
    (void)ep;
    out.push_back(const_cast<StreamingSource*>(src));
  }
  return out;
}

int64_t PlanGraph::num_replay_streams() const {
  int64_t n = 0;
  for (const auto& [merge, ties] : merge_ties_) {
    (void)merge;
    n += static_cast<int64_t>(ties.replays.size());
  }
  return n;
}

std::string PlanGraph::ToString() const {
  std::string out;
  for (const auto& [src, ep] : sources_) {
    out += "source " + src->expr().ToString(catalog_);
    if (ep.consumer.op != nullptr) {
      out += " -> " + ep.consumer.op->Describe();
    }
    out += "\n";
  }
  for (const auto& [id, op] : operators_) {
    (void)id;
    out += op->Describe();
    if (!op->active()) out += " [inactive]";
    if (auto* mj = dynamic_cast<MJoinOp*>(op.get());
        mj != nullptr && mj->consumer().op != nullptr) {
      out += " -> " + mj->consumer().op->Describe();
    }
    if (auto* sp = dynamic_cast<SplitOp*>(op.get())) {
      out += " ->";
      for (const Consumer& c : sp->consumers()) {
        out += " " + c.op->Describe() + ";";
      }
    }
    out += "\n";
  }
  return out;
}

bool PlanGraph::AllComplete() const {
  for (const RankMergeOp* rm : rank_merges_) {
    if (!rm->complete()) return false;
  }
  return true;
}

}  // namespace qsys
