#include "src/exec/atc.h"

namespace qsys {

ExecContext Atc::MakeContext() {
  ExecContext ctx;
  ctx.clock = &clock_;
  ctx.stats = &stats_;
  ctx.catalog = catalog_;
  ctx.delays = delays_;
  ctx.epoch = epoch_;
  return ctx;
}

void Atc::RecordIfComplete(RankMergeOp* rm) {
  if (!rm->complete()) return;
  if (recorded_uqs_.count(rm->uq_id()) > 0) return;
  recorded_uqs_.insert(rm->uq_id());
  UserQueryMetrics m;
  m.uq_id = rm->uq_id();
  m.submit_time_us = rm->submit_time_us();
  m.start_time_us = rm->start_time_us();
  m.complete_time_us = rm->complete_time_us();
  m.cqs_executed = rm->cqs_executed();
  m.cqs_total = rm->cqs_total();
  m.results = static_cast<int>(rm->results().size());
  m.tuples_from_shared = rm->tuples_from_shared();
  m.est_saved_us = rm->est_saved_us();
  completed_.push_back(m);
}

void Atc::MaintainIfNeeded(RankMergeOp* rm, ExecContext& ctx) {
  // A merge completes only inside Maintain, so recording right after
  // each Maintain records every completion, in completion order.
  if (!rm->NeedsMaintain()) return;
  rm->Maintain(ctx);
  RecordIfComplete(rm);
}

void Atc::MaintainAll() {
  ExecContext ctx = MakeContext();
  for (RankMergeOp* rm : graph_->rank_merges()) MaintainIfNeeded(rm, ctx);
}

bool Atc::Step() {
  const std::vector<RankMergeOp*>& merges = graph_->rank_merges();
  if (merges.empty()) return false;
  ExecContext ctx = MakeContext();
  const size_t n = merges.size();
  for (size_t i = 0; i < n; ++i) {
    RankMergeOp* rm = merges[(rr_pos_ + i) % n];
    MaintainIfNeeded(rm, ctx);
    if (rm->complete()) continue;
    StreamingSource* src = rm->PreferredStream();
    if (src == nullptr) {
      // Nothing to read for this query: final maintenance completes it.
      MaintainIfNeeded(rm, ctx);
      continue;
    }
    std::optional<CompositeTuple> t = src->Next(ctx);
    if (t.has_value()) {
      graph_->RouteFromSource(src, *t, ctx);
    }
    // The read can unblock a merge only by moving a stream one of its
    // live registrations bounds by, or by delivering it a result:
    // maintain just the merges that NeedsMaintain reports.
    for (RankMergeOp* m : merges) MaintainIfNeeded(m, ctx);
    rr_pos_ = (rr_pos_ + i + 1) % n;
    return true;
  }
  return !graph_->AllComplete();
}

int64_t Atc::RunToCompletion(int64_t max_rounds) {
  int64_t rounds = 0;
  while (!graph_->AllComplete()) {
    if (max_rounds >= 0 && rounds >= max_rounds) break;
    if (!Step()) break;
    ++rounds;
  }
  // Collect any merges that completed without passing through Step's
  // recording (e.g. empty graphs).
  for (RankMergeOp* rm : graph_->rank_merges()) RecordIfComplete(rm);
  return rounds;
}

const std::vector<ResultTuple>* Atc::ResultsFor(int uq_id) const {
  for (const RankMergeOp* rm : graph_->rank_merges()) {
    if (rm->uq_id() == uq_id) return &rm->results();
  }
  return nullptr;
}

std::vector<UserQueryMetrics> Atc::TakeCompletedMetrics() {
  std::vector<UserQueryMetrics> out = std::move(completed_);
  completed_.clear();
  return out;
}

void Atc::RetireCompleted(int uq_id) {
  const std::vector<RankMergeOp*> merges = graph_->rank_merges();
  for (RankMergeOp* rm : merges) {
    if (rm->uq_id() == uq_id && rm->complete()) {
      graph_->RetireRankMerge(rm);
    }
  }
  recorded_uqs_.erase(uq_id);
}

}  // namespace qsys
