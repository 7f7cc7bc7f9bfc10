#include "src/exec/rank_merge_op.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace qsys {

std::string FingerprintResults(const std::vector<ResultTuple>& results) {
  std::string bytes;
  auto put = [&bytes](const void* p, size_t n) {
    bytes.append(reinterpret_cast<const char*>(p), n);
  };
  for (const ResultTuple& r : results) {
    put(&r.score, sizeof(r.score));
    for (const BaseRef& ref : r.tuple.refs()) {
      put(&ref.table, sizeof(ref.table));
      put(&ref.row, sizeof(ref.row));
      put(&ref.score, sizeof(ref.score));
    }
    bytes.push_back('|');
  }
  return bytes;
}

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;

// Any future result of a CQ must contain at least one unread tuple from
// one of its streaming inputs J; every other component is bounded by
// its input's overall maximum. With slack(J) = initial_max − frontier
// the bound is C(max_sum − min over unexhausted J of slack(J)).
double BoundOf(const CqRegistration& reg) {
  double min_slack = std::numeric_limits<double>::infinity();
  bool any_live = false;
  for (const StreamingSource* s : reg.streams) {
    if (s->exhausted()) continue;
    any_live = true;
    min_slack = std::min(min_slack, s->initial_max_sum() - s->frontier_sum());
  }
  if (!any_live) return kNegInf;
  return reg.score_fn.Score(reg.max_sum - min_slack);
}

// Moves whenever any of the registration's streams may have advanced.
int64_t FrontierVersion(const CqRegistration& reg) {
  int64_t version = 0;
  for (const StreamingSource* s : reg.streams) {
    version += s->frontier_version();
  }
  return version;
}
}  // namespace

bool ResultTupleOrder::operator()(const ResultTuple& a,
                                  const ResultTuple& b) const {
  if (a.score != b.score) return a.score > b.score;
  const std::vector<BaseRef>& ra = a.tuple.refs();
  const std::vector<BaseRef>& rb = b.tuple.refs();
  size_t n = std::min(ra.size(), rb.size());
  for (size_t i = 0; i < n; ++i) {
    if (ra[i].table != rb[i].table) return ra[i].table < rb[i].table;
    if (ra[i].row != rb[i].row) return ra[i].row < rb[i].row;
  }
  if (ra.size() != rb.size()) return ra.size() < rb.size();
  // Same provenance: distinguish by the per-slot score contributions
  // (different CQs can cover the same base tuples with different
  // selections). Engine-local cq ids are NOT consulted — they are not
  // stable across shard layouts.
  for (size_t i = 0; i < n; ++i) {
    if (ra[i].score != rb[i].score) return ra[i].score < rb[i].score;
  }
  return false;  // equivalent
}

int RankMergeOp::RegisterCq(CqRegistration reg) {
  CqSlot slot;
  slot.status = reg.initially_active ? CqStatus::kActive : CqStatus::kPending;
  if (reg.initially_active) executed_cq_ids_.insert(reg.cq_id);
  all_cq_ids_.insert(reg.cq_id);
  if (reg.grafted_depth > 0 || reg.grafted_exhausted > 0) {
    ++warm_registrations_;
  }
  slot.reg = std::move(reg);
  regs_.push_back(std::move(slot));
  complete_ = false;
  dirty_ = true;
  return static_cast<int>(regs_.size()) - 1;
}

void RankMergeOp::Consume(int port, const CompositeTuple& tuple,
                          ExecContext& ctx) {
  (void)ctx;
  if (!active()) return;
  CqSlot& slot = regs_[port];
  if (slot.status == CqStatus::kDone) return;
  // Per-CQ result dedup: a conjunctive query delivers each logical
  // answer once. Duplicate derivations can reach the merge when
  // retained state is re-derived under a changed module structure (an
  // atom probed by one batch's plan, streamed by the next) — see
  // MJoinOp::Consume. Keyed by logical cq id, so a recovery query CQᵉ
  // (same id, own port) cannot double-deliver either. The score sum is
  // folded into the key purely defensively: equal provenance implies
  // equal scores in real execution.
  uint64_t identity =
      tuple.IdentityHash() ^
      (std::hash<double>{}(tuple.sum_scores()) * 0x9e3779b97f4a7c15ull);
  if (!seen_results_.emplace(slot.reg.cq_id, identity).second) {
    return;
  }
  Buffered b;
  b.score = slot.reg.score_fn.Score(tuple.sum_scores());
  b.port = port;
  b.seq = seq_counter_++;
  b.tuple = tuple;
  buffer_.push_back(std::move(b));
  std::push_heap(buffer_.begin(), buffer_.end());
  dirty_ = true;
}

double RankMergeOp::Threshold(int port) const {
  const CqSlot& slot = regs_[port];
  if (slot.status == CqStatus::kDone) return kNegInf;
  return BoundOf(slot.reg);
}

bool RankMergeOp::RefreshBounds() {
  bool moved = false;
  for (CqSlot& slot : regs_) {
    if (slot.status == CqStatus::kDone) continue;
    const int64_t version = FrontierVersion(slot.reg);
    if (version == slot.bound_version) continue;
    slot.bound = BoundOf(slot.reg);
    slot.bound_version = version;
    moved = true;
  }
  return moved;
}

bool RankMergeOp::NeedsMaintain() const {
  if (complete_) return false;
  if (dirty_) return true;
  for (const CqSlot& slot : regs_) {
    if (slot.status != CqStatus::kDone &&
        slot.bound_version != FrontierVersion(slot.reg)) {
      return true;
    }
  }
  return false;
}

double RankMergeOp::GlobalBound() const {
  double best = kNegInf;
  for (const CqSlot& slot : regs_) best = std::max(best, slot.bound);
  return best;
}

double RankMergeOp::KthKnownScore() {
  // Scores of emitted results are all >= anything buffered, so count
  // them first.
  int64_t have = static_cast<int64_t>(results_.size());
  if (have >= k_) return results_[k_ - 1].score;
  // Need (k - have) more from the buffer.
  int64_t need = k_ - have;
  if (static_cast<int64_t>(buffer_.size()) < need) return kNegInf;
  // Read the heap in place: a best-first walk from the root that
  // expands a node's children when it pops visits scores in
  // nonincreasing order, so the need-th pop is the need-th best score.
  auto lower = [this](size_t a, size_t b) {
    return buffer_[a].score < buffer_[b].score;
  };
  kth_walk_.assign(1, 0);
  size_t node = 0;
  for (int64_t i = 0; i < need; ++i) {
    std::pop_heap(kth_walk_.begin(), kth_walk_.end(), lower);
    node = kth_walk_.back();
    kth_walk_.pop_back();
    for (size_t child = 2 * node + 1;
         child <= 2 * node + 2 && child < buffer_.size(); ++child) {
      kth_walk_.push_back(child);
      std::push_heap(kth_walk_.begin(), kth_walk_.end(), lower);
    }
  }
  return buffer_[node].score;
}

RankMergeOp::Buffered RankMergeOp::PopBest() {
  std::pop_heap(buffer_.begin(), buffer_.end());
  Buffered best = std::move(buffer_.back());
  buffer_.pop_back();
  return best;
}

StreamingSource* RankMergeOp::PreferredStream() {
  if (complete_) return nullptr;
  // A bound that moved since the last Maintain leaves it owed.
  if (RefreshBounds()) dirty_ = true;
  // Find the registration with the highest bound; a finite bound means
  // one of its streams is unexhausted, so a read can advance it.
  int best_port = -1;
  double best_threshold = kNegInf;
  for (size_t p = 0; p < regs_.size(); ++p) {
    double t = regs_[p].bound;
    if (t == kNegInf) continue;
    if (best_port < 0 || t > best_threshold) {
      best_port = static_cast<int>(p);
      best_threshold = t;
    }
  }
  if (best_port < 0) return nullptr;
  CqSlot& slot = regs_[best_port];
  if (slot.status == CqStatus::kPending) {
    // Incremental activation (§3, §6.3): the CQ's bound now governs the
    // output, so it must actually be executed.
    slot.status = CqStatus::kActive;
    executed_cq_ids_.insert(slot.reg.cq_id);
  }
  // Read the stream attaining the bound (minimum slack): advancing its
  // frontier lowers this CQ's threshold the fastest.
  StreamingSource* best_stream = nullptr;
  double min_slack = std::numeric_limits<double>::infinity();
  for (StreamingSource* s : slot.reg.streams) {
    if (s->exhausted()) continue;
    double slack = s->initial_max_sum() - s->frontier_sum();
    if (best_stream == nullptr || slack < min_slack) {
      best_stream = s;
      min_slack = slack;
    }
  }
  return best_stream;
}

void RankMergeOp::ReleaseCqDedup(int cq_id) {
  // Done ports drop their input before the dedup lookup (see Consume),
  // so once the last registration of a CQ is done its dedup entries can
  // never be consulted again — erase them so a long-serving engine does
  // not accumulate one red-black node per result ever delivered.
  seen_results_.erase(
      seen_results_.lower_bound({cq_id, 0}),
      seen_results_.lower_bound({cq_id + 1, 0}));
}

void RankMergeOp::MarkDone(int port) {
  CqSlot& slot = regs_[port];
  if (slot.status == CqStatus::kDone) return;
  slot.status = CqStatus::kDone;
  slot.bound = kNegInf;
  // A logical CQ may have several registrations (the live pipeline plus
  // an epoch-recovery replay, §6.2). Its plan path may only be unlinked
  // once the *last* of them finishes.
  for (const CqSlot& other : regs_) {
    if (other.reg.cq_id == slot.reg.cq_id &&
        other.status != CqStatus::kDone) {
      return;
    }
  }
  ReleaseCqDedup(slot.reg.cq_id);
  if (on_cq_pruned) on_cq_pruned(slot.reg.cq_id);
}

void RankMergeOp::Maintain(ExecContext& ctx) {
  if (complete_) return;
  RefreshBounds();
  // Emit buffered results that clear the global threshold. No bound
  // moves while emitting, so the bar holds for the whole loop.
  const double bar = GlobalBound();
  while (static_cast<int>(results_.size()) < k_ && !buffer_.empty()) {
    if (buffer_.front().score + kEps < bar) break;
    Buffered top = PopBest();
    ResultTuple r;
    r.score = top.score;
    r.cq_id = regs_[top.port].reg.cq_id;
    r.tuple = std::move(top.tuple);
    r.emitted_at_us = ctx.clock->now();
    results_.push_back(std::move(r));
    ctx.stats->results_emitted += 1;
  }
  // Prune CQs that can no longer contribute: threshold below the kth
  // known answer (§6.3). This never lowers the bar: unless k results
  // are out (emission is over) or the buffer is empty (the kth known
  // score is then −inf), the loop above stopped at a best buffered
  // score below bar − ε, and the kth known score is at most that
  // score, so a registration holding the bar is never below it.
  double kth = KthKnownScore();
  if (kth > kNegInf) {
    for (size_t p = 0; p < regs_.size(); ++p) {
      if (regs_[p].status == CqStatus::kDone) continue;
      if (regs_[p].bound + kEps < kth) MarkDone(static_cast<int>(p));
    }
  }
  // Exhausted registrations are done too (their bound is already −inf).
  for (size_t p = 0; p < regs_.size(); ++p) {
    if (regs_[p].status == CqStatus::kDone) continue;
    if (regs_[p].bound == kNegInf) MarkDone(static_cast<int>(p));
  }
  // Nothing above changed an input of the next call: it would be a
  // no-op until a result, registration or stream read arrives.
  dirty_ = false;
  // Completion: k results out, or nothing can ever arrive again.
  //
  // "k results out" alone is not enough: a sibling registration whose
  // bound still *ties* the kth score may deliver equal-score answers
  // that rank earlier in the canonical total order. Declaring
  // completion while such a sibling is pending (possibly never
  // activated) would make the chosen tie subset depend on arrival
  // timing — exactly what differs between a warm-state graft and a
  // fresh run. Emission already guarantees every emitted score is >=
  // every bound at emission time and bounds only decrease, so a late
  // result can tie the kth score but never beat it; the merge therefore
  // stays live until every remaining bound is *strictly* below the kth
  // score (the scheduler keeps activating/reading the tied sibling —
  // that is the activation-order half of the §6.3 safety argument).
  if (static_cast<int>(results_.size()) >= k_) {
    const double kth = results_[k_ - 1].score;
    bool tied_bound_pending = false;
    for (const CqSlot& slot : regs_) {
      if (slot.status == CqStatus::kDone) continue;
      if (slot.bound + kEps >= kth) {
        tied_bound_pending = true;
        break;
      }
    }
    if (!tied_bound_pending) complete_ = true;
  } else if (GlobalBound() == kNegInf && buffer_.empty()) {
    complete_ = true;
  }
  if (complete_ && complete_time_us_ == 0) {
    // Fold buffered results that tie the kth score into the candidate
    // set: every bound is now below the kth score, so they are final
    // answers, and the canonical order — not arrival order — must pick
    // which of the tied answers make the top k. Re-ranking the whole
    // set canonically makes a warm-state run byte-equivalent to a
    // fresh run (and a sharded run to an unsharded one).
    if (static_cast<int>(results_.size()) >= k_) {
      const double kth = results_[k_ - 1].score;
      while (!buffer_.empty() && buffer_.front().score + kEps >= kth) {
        Buffered top = PopBest();
        ResultTuple r;
        r.score = top.score;
        r.cq_id = regs_[top.port].reg.cq_id;
        r.tuple = std::move(top.tuple);
        r.emitted_at_us = ctx.clock->now();
        results_.push_back(std::move(r));
      }
    }
    std::stable_sort(results_.begin(), results_.end(), ResultTupleOrder());
    if (static_cast<int>(results_.size()) > k_) {
      results_.resize(static_cast<size_t>(k_));
    }
    complete_time_us_ = ctx.clock->now();
    // Release all contributing paths.
    for (size_t p = 0; p < regs_.size(); ++p) {
      MarkDone(static_cast<int>(p));
    }
  }
}

int64_t RankMergeOp::StateSizeBytes() const {
  int64_t total = static_cast<int64_t>(buffer_.size()) *
                  static_cast<int64_t>(sizeof(Buffered));
  for (const ResultTuple& r : results_) total += r.tuple.SizeBytes() + 32;
  // Dedup set: ~one red-black node per delivered (cq, identity) pair.
  total += static_cast<int64_t>(seen_results_.size()) * 64;
  return total;
}

std::string RankMergeOp::Describe() const {
  return "rank-merge[UQ" + std::to_string(uq_id_) + ",k=" +
         std::to_string(k_) + "]";
}

}  // namespace qsys
