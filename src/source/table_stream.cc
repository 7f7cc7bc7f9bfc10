#include "src/source/table_stream.h"

#include "src/source/pushdown.h"

namespace qsys {

Status MaterializedStream::Open(ExecContext& ctx) {
  if (opened_) return Status::OK();
  auto result = EvaluatePushdown(expr_, *ctx.catalog);
  if (!result.ok()) return result.status();
  tuples_ = std::move(result.value().tuples);
  // Single-atom streams use the source's score index directly (cursor
  // open only); multi-atom pushdowns pay for the source-side join.
  if (expr_.num_atoms() > 1) {
    ctx.Charge(TimeBucket::kStreamRead,
               ctx.delays->PushdownCost(result.value().work_units));
  }
  opened_ = true;
  return Status::OK();
}

std::optional<CompositeTuple> MaterializedStream::Read(ExecContext& ctx) {
  if (!opened_) {
    Status s = Open(ctx);
    if (!s.ok()) return std::nullopt;
  }
  if (cursor_ >= tuples_.size()) return std::nullopt;
  ctx.Charge(TimeBucket::kStreamRead, ctx.delays->SampleStream());
  ctx.stats->tuples_streamed += 1;
  ++tuples_read_;
  return tuples_[cursor_++];
}

double MaterializedStream::frontier_sum() const {
  if (!opened_) return initial_max_sum_;
  if (cursor_ >= tuples_.size()) {
    return -std::numeric_limits<double>::infinity();
  }
  return tuples_[cursor_].sum_scores();
}

bool MaterializedStream::exhausted() const {
  return opened_ && cursor_ >= tuples_.size();
}

}  // namespace qsys
