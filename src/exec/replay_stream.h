// Replay streams: in-memory streaming sources over the arrival-order
// linked lists embedded in join hash tables (§6.2 of the paper).
//
// When a new conjunctive query arrives after its streaming inputs have
// already been partially read, Algorithm 2 (RecoverState) re-processes
// the buffered prefix *in original score order*. A ReplayStream exposes
// the pre-epoch prefix of a hash table as a StreamingSource: arrival
// order equals score order, so frontiers and thresholds work unchanged.
// Reads cost middleware CPU (join bucket), not network.

#ifndef QSYS_EXEC_REPLAY_STREAM_H_
#define QSYS_EXEC_REPLAY_STREAM_H_

#include <limits>

#include "src/exec/join_hash_table.h"
#include "src/source/table_stream.h"

namespace qsys {

/// \brief Streams the entries of `table` whose epoch precedes
/// `max_epoch_exclusive`, in arrival (= score) order.
class ReplayStream : public StreamingSource {
 public:
  /// `expr` is the expression the hash table's composites cover;
  /// `initial_max_sum` its statistics bound (same as the original
  /// stream's).
  ReplayStream(Expr expr, double initial_max_sum, const JoinHashTable* table,
               int max_epoch_exclusive)
      : StreamingSource(std::move(expr), initial_max_sum),
        table_(table),
        limit_(table->CountBefore(max_epoch_exclusive)) {}

  double frontier_sum() const override {
    if (cursor_ >= limit_) {
      return -std::numeric_limits<double>::infinity();
    }
    return table_->entry(cursor_).sum_scores();
  }

  bool exhausted() const override { return cursor_ >= limit_; }

  /// Number of entries this replay will deliver in total.
  int64_t limit() const { return limit_; }

 protected:
  Status Open(ExecContext& ctx) override {
    (void)ctx;
    return Status::OK();
  }

  std::optional<CompositeTuple> Read(ExecContext& ctx) override {
    if (cursor_ >= limit_) return std::nullopt;
    // In-memory replay: charge a hash-probe-sized CPU cost, no network.
    ctx.Charge(TimeBucket::kJoin,
               static_cast<VirtualTime>(ctx.delays->params().join_probe_us));
    ++tuples_read_;
    return table_->entry(cursor_++);
  }

 private:
  const JoinHashTable* table_;
  int64_t limit_;
  int64_t cursor_ = 0;
};

}  // namespace qsys

#endif  // QSYS_EXEC_REPLAY_STREAM_H_
