// Streaming sources: score-ordered tuple streams from remote databases.
//
// A streaming source computes one input expression J of the optimizer's
// input assignment I (§3, §5.1): either a (possibly selected) base
// relation read through its score index, or a pushed-down subexpression
// evaluated by the remote DBMS. Tuples arrive in nonincreasing order of
// their base-score sum; each Next() charges a Poisson network delay.

#ifndef QSYS_SOURCE_TABLE_STREAM_H_
#define QSYS_SOURCE_TABLE_STREAM_H_

#include <limits>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/exec/composite.h"
#include "src/exec/exec_context.h"
#include "src/query/expr.h"

namespace qsys {

/// \brief Abstract score-ordered stream over an expression.
///
/// Shared across every conjunctive query that consumes the expression:
/// one cursor, fan-out happens downstream via split operators.
class StreamingSource {
 public:
  StreamingSource(Expr expr, double initial_max_sum)
      : expr_(std::move(expr)), initial_max_sum_(initial_max_sum) {}
  virtual ~StreamingSource() = default;

  const Expr& expr() const { return expr_; }

  /// Next tuple in score order, or nullopt when exhausted. Charges the
  /// per-tuple stream delay. Every read bumps frontier_version().
  std::optional<CompositeTuple> Next(ExecContext& ctx) {
    ++frontier_version_;
    return Read(ctx);
  }

  /// Upper bound on sum_scores() of any *unread* tuple: the statistics
  /// bound before opening, the next tuple's sum after, −inf when
  /// exhausted.
  virtual double frontier_sum() const = 0;

  virtual bool exhausted() const = 0;

  /// Upper bound on sum_scores() of *any* tuple (read or not); constant.
  double initial_max_sum() const { return initial_max_sum_; }

  /// Changes whenever frontier_sum() or exhausted() may have changed.
  /// Reads are the only way a stream advances (Open runs inside the
  /// first read), so a rank-merge can cache a bound derived from this
  /// stream until the version moves.
  int64_t frontier_version() const { return frontier_version_; }

  int64_t tuples_read() const { return tuples_read_; }

  /// Identifier assigned by the SourceManager.
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  /// User query on whose behalf this stream was first created (set once
  /// by the grafter; -1 until then). Later queries that inherit this
  /// stream's already-read prefix attribute the saved streaming work to
  /// the producer (sharing-benefit attribution, src/obs/explain.h).
  int producer_uq() const { return producer_uq_; }
  void set_producer_uq(int uq) { producer_uq_ = uq; }

 protected:
  /// Prepares the stream (for pushdowns: remote evaluation + setup
  /// charge). Idempotent; the first read calls it.
  virtual Status Open(ExecContext& ctx) = 0;

  /// The subclass's read behind Next().
  virtual std::optional<CompositeTuple> Read(ExecContext& ctx) = 0;

  Expr expr_;
  double initial_max_sum_;
  int64_t tuples_read_ = 0;
  int id_ = -1;
  int producer_uq_ = -1;

 private:
  int64_t frontier_version_ = 0;
};

/// \brief Streaming source that materializes its (sorted) result at the
/// remote site and then streams it tuple by tuple.
///
/// Covers both cases of the paper's input assignments: single-atom inputs
/// (the DBMS reads its own score index; negligible setup) and multi-atom
/// pushdowns (the DBMS joins first; setup charge proportional to the
/// source-side work).
class MaterializedStream : public StreamingSource {
 public:
  MaterializedStream(Expr expr, double initial_max_sum)
      : StreamingSource(std::move(expr), initial_max_sum) {}

  double frontier_sum() const override;
  bool exhausted() const override;

  /// Total result size at the source (valid after Open).
  int64_t total_tuples() const {
    return static_cast<int64_t>(tuples_.size());
  }
  bool opened() const { return opened_; }

 protected:
  Status Open(ExecContext& ctx) override;
  std::optional<CompositeTuple> Read(ExecContext& ctx) override;

 private:
  bool opened_ = false;
  std::vector<CompositeTuple> tuples_;
  size_t cursor_ = 0;
};

}  // namespace qsys

#endif  // QSYS_SOURCE_TABLE_STREAM_H_
