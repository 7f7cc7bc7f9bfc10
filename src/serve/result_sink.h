// Result delivery for the query-serving layer: how a client waiting on
// a submitted keyword query receives its ranked top-k answers.
//
// The executor thread resolves one QueryTicket per query as the shared
// ATC execution completes its rank-merge (or as admission/generation
// fails). Clients either block on QueryTicket::Wait()/future(), or
// install a callback sink that fires on the executor thread.

#ifndef QSYS_SERVE_RESULT_SINK_H_
#define QSYS_SERVE_RESULT_SINK_H_

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/exec/rank_merge_op.h"

namespace qsys {

/// \brief Everything a client gets back for one keyword query.
struct QueryOutcome {
  /// The user-query id assigned at admission.
  int uq_id = -1;
  /// The session that submitted it.
  int session_id = -1;
  /// The original keyword text.
  std::string keywords;
  /// Shard that executed the query; negative when it resolved while
  /// awaiting a retry, pinned to no shard.
  int shard = 0;
  /// OK when `results` holds the completed top-k; a candidate-generation
  /// or cancellation status otherwise.
  Status status;
  /// Ranked answers in the canonical order (best score first, ties
  /// broken by provenance — see ResultTupleOrder), copied out of
  /// the plan graph at completion time so they outlive engine eviction.
  /// The canonical order makes the ranking byte-identical across shard
  /// counts and batching timings.
  std::vector<ResultTuple> results;
  /// The per-query latency/work record (virtual-time based).
  UserQueryMetrics metrics;
  /// Times the fault-tolerance layer re-submitted this query after a
  /// shard failure or stall (bounded by ServiceOptions::max_retries).
  int retries = 0;
};

/// \brief One client's handle on one in-flight query.
///
/// Movable, future-backed. The promise side lives in the service's
/// in-flight table until the executor resolves it.
class QueryTicket {
 public:
  QueryTicket() = default;
  QueryTicket(int uq_id, std::shared_future<QueryOutcome> future)
      : uq_id_(uq_id), future_(std::move(future)) {}

  int uq_id() const { return uq_id_; }
  bool valid() const { return future_.valid(); }

  /// Blocks until the query completes, fails, or is cancelled.
  const QueryOutcome& Wait() const { return future_.get(); }

  /// The underlying shared future, for callers composing their own
  /// waits (wait_for, deadlines, ...).
  const std::shared_future<QueryOutcome>& future() const { return future_; }

 private:
  int uq_id_ = -1;
  std::shared_future<QueryOutcome> future_;
};

/// \brief Push-style delivery: invoked on the executor thread for every
/// resolved query (completed, failed, or cancelled). Implementations
/// must be quick and must not call back into the service.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void Deliver(const QueryOutcome& outcome) = 0;
};

/// \brief Adapts a std::function to a ResultSink.
class CallbackSink : public ResultSink {
 public:
  explicit CallbackSink(std::function<void(const QueryOutcome&)> fn)
      : fn_(std::move(fn)) {}
  void Deliver(const QueryOutcome& outcome) override { fn_(outcome); }

 private:
  std::function<void(const QueryOutcome&)> fn_;
};

}  // namespace qsys

#endif  // QSYS_SERVE_RESULT_SINK_H_
