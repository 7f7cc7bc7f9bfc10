// The split operator: pipelined fan-out of a shared subexpression's
// output to multiple downstream consumers (§4.1).

#ifndef QSYS_EXEC_SPLIT_OP_H_
#define QSYS_EXEC_SPLIT_OP_H_

#include <vector>

#include "src/exec/operator.h"

namespace qsys {

/// \brief Forwards each arriving tuple to every (active) registered
/// consumer. Consumers can be added at graft time and removed when a
/// query path is pruned.
class SplitOp : public Operator {
 public:
  SplitOp() = default;

  void AddConsumer(Consumer c) { consumers_.push_back(c); }

  /// Removes every consumer targeting `op` (any port) and returns how
  /// many remain. A split left with one consumer or none stays in the
  /// graph: PlanGraph::RetireRankMerge leaves it in place, and the
  /// producer's next ConnectMJoin reuses it (§6.3 unlinking).
  int RemoveConsumer(const Operator* op);

  const std::vector<Consumer>& consumers() const { return consumers_; }

  void Consume(int port, const CompositeTuple& tuple,
               ExecContext& ctx) override;

  std::string Describe() const override { return "split"; }

 private:
  std::vector<Consumer> consumers_;
};

}  // namespace qsys

#endif  // QSYS_EXEC_SPLIT_OP_H_
