// The multiple-query optimizer (§5): batches of conjunctive queries in,
// factored plan specifications out.
//
// Stage 1 (cost-based): enumerate candidate subexpressions over the
// AND-OR memo, prune them with the §5.1.1 heuristics, and run the
// BestPlan search (Algorithm 1) for the input assignment to push down to
// the sources — with cost estimates discounted for state retained from
// prior executions (§6.1). Stage 2 (heuristic): factorize the middleware
// plan into shared m-join components (§5.2).
//
// The sharing mode reproduces the paper's evaluation configurations:
// ATC-CQ optimizes every conjunctive query alone, ATC-UQ shares within a
// user query, ATC-FULL (and each ATC-CL cluster) shares across the whole
// batch.

#ifndef QSYS_OPT_OPTIMIZER_H_
#define QSYS_OPT_OPTIMIZER_H_

#include <atomic>
#include <vector>

#include "src/opt/best_plan.h"
#include "src/opt/factorize.h"
#include "src/query/uq.h"

namespace qsys {

/// \brief How widely subexpressions may be shared.
enum class SharingMode {
  /// No sharing: each conjunctive query planned alone (ATC-CQ).
  kNone,
  /// Sharing within one user query only (ATC-UQ).
  kWithinUq,
  /// Sharing across every query in the batch (ATC-FULL / one ATC-CL
  /// cluster).
  kFull,
};

/// \brief Optimizer configuration.
struct OptimizerOptions {
  SharingMode sharing = SharingMode::kFull;
  PruningOptions pruning;
  /// Cap on pushdown subexpression size (atoms).
  int max_subexpr_atoms = 4;
  /// Results requested per user query (drives depth estimation).
  int k = 50;
  /// Record the costed alternatives behind every plan choice into
  /// OptimizedGroup::decision (decision journal; off keeps the search
  /// allocation-free).
  bool explain = false;
  /// When non-null, ticked once per BestPlan search node: the engine's
  /// liveness counter (Engine::progress_ticks), so a long search still
  /// shows progress.
  std::atomic<int64_t>* progress = nullptr;
};

/// \brief One co-optimized group: a plan spec covering a set of CQs.
struct OptimizedGroup {
  PlanSpec spec;
  /// CQ ids covered by this spec.
  std::vector<int> cq_ids;

  /// The decision record behind this group's plan, filled only when
  /// OptimizerOptions::explain is set. Every decision carries at least
  /// two costed alternatives: the explored runners-up, plus the winning
  /// assignment re-costed without retained-state discounts (so the
  /// margin sharing buys is always visible even when the search had a
  /// single valid assignment).
  struct Decision {
    bool recorded = false;
    double win_cost = 0.0;
    /// Runner-up cost minus winner cost (0 with no distinct runner-up).
    double margin = 0.0;
    int num_candidates = 0;
    int64_t nodes_explored = 0;
    std::vector<PlanAlternative> alternatives;
  } decision;
};

/// \brief Result of optimizing one batch, with the measurements Figure 11
/// reports.
struct OptimizeOutcome {
  std::vector<OptimizedGroup> groups;
  /// Candidates that entered the BestPlan search, summed over groups.
  int64_t candidates_considered = 0;
  /// Subexpressions enumerated before pruning.
  int64_t enumerated = 0;
  /// BestPlan search nodes expanded.
  int64_t nodes_explored = 0;
  /// Real (wall) optimization time in seconds.
  double wall_seconds = 0.0;
};

/// \brief Facade over the optimization pipeline.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, const InvertedIndex* index,
            const SourceManager* sources, const StatsRegistry* observed,
            const DelayParams& delays)
      : catalog_(catalog),
        cost_model_(catalog, delays, index, observed, sources) {}

  const CostModel& cost_model() const { return cost_model_; }

  /// Optimizes one batch of user queries. `reuse_tag` identifies the
  /// sharing scope whose retained state should discount costs (-1
  /// disables reuse-aware costing).
  OptimizeOutcome OptimizeBatch(const std::vector<const UserQuery*>& uqs,
                                const OptimizerOptions& options,
                                int reuse_tag);

 private:
  OptimizedGroup OptimizeGroup(
      const std::vector<const ConjunctiveQuery*>& queries,
      const OptimizerOptions& options, int reuse_tag, bool allow_sharing,
      OptimizeOutcome* outcome);

  const Catalog* catalog_;
  CostModel cost_model_;
};

}  // namespace qsys

#endif  // QSYS_OPT_OPTIMIZER_H_
