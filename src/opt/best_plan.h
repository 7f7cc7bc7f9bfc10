// The BestPlan search (Algorithm 1 of the paper, §5.1.2): top-down
// exploration — in the style of the Volcano optimizer — of which
// candidate subexpressions to push down to the sources, minimizing the
// estimated cost of answering the whole query batch.
//
// Candidates are explored in canonical (index-increasing) order, so each
// combination of chosen candidates is visited exactly once and no memo
// is needed. When a candidate J is chosen for queries S[J],
// every candidate overlapping J loses those queries from its usable set
// (Definition 1: each relation of each query is covered by exactly one
// input). Atoms left uncovered when the search stops are completed with
// per-atom residual inputs (base relations as streams or probes,
// heuristic 2).

#ifndef QSYS_OPT_BEST_PLAN_H_
#define QSYS_OPT_BEST_PLAN_H_

#include <atomic>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/opt/cost_model.h"
#include "src/opt/heuristics.h"

namespace qsys {

/// \brief One fully costed assignment the search considered — kept only
/// when the caller asks for explainable decisions (decision journal).
struct PlanAlternative {
  double cost = 0.0;
  /// Pushed-down candidate inputs in this assignment (0 = all residual).
  int pushdowns = 0;
  /// Deterministic descriptor: "+"-joined signatures of the chosen
  /// pushdowns, or "residual-only".
  std::string desc;
};

/// \brief Outcome of the BestPlan search.
struct BestPlanResult {
  InputAssignment assignment;
  double cost = 0.0;
  /// Search-tree nodes expanded (diagnostics; grows with candidates).
  int64_t nodes_explored = 0;
  /// Candidates that entered the search (Figure 11's x-axis).
  int num_candidates = 0;
  /// Lowest-cost explored assignments, ascending by cost (the winner is
  /// [0]). Empty unless collect_alternatives was set.
  std::vector<PlanAlternative> alternatives;
};

/// \brief Runs Algorithm 1 over a pruned candidate set.
class BestPlanSearch {
 public:
  /// Explored assignments retained per decision when collecting
  /// alternatives for the journal.
  static constexpr int kMaxAlternatives = 8;

  /// `progress`, when non-null, is ticked once per search node.
  BestPlanSearch(const CostModel* cost_model, const Catalog* catalog,
                 const PruningOptions* pruning, int k, int reuse_tag,
                 bool collect_alternatives = false,
                 std::atomic<int64_t>* progress = nullptr)
      : cost_model_(cost_model),
        catalog_(catalog),
        pruning_(pruning),
        k_(k),
        reuse_tag_(reuse_tag),
        collect_alternatives_(collect_alternatives),
        progress_(progress) {}

  /// Finds the minimum-cost valid input assignment for `queries` using a
  /// subset of `candidates` plus residual base-relation inputs.
  BestPlanResult Run(const std::vector<const ConjunctiveQuery*>& queries,
                     const std::vector<CandidateInput>& candidates);

 private:
  struct Chosen {
    int cand_index;
    std::set<int> cq_ids;  // queries it will serve
  };

  /// Completes `chosen` with residual per-atom inputs and costs the
  /// resulting full assignment.
  double CompleteAndCost(const std::vector<const ConjunctiveQuery*>& queries,
                         const std::vector<CandidateInput>& candidates,
                         const std::vector<Chosen>& chosen,
                         InputAssignment* out) const;

  void Search(const std::vector<const ConjunctiveQuery*>& queries,
              const std::vector<CandidateInput>& candidates,
              std::vector<Chosen>& chosen, int next_index,
              BestPlanResult* best);

  /// Keeps the cost-ascending top-kMaxAlternatives explored assignments.
  void RecordAlternative(const std::vector<CandidateInput>& candidates,
                         const std::vector<Chosen>& chosen, double cost,
                         BestPlanResult* best) const;

  const CostModel* cost_model_;
  const Catalog* catalog_;
  const PruningOptions* pruning_;
  int k_;
  int reuse_tag_;
  bool collect_alternatives_;
  std::atomic<int64_t>* progress_;
};

/// Builds the residual input assignment for `queries` given already
/// chosen inputs: every uncovered atom becomes a single-atom input,
/// shared across queries by atom key, streamed or probed per heuristic 2.
/// Ensures every query retains at least one streaming input (forcing its
/// smallest uncovered atom to stream if necessary). Exposed for tests.
InputAssignment CompleteAssignment(
    const std::vector<const ConjunctiveQuery*>& queries,
    const std::vector<std::pair<const CandidateInput*, std::set<int>>>&
        chosen,
    const Catalog& catalog, const CostModel& cost_model,
    const PruningOptions& pruning);

}  // namespace qsys

#endif  // QSYS_OPT_BEST_PLAN_H_
