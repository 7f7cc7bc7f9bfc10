#include "src/opt/optimizer.h"

#include <algorithm>
#include <chrono>

#include "src/opt/andor.h"

namespace qsys {

OptimizedGroup Optimizer::OptimizeGroup(
    const std::vector<const ConjunctiveQuery*>& queries,
    const OptimizerOptions& options, int reuse_tag, bool allow_sharing,
    OptimizeOutcome* outcome) {
  // Stage 1a: candidate enumeration + pruning (skipped entirely when the
  // configuration forbids sharing — ATC-CQ executes every CQ as one
  // m-join over base inputs).
  std::vector<CandidateInput> pruned;
  if (allow_sharing) {
    CandidateSet cands =
        EnumerateCandidates(queries, options.max_subexpr_atoms);
    outcome->enumerated += cands.enumerated;
    pruned = ApplyPruningHeuristics(cands.inputs, queries, cost_model_,
                                    *catalog_, options.pruning);
  }
  outcome->candidates_considered += static_cast<int64_t>(pruned.size());

  // Stage 1b: BestPlan (Algorithm 1).
  BestPlanSearch search(&cost_model_, catalog_, &options.pruning, options.k,
                        reuse_tag, /*collect_alternatives=*/options.explain,
                        options.progress);
  BestPlanResult best = search.Run(queries, pruned);
  outcome->nodes_explored += best.nodes_explored;

  // Stage 2: factorization into m-join components.
  OptimizedGroup group;
  if (options.explain) {
    auto& d = group.decision;
    d.recorded = true;
    d.win_cost = best.cost;
    d.num_candidates = best.num_candidates;
    d.nodes_explored = best.nodes_explored;
    d.alternatives = std::move(best.alternatives);
    // Guarantee a second costed alternative: the winning assignment
    // without retained-state discounts. Its margin over the winner is
    // the cost the optimizer expects sharing to save for this group.
    PlanAlternative fresh;
    fresh.cost =
        cost_model_.PlanCost(queries, best.assignment, options.k, -1);
    fresh.pushdowns = static_cast<int>(best.assignment.inputs.size());
    fresh.desc = "winner-without-retained-state";
    d.alternatives.push_back(std::move(fresh));
    std::stable_sort(d.alternatives.begin(), d.alternatives.end(),
                     [](const PlanAlternative& l, const PlanAlternative& r) {
                       if (l.cost != r.cost) return l.cost < r.cost;
                       return l.desc < r.desc;
                     });
    if (d.alternatives.size() >= 2) {
      d.margin = d.alternatives[1].cost - d.alternatives[0].cost;
    }
  }
  auto spec = FactorizePlan(queries, best.assignment, cost_model_);
  // Factorization only fails on malformed inputs; surface loudly in
  // debug builds, degrade to per-query plans otherwise.
  if (spec.ok()) {
    group.spec = std::move(spec).value();
  } else {
    // Fallback: every atom as its own residual input, one component per
    // query (no sharing).
    InputAssignment residual = CompleteAssignment(
        queries, {}, *catalog_, cost_model_, options.pruning);
    group.spec = FactorizePlan(queries, residual, cost_model_).value();
  }
  for (const ConjunctiveQuery* q : queries) group.cq_ids.push_back(q->id);
  return group;
}

OptimizeOutcome Optimizer::OptimizeBatch(
    const std::vector<const UserQuery*>& uqs,
    const OptimizerOptions& options, int reuse_tag) {
  auto start = std::chrono::steady_clock::now();
  OptimizeOutcome outcome;
  switch (options.sharing) {
    case SharingMode::kNone:
      for (const UserQuery* uq : uqs) {
        for (const ConjunctiveQuery& cq : uq->cqs) {
          outcome.groups.push_back(OptimizeGroup(
              {&cq}, options, reuse_tag, /*allow_sharing=*/false,
              &outcome));
        }
      }
      break;
    case SharingMode::kWithinUq:
      for (const UserQuery* uq : uqs) {
        std::vector<const ConjunctiveQuery*> queries;
        for (const ConjunctiveQuery& cq : uq->cqs) queries.push_back(&cq);
        outcome.groups.push_back(OptimizeGroup(
            queries, options, reuse_tag, /*allow_sharing=*/true, &outcome));
      }
      break;
    case SharingMode::kFull: {
      std::vector<const ConjunctiveQuery*> queries;
      for (const UserQuery* uq : uqs) {
        for (const ConjunctiveQuery& cq : uq->cqs) queries.push_back(&cq);
      }
      outcome.groups.push_back(OptimizeGroup(
          queries, options, reuse_tag, /*allow_sharing=*/true, &outcome));
      break;
    }
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

}  // namespace qsys
