#include "src/opt/best_plan.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace qsys {

InputAssignment CompleteAssignment(
    const std::vector<const ConjunctiveQuery*>& queries,
    const std::vector<std::pair<const CandidateInput*, std::set<int>>>&
        chosen,
    const Catalog& catalog, const CostModel& cost_model,
    const PruningOptions& pruning) {
  InputAssignment out;
  for (const auto& [cand, cqs] : chosen) {
    CandidateInput ci = *cand;
    ci.cq_ids = cqs;
    ci.streaming = true;  // pushdowns are streamed (H2 filtered earlier)
    out.inputs.push_back(std::move(ci));
  }
  // Residual coverage: uncovered atoms become single-atom inputs shared
  // across queries by atom key.
  std::unordered_map<std::string, int> atom_input_of;
  for (const ConjunctiveQuery* q : queries) {
    // Atoms of q covered by chosen inputs serving q.
    std::set<std::string> covered;
    for (const auto& input : out.inputs) {
      if (input.cq_ids.count(q->id) == 0) continue;
      for (const Atom& a : input.expr.atoms()) {
        covered.insert(std::to_string(a.table) + "." +
                       std::to_string(a.occurrence) + "." +
                       std::to_string(SelectionDigest(a.selections)));
      }
    }
    for (const Atom& a : q->expr.atoms()) {
      std::string akey = std::to_string(a.table) + "." +
                         std::to_string(a.occurrence) + "." +
                         std::to_string(SelectionDigest(a.selections));
      if (covered.count(akey) > 0) continue;
      auto it = atom_input_of.find(akey);
      if (it == atom_input_of.end()) {
        CandidateInput ci;
        ci.expr.AddAtom(a);
        ci.expr.Normalize();
        ci.expr.set_has_scored_atom(
            catalog.table(a.table).schema().has_score());
        ci.streaming = AtomIsStreamable(a, catalog, cost_model, pruning);
        it = atom_input_of.emplace(akey, out.inputs.size()).first;
        out.inputs.push_back(std::move(ci));
      }
      out.inputs[it->second].cq_ids.insert(q->id);
    }
  }
  // Every query needs at least one streaming input to drive it: force
  // the smallest of its residual inputs to stream if none qualifies.
  for (const ConjunctiveQuery* q : queries) {
    bool has_stream = false;
    for (const CandidateInput& input : out.inputs) {
      if (input.streaming && input.cq_ids.count(q->id) > 0) {
        has_stream = true;
        break;
      }
    }
    if (has_stream) continue;
    int best = -1;
    double best_card = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < out.inputs.size(); ++i) {
      if (out.inputs[i].cq_ids.count(q->id) == 0) continue;
      double card = cost_model.EstimateCardinality(out.inputs[i].expr);
      if (card < best_card) {
        best = static_cast<int>(i);
        best_card = card;
      }
    }
    if (best >= 0) out.inputs[best].streaming = true;
  }
  return out;
}

double BestPlanSearch::CompleteAndCost(
    const std::vector<const ConjunctiveQuery*>& queries,
    const std::vector<CandidateInput>& candidates,
    const std::vector<Chosen>& chosen, InputAssignment* out) const {
  std::vector<std::pair<const CandidateInput*, std::set<int>>> picked;
  picked.reserve(chosen.size());
  for (const Chosen& c : chosen) {
    picked.emplace_back(&candidates[c.cand_index], c.cq_ids);
  }
  *out = CompleteAssignment(queries, picked, *catalog_, *cost_model_,
                            *pruning_);
  return cost_model_->PlanCost(queries, *out, k_, reuse_tag_);
}

void BestPlanSearch::RecordAlternative(
    const std::vector<CandidateInput>& candidates,
    const std::vector<Chosen>& chosen, double cost,
    BestPlanResult* best) const {
  auto& alts = best->alternatives;
  if (static_cast<int>(alts.size()) >= kMaxAlternatives &&
      cost >= alts.back().cost) {
    return;
  }
  PlanAlternative alt;
  alt.cost = cost;
  alt.pushdowns = static_cast<int>(chosen.size());
  if (chosen.empty()) {
    alt.desc = "residual-only";
  } else {
    for (const Chosen& c : chosen) {
      if (!alt.desc.empty()) alt.desc += '+';
      alt.desc += candidates[c.cand_index].expr.Signature();
    }
  }
  // Insert keeping ascending (cost, desc) order; desc tie-breaks so the
  // retained set is independent of exploration order.
  auto pos = std::lower_bound(
      alts.begin(), alts.end(), alt,
      [](const PlanAlternative& l, const PlanAlternative& r) {
        if (l.cost != r.cost) return l.cost < r.cost;
        return l.desc < r.desc;
      });
  alts.insert(pos, std::move(alt));
  if (static_cast<int>(alts.size()) > kMaxAlternatives) alts.pop_back();
}

void BestPlanSearch::Search(
    const std::vector<const ConjunctiveQuery*>& queries,
    const std::vector<CandidateInput>& candidates,
    std::vector<Chosen>& chosen, int next_index, BestPlanResult* best) {
  if (best->nodes_explored >= pruning_->search_node_budget) return;
  best->nodes_explored += 1;
  if (progress_ != nullptr) {
    progress_->fetch_add(1, std::memory_order_relaxed);
  }
  // Cost the plan that uses exactly the chosen candidates.
  InputAssignment assignment;
  double cost = CompleteAndCost(queries, candidates, chosen, &assignment);
  if (collect_alternatives_) {
    RecordAlternative(candidates, chosen, cost, best);
  }
  if (cost < best->cost) {
    best->cost = cost;
    best->assignment = std::move(assignment);
  }

  // Extend with each later candidate whose residual query set is still
  // nonempty once overlapping chosen inputs claim their queries
  // (Algorithm 1's S' adjustment).
  for (int i = next_index; i < static_cast<int>(candidates.size()); ++i) {
    std::set<int> live = candidates[i].cq_ids;
    for (const Chosen& c : chosen) {
      if (candidates[c.cand_index].expr.Overlaps(candidates[i].expr)) {
        for (int id : c.cq_ids) live.erase(id);
      }
    }
    if (live.empty()) continue;
    chosen.push_back({i, std::move(live)});
    Search(queries, candidates, chosen, i + 1, best);
    chosen.pop_back();
  }
}

BestPlanResult BestPlanSearch::Run(
    const std::vector<const ConjunctiveQuery*>& queries,
    const std::vector<CandidateInput>& candidates) {
  BestPlanResult best;
  best.cost = std::numeric_limits<double>::infinity();
  best.num_candidates = static_cast<int>(candidates.size());
  std::vector<Chosen> chosen;
  Search(queries, candidates, chosen, 0, &best);
  return best;
}

}  // namespace qsys
