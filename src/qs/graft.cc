#include "src/qs/graft.h"

#include <algorithm>

namespace qsys {

int64_t PlanGrafter::BackfillAndRegister(MJoinOp* op, int tag,
                                         ExecContext& ctx) {
  int64_t added = 0;
  for (int p = 0; p < op->num_modules(); ++p) {
    JoinHashTable* table = op->module_table(p);
    if (table == nullptr) continue;  // probe modules hold no table
    const std::string& sig = op->module_expr(p).Signature();
    added += state_->BackfillModuleTable(tag, sig, table, ctx);
    state_->RegisterModuleTable(tag, sig, table, op, ctx.clock->now());
  }
  tuples_backfilled_ += added;
  return added;
}

int64_t PlanGrafter::RederivePrefixes(
    const PlanSpec& spec, const std::vector<MJoinOp*>& comp_ops,
    const std::vector<bool>& comp_reused,
    const std::set<const MJoinOp*>& warmed_ops, ExecContext& ctx) {
  // Root producers only: a producer's replay cascades through every
  // downstream operator (duplicate arrivals still cascade — see
  // MJoinOp::Consume), so replaying the roots re-derives the buffered
  // prefix of every level of the component DAG.
  const size_t n_comps = spec.components.size();
  std::vector<bool> is_producer(n_comps, false);
  std::vector<bool> has_upstream(n_comps, false);
  std::vector<std::vector<int>> upstreams(n_comps);
  for (const PlanSpec::Component& comp : spec.components) {
    for (const PlanSpec::ModuleRef& ref : comp.modules) {
      if (ref.kind == PlanSpec::ModuleRef::Kind::kUpstream) {
        is_producer[ref.index] = true;
        has_upstream[comp.id] = true;
        upstreams[comp.id].push_back(ref.index);
      }
    }
  }
  // "Tainted" components force a full replay of every root they draw
  // from: a fresh consumer holds an output table no prior replay ever
  // populated, and a backfilled/restored one may have lost derived
  // combos with its evicted state — in both cases the watermark's
  // "already derived downstream" claim does not hold for them. Taint
  // propagates up the component DAG (the cascade must pass through
  // every intermediate level to reach the tainted consumer).
  std::vector<bool> tainted(n_comps, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const PlanSpec::Component& comp : spec.components) {
      bool taint =
          tainted[comp.id] || !comp_reused[comp.id] ||
          (comp_ops[comp.id] != nullptr &&
           warmed_ops.count(comp_ops[comp.id]) > 0);
      if (!taint) continue;
      if (!tainted[comp.id]) {
        tainted[comp.id] = true;
        changed = true;
      }
      for (int up : upstreams[comp.id]) {
        if (!tainted[up]) {
          tainted[up] = true;
          changed = true;
        }
      }
    }
  }

  int64_t replayed = 0;
  for (const PlanSpec::Component& comp : spec.components) {
    if (!is_producer[comp.id] || has_upstream[comp.id]) continue;
    MJoinOp* op = comp_ops[comp.id];
    if (op == nullptr) continue;

    auto wm_it = replayed_upto_.find(op);
    std::vector<int64_t>& marks =
        wm_it != replayed_upto_.end()
            ? wm_it->second
            : replayed_upto_
                  .emplace(op, std::vector<int64_t>(
                                   static_cast<size_t>(op->num_modules()), 0))
                  .first->second;
    bool full = tainted[comp.id] || wm_it == replayed_upto_.end();
    for (int p = 0; !full && p < op->num_modules(); ++p) {
      if (!op->module_is_stream(p)) continue;
      JoinHashTable* t = op->module_table(p);
      // A table below its own watermark lost entries to eviction since
      // the last replay; the combos derived from them may be gone
      // downstream too. Fall back to a full replay.
      if (t != nullptr &&
          t->num_entries() < marks[static_cast<size_t>(p)]) {
        full = true;
      }
    }

    if (full) {
      // Drive from the stream module with the fewest buffered tuples:
      // every join combo contains exactly one tuple per module, so
      // replaying one module's full prefix derives every buffered
      // combo, and the smallest prefix is the cheapest driver. An empty
      // module means no combo can be made purely of buffered tuples —
      // nothing to re-derive.
      int drive = -1;
      int64_t fewest = 0;
      for (int p = 0; p < op->num_modules(); ++p) {
        if (!op->module_is_stream(p)) continue;
        JoinHashTable* t = op->module_table(p);
        if (t == nullptr) continue;
        if (drive < 0 || t->num_entries() < fewest) {
          drive = p;
          fewest = t->num_entries();
        }
      }
      if (drive >= 0 && fewest > 0) {
        JoinHashTable* t = op->module_table(drive);
        // Re-offered entries are identity-deduplicated by the table, so
        // the table cannot grow while we walk it; the bound is still
        // pinned defensively.
        const int64_t n = t->num_entries();
        for (int64_t i = 0; i < n; ++i) {
          op->Consume(drive, t->entry(i), ctx);
        }
        replayed += n;
      }
      // Full replay (or an empty module = zero derivable combos)
      // establishes the invariant for everything currently buffered:
      // advance every module's watermark to its current size.
      for (int p = 0; p < op->num_modules(); ++p) {
        JoinHashTable* t =
            op->module_is_stream(p) ? op->module_table(p) : nullptr;
        marks[static_cast<size_t>(p)] = t != nullptr ? t->num_entries() : 0;
      }
      continue;
    }

    // Steady state: nothing to replay at all. Every entry at or below
    // a watermark was covered by an earlier replay; every entry above
    // one arrived through this op's own live Consume (anything else —
    // backfill, spill restore — taints the op above and forces the
    // full path), which derived its combos downstream on arrival. Just
    // advance the watermarks and record what the pre-watermark full
    // replay would have re-offered.
    int64_t would_replay = -1;
    for (int p = 0; p < op->num_modules(); ++p) {
      if (!op->module_is_stream(p)) continue;
      JoinHashTable* t = op->module_table(p);
      if (t == nullptr) continue;
      const int64_t n = t->num_entries();
      if (would_replay < 0 || n < would_replay) would_replay = n;
      marks[static_cast<size_t>(p)] = n;
    }
    if (would_replay > 0) {
      tuples_rederived_skipped_ += would_replay;
      ctx.stats->tuples_rederived_skipped += would_replay;
    }
  }
  tuples_rederived_ += replayed;
  ctx.stats->tuples_rederived += replayed;
  return replayed;
}

RankMergeOp* PlanGrafter::GetOrCreateMerge(Atc* atc, const UserQuery& uq) {
  for (RankMergeOp* rm : atc->graph().rank_merges()) {
    if (rm->uq_id() == uq.id) return rm;
  }
  RankMergeOp* rm =
      atc->graph().AddRankMerge(uq.id, uq.k, uq.submit_time_us);
  rm->set_start_time_us(atc->clock().now());
  PlanGraph* graph = &atc->graph();
  rm->on_cq_pruned = [graph](int cq_id) { graph->UnlinkCq(cq_id); };
  return rm;
}

bool PlanGrafter::Matches(const MJoinOp* candidate, const PlanSpec& spec,
                          const PlanSpec::Component& comp,
                          const std::vector<MJoinOp*>& comp_ops,
                          const std::vector<bool>& comp_reused,
                          int tag) const {
  // Reuse never crosses sharing scopes: an ATC-UQ / ATC-CQ operator is
  // fed by that scope's private streams.
  auto tag_it = op_tag_.find(candidate);
  if (tag_it == op_tag_.end() || tag_it->second != tag) return false;
  if (candidate->num_modules() !=
      static_cast<int>(comp.modules.size())) {
    return false;
  }
  // Multiset match on (streamed?, module expr signature).
  std::vector<std::pair<bool, std::string>> want, have;
  for (const PlanSpec::ModuleRef& ref : comp.modules) {
    bool streamed = ref.kind != PlanSpec::ModuleRef::Kind::kProbe;
    const Expr& e = ref.kind == PlanSpec::ModuleRef::Kind::kUpstream
                        ? spec.components[ref.index].expr
                        : spec.assignment.inputs[ref.index].expr;
    want.emplace_back(streamed, e.Signature());
  }
  for (int p = 0; p < candidate->num_modules(); ++p) {
    have.emplace_back(candidate->module_is_stream(p),
                      candidate->module_expr(p).Signature());
  }
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  if (want != have) return false;
  // Upstream feeders must be exactly the operators we resolved (and
  // themselves reused, so their state continuity holds).
  auto pit = producers_.find(candidate);
  const std::vector<const MJoinOp*>* feeders =
      pit == producers_.end() ? nullptr : &pit->second;
  for (const PlanSpec::ModuleRef& ref : comp.modules) {
    if (ref.kind != PlanSpec::ModuleRef::Kind::kUpstream) continue;
    if (!comp_reused[ref.index]) return false;
    bool found = false;
    if (feeders != nullptr) {
      for (const MJoinOp* f : *feeders) {
        if (f == comp_ops[ref.index]) found = true;
      }
    }
    if (!found) return false;
  }
  return true;
}

Status PlanGrafter::Graft(const OptimizedGroup& group,
                          const std::vector<const UserQuery*>& uqs,
                          Atc* atc, int tag) {
  const PlanSpec& spec = group.spec;
  PlanGraph& graph = atc->graph();
  const int epoch = atc->epoch() + 1;
  atc->set_epoch(epoch);
  ExecContext ctx = atc->MakeContext();

  // cq id -> (cq, uq) lookup.
  std::unordered_map<int, std::pair<const ConjunctiveQuery*,
                                    const UserQuery*>>
      cq_lookup;
  for (const UserQuery* uq : uqs) {
    for (const ConjunctiveQuery& cq : uq->cqs) {
      cq_lookup[cq.id] = {&cq, uq};
    }
  }

  // User queries the group serves (attribution + journal targets), and
  // the deterministic owner a stream created by this graft is credited
  // to as its producer (smallest uq id of the group).
  std::set<int> group_uqs;
  for (int cq_id : group.cq_ids) {
    auto it = cq_lookup.find(cq_id);
    if (it != cq_lookup.end()) group_uqs.insert(it->second.second->id);
  }
  const int producer_owner = group_uqs.empty() ? -1 : *group_uqs.begin();

  // Per-uq component-decision recorder (single null test when the
  // journal is off).
  auto record_component = [&](const PlanSpec::Component& comp, bool reused,
                              bool warmed) {
    if (journal_ == nullptr) return;
    std::set<int> owners;
    for (int cq_id : comp.cq_ids) {
      auto it = cq_lookup.find(cq_id);
      if (it != cq_lookup.end()) owners.insert(it->second.second->id);
    }
    for (int id : owners) {
      journal_->Record(id, DecisionKind::kGraftComponent, journal_shard_,
                       reused ? 1 : 0, warmed ? 1 : 0, 0, 0.0, 0.0,
                       comp.expr.Signature().c_str());
    }
  };

  // ---- components, parents before children ----
  std::vector<MJoinOp*> comp_ops(spec.components.size(), nullptr);
  std::vector<bool> comp_reused(spec.components.size(), false);
  // Reused ops whose tables needed a top-up this graft: their derived
  // state was stale, so the replay watermark must not trust them (see
  // RederivePrefixes).
  std::set<const MJoinOp*> warmed_ops;
  for (const PlanSpec::Component& comp : spec.components) {
    // Try to reuse an existing operator (newest first).
    MJoinOp* resolved = nullptr;
    const std::vector<MJoinOp*>& cands =
        graph.FindMJoins(comp.expr.Signature());
    for (auto cand = cands.rbegin(); cand != cands.rend(); ++cand) {
      if (Matches(*cand, spec, comp, comp_ops, comp_reused, tag)) {
        resolved = *cand;
        break;
      }
    }
    if (resolved != nullptr) {
      resolved->set_active(true);
      comp_ops[comp.id] = resolved;
      comp_reused[comp.id] = true;
      ops_reused_ += 1;
      // Shrink detection *before* backfill: a stream-module table with
      // fewer entries than at the end of this op's last graft was
      // evicted in between, so combos derived from the lost entries
      // may be missing downstream — even when backfill finds nothing
      // fuller to top it up from. Taint the op so RederivePrefixes
      // runs the full replay path for every root above it.
      if (auto cit = counts_at_last_graft_.find(resolved);
          cit != counts_at_last_graft_.end()) {
        for (int p = 0; p < resolved->num_modules(); ++p) {
          if (!resolved->module_is_stream(p)) continue;
          JoinHashTable* t = resolved->module_table(p);
          if (t != nullptr && static_cast<size_t>(p) < cit->second.size() &&
              t->num_entries() < cit->second[static_cast<size_t>(p)]) {
            warmed_ops.insert(resolved);
            break;
          }
        }
      }
      // Touch its state registrations. A reused operator's tables may
      // be stale prefixes: emptied by eviction, or truncated where the
      // operator deactivated while the shared stream kept flowing to
      // other consumers. Top them up to the fullest copy (or fault a
      // demoted copy back in from the spill tier) before the operator
      // resumes consuming new arrivals.
      if (BackfillAndRegister(resolved, tag, ctx) > 0) {
        warmed_ops.insert(resolved);
      }
      record_component(comp, /*reused=*/true,
                       warmed_ops.count(resolved) > 0);
      continue;
    }
    // Build a fresh operator.
    MJoinOp* op = graph.AddMJoin(comp.expr);
    op_tag_[op] = tag;
    struct Wire {
      StreamingSource* src;
      int port;
    };
    std::vector<Wire> source_wires;
    struct UpWire {
      MJoinOp* up;
      int port;
    };
    std::vector<UpWire> up_wires;
    for (const PlanSpec::ModuleRef& ref : comp.modules) {
      switch (ref.kind) {
        case PlanSpec::ModuleRef::Kind::kStream: {
          const CandidateInput& input = spec.assignment.inputs[ref.index];
          StreamingSource* src =
              sources_->GetOrCreateStream(input.expr, tag);
          if (src->producer_uq() < 0) src->set_producer_uq(producer_owner);
          auto port = op->AddStreamModule(input.expr);
          QSYS_RETURN_IF_ERROR(port.status());
          source_wires.push_back({src, port.value()});
          break;
        }
        case PlanSpec::ModuleRef::Kind::kUpstream: {
          const Expr& up_expr = spec.components[ref.index].expr;
          auto port = op->AddStreamModule(up_expr);
          QSYS_RETURN_IF_ERROR(port.status());
          up_wires.push_back({comp_ops[ref.index], port.value()});
          break;
        }
        case PlanSpec::ModuleRef::Kind::kProbe: {
          const CandidateInput& input = spec.assignment.inputs[ref.index];
          auto port =
              op->AddProbeModule(input.expr.atoms()[0], sources_, tag);
          QSYS_RETURN_IF_ERROR(port.status());
          break;
        }
      }
    }
    QSYS_RETURN_IF_ERROR(op->Finalize());
    for (const Wire& w : source_wires) {
      graph.ConnectSource(w.src, {op, w.port});
    }
    for (const UpWire& w : up_wires) {
      graph.ConnectMJoin(w.up, {op, w.port});
      producers_[op].push_back(w.up);
    }
    // Backfill stream modules from retained state, then register.
    const int64_t fresh_warm = BackfillAndRegister(op, tag, ctx);
    comp_ops[comp.id] = op;
    record_component(comp, /*reused=*/false, fresh_warm > 0);
  }

  // ---- hierarchical prefix re-derivation (warm-state completeness) --
  //
  // Run with the pre-graft epoch: everything derived here comes from
  // pre-epoch tuples only, and tagging it pre-epoch keeps it visible to
  // the recovery queries (CQᵉ) built below as *buffered* state.
  {
    const int64_t rederived_before = tuples_rederived_;
    const int64_t skipped_before = tuples_rederived_skipped_;
    ExecContext replay_ctx = ctx;
    replay_ctx.epoch = epoch - 1;
    RederivePrefixes(spec, comp_ops, comp_reused, warmed_ops, replay_ctx);
    if (journal_ != nullptr) {
      const double per_tuple_us = ctx.delays->params().join_output_us;
      const int64_t replayed = tuples_rederived_ - rederived_before;
      const int64_t skipped = tuples_rederived_skipped_ - skipped_before;
      for (int id : group_uqs) {
        if (replayed > 0) {
          journal_->Record(id, DecisionKind::kReplay, journal_shard_,
                           replayed,
                           static_cast<int64_t>(
                               static_cast<double>(replayed) * per_tuple_us));
        }
        if (skipped > 0) {
          journal_->Record(id, DecisionKind::kWatermarkSkip, journal_shard_,
                           skipped,
                           static_cast<int64_t>(
                               static_cast<double>(skipped) * per_tuple_us));
        }
      }
    }
  }
  // Record every grafted op's post-replay table sizes — the baseline
  // the next graft's shrink detection compares against.
  for (MJoinOp* op : comp_ops) {
    if (op == nullptr) continue;
    std::vector<int64_t>& counts = counts_at_last_graft_[op];
    counts.assign(static_cast<size_t>(op->num_modules()), 0);
    for (int p = 0; p < op->num_modules(); ++p) {
      JoinHashTable* t =
          op->module_is_stream(p) ? op->module_table(p) : nullptr;
      counts[static_cast<size_t>(p)] = t != nullptr ? t->num_entries() : 0;
    }
  }

  // ---- rank-merge registration + recovery ----
  for (int cq_id : group.cq_ids) {
    auto it = cq_lookup.find(cq_id);
    if (it == cq_lookup.end()) {
      return Status::InvalidArgument("CQ " + std::to_string(cq_id) +
                                     " has no owning user query");
    }
    const ConjunctiveQuery& cq = *it->second.first;
    const UserQuery& uq = *it->second.second;
    RankMergeOp* merge = GetOrCreateMerge(atc, uq);

    auto term = spec.terminal_of_cq.find(cq_id);
    if (term == spec.terminal_of_cq.end()) {
      return Status::Internal("CQ lacks a terminal component");
    }
    MJoinOp* terminal = comp_ops[term->second];

    CqRegistration reg;
    reg.cq_id = cq.id;
    reg.score_fn = cq.score_fn;
    reg.max_sum = cq.max_sum;
    std::vector<int> stream_inputs =
        spec.assignment.StreamInputsOf(cq.id);
    bool all_read = !stream_inputs.empty();
    for (int idx : stream_inputs) {
      StreamingSource* src = sources_->GetOrCreateStream(
          spec.assignment.inputs[idx].expr, tag);
      if (src->producer_uq() < 0) src->set_producer_uq(producer_owner);
      reg.streams.push_back(src);
      // Per-port grounding report: the registration carries the true
      // consumed depth and exhaustion state of its inputs at graft
      // time, so the merge can tell warm registrations (whose bounds
      // start below the statistics bound) from cold ones.
      const int64_t depth = src->tuples_read();
      reg.grafted_depth += depth;
      if (src->exhausted()) reg.grafted_exhausted += 1;
      if (depth == 0) all_read = false;
      // Sharing-benefit attribution: `depth` tuples of this stream were
      // already paid for by an earlier query — this registration
      // inherits them without streaming. Credit the producing user
      // query (never the consumer itself), mirror the total into
      // ExecStats so the per-UQ sums reconcile exactly against the
      // service counters, and estimate the streaming cost saved.
      const int producer = src->producer_uq();
      if (depth > 0 && producer >= 0 && producer != uq.id) {
        const VirtualTime saved = static_cast<VirtualTime>(
            static_cast<double>(depth) *
            ctx.delays->params().stream_tuple_mean_us);
        ctx.stats->tuples_shared_served += depth;
        merge->AddSharedCredit(depth, saved);
        if (journal_ != nullptr) {
          journal_->Credit(uq.id, producer, journal_shard_, depth, saved);
          journal_->Record(uq.id, DecisionKind::kSharedInherit,
                           journal_shard_, producer, depth, saved, 0.0, 0.0,
                           src->expr().Signature().c_str());
        }
      }
    }
    int port = merge->RegisterCq(reg);
    graph.ConnectMJoin(terminal, {merge, port});
    for (const PlanSpec::Component& comp : spec.components) {
      if (comp.cq_ids.count(cq_id) > 0) {
        graph.RegisterCqDependency(cq_id, comp_ops[comp.id]);
      }
    }

    // Algorithm 2: every streaming input already has buffered tuples,
    // so the all-buffered results must be recovered.
    if (all_read) {
      std::vector<FrozenInput> frozen;
      bool recoverable = true;
      for (int idx : stream_inputs) {
        FrozenInput f;
        f.expr = spec.assignment.inputs[idx].expr;
        f.table = state_->FullestModuleTable(tag, f.expr.Signature());
        if (f.table == nullptr || f.table->CountBefore(epoch) == 0) {
          recoverable = false;
          break;
        }
        frozen.push_back(std::move(f));
      }
      if (recoverable) {
        // Drive from the input with the most buffered tuples.
        std::stable_sort(frozen.begin(), frozen.end(),
                         [epoch](const FrozenInput& a,
                                 const FrozenInput& b) {
                           return a.table->CountBefore(epoch) >
                                  b.table->CountBefore(epoch);
                         });
        std::vector<Atom> probe_atoms;
        for (const CandidateInput& input : spec.assignment.inputs) {
          if (!input.streaming && input.cq_ids.count(cq_id) > 0) {
            probe_atoms.push_back(input.expr.atoms()[0]);
          }
        }
        QSYS_RETURN_IF_ERROR(BuildRecoveryQuery(cq, frozen, probe_atoms,
                                                epoch, merge, atc,
                                                sources_, tag, *catalog_));
        recoveries_built_ += 1;
        if (journal_ != nullptr) {
          journal_->Record(uq.id, DecisionKind::kRecovery, journal_shard_,
                           cq.id, static_cast<int64_t>(frozen.size()));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace qsys
