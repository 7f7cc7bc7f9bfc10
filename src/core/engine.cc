#include "src/core/engine.h"

#include <algorithm>

namespace qsys {

constexpr VirtualTime Engine::kNeverUs;

Engine::Engine(QConfig config, std::shared_ptr<Dataset> dataset)
    : config_(config),
      data_(std::move(dataset)),
      batcher_(config.batch_size, config.batch_window_us) {
  delays_ = std::make_unique<DelayModel>(config_.delays, config_.seed);
  sources_ = std::make_unique<SourceManager>(&data_->catalog);
  state_manager_ = std::make_unique<StateManager>(
      sources_.get(), config_.memory_budget_bytes, config_.eviction);
  if (!config_.spill_dir.empty()) {
    auto spill =
        SpillManager::Open(config_.spill_dir, config_.spill_pool_frames);
    if (spill.ok()) {
      spill_manager_ = std::move(spill).value();
      state_manager_->AttachSpill(spill_manager_.get(),
                                  &delays_->params());
    } else {
      // A broken spill directory degrades to plain eviction rather
      // than failing the engine; spill_status() records why.
      spill_status_ = spill.status();
    }
  }
  grafter_ = std::make_unique<PlanGrafter>(&data_->catalog, sources_.get(),
                                           state_manager_.get());
}

Engine::~Engine() = default;

void Engine::SetObservability(Tracer* tracer, MetricsRegistry* metrics,
                              int shard) {
  tracer_ = tracer;
  obs_metrics_ = metrics;
  obs_shard_ = shard;
  state_manager_->set_tracer(tracer, shard);
  if (spill_manager_ != nullptr) spill_manager_->set_tracer(tracer, shard);
}

void Engine::set_journal(DecisionJournal* journal) {
  journal_ = journal;
  state_manager_->set_journal(journal, obs_shard_);
  grafter_->set_journal(journal, obs_shard_);
}

SchemaGraph& Engine::InitSchemaGraph() {
  if (!data_->schema_graph) {
    data_->schema_graph = std::make_unique<SchemaGraph>(&data_->catalog);
  }
  return *data_->schema_graph;
}

Status Engine::FinalizeCatalog() {
  if (finalized_) return Status::OK();
  if (!data_->schema_graph) {
    return Status::FailedPrecondition("InitSchemaGraph() not called");
  }
  if (data_->inverted_index == nullptr) {
    data_->catalog.FinalizeAll();
    data_->inverted_index = std::make_unique<InvertedIndex>(
        InvertedIndex::Build(data_->catalog));
  }
  matcher_ = std::make_unique<KeywordMatcher>(data_->inverted_index.get(),
                                              &data_->catalog);
  candidate_gen_ = std::make_unique<CandidateGenerator>(
      data_->schema_graph.get(), matcher_.get());
  optimizer_ = std::make_unique<Optimizer>(
      &data_->catalog, data_->inverted_index.get(), sources_.get(),
      &state_manager_->observed_stats(), config_.delays);
  finalized_ = true;
  return Status::OK();
}

Result<UserQuery> Engine::GenerateCandidates(
    const std::string& keywords, const CandidateGenOptions& options) const {
  if (!finalized_) {
    return Status::FailedPrecondition("FinalizeCatalog() not called");
  }
  return candidate_gen_->Generate(keywords, config_.k, options);
}

Status Engine::Ingest(int uq_id, const std::string& keywords, int user_id,
                      VirtualTime at_us,
                      const CandidateGenOptions& options) {
  auto uq = GenerateCandidates(keywords, options);
  if (!uq.ok()) {
    // A query that matches nothing (or cannot be connected) fails for
    // its user; the system keeps serving everyone else.
    if (retains_history()) {
      generation_failures_.emplace_back(uq_id, uq.status());
    }
    return uq.status();
  }
  UserQuery q = std::move(uq).value();
  q.id = uq_id;
  q.user_id = user_id;
  q.submit_time_us = at_us;
  for (ConjunctiveQuery& cq : q.cqs) {
    cq.id = next_cq_id_++;
    cq.uq_id = q.id;
  }
  batcher_.Add(std::move(q));
  return Status::OK();
}

Atc* Engine::GetOrCreateAtc(int index_hint, VirtualTime start_time) {
  if (index_hint >= 0 && index_hint < static_cast<int>(atcs_.size())) {
    return atcs_[index_hint].get();
  }
  // Every ATC samples its wide-area delays from a private,
  // deterministically derived stream: ATC 0 keeps the engine seed
  // bit-for-bit (single-ATC runs are unchanged), later ATCs mix in
  // their id. Concurrent ATCs therefore never interleave draws from a
  // shared RNG — per-ATC execution stays a pure function of the
  // grafted queries, which is what makes parallel drains
  // byte-equivalent to serial ones.
  const int id = static_cast<int>(atcs_.size());
  uint64_t seed = config_.seed;
  if (id > 0) seed ^= 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(id);
  auto atc = std::make_unique<Atc>(
      id, &data_->catalog,
      std::make_unique<DelayModel>(config_.delays, seed),
      config_.adaptive_probing);
  atc->clock().AdvanceTo(start_time);
  atcs_.push_back(std::move(atc));
  harvested_.emplace_back();
  return atcs_.back().get();
}

Status Engine::OptimizeAndGraft(const std::vector<const UserQuery*>& batch,
                                Atc* atc, SharingMode mode, int base_tag,
                                VirtualTime flush_at) {
  atc->clock().AdvanceTo(flush_at);
  if (!config_.temporal_reuse) {
    // Isolate this batch's state from every other batch.
    base_tag = 3'000'000 + 100 * (flush_counter_++) + base_tag;
  }

  OptimizerOptions opts;
  opts.sharing = mode;
  opts.pruning = config_.pruning;
  opts.max_subexpr_atoms = config_.max_subexpr_atoms;
  opts.k = config_.k;
  opts.explain = journal_ != nullptr;

  OptimizeOutcome outcome =
      optimizer_->OptimizeBatch(batch, opts, base_tag);

  if (journal_ != nullptr) {
    const char* mode_name = mode == SharingMode::kNone ? "none"
                            : mode == SharingMode::kWithinUq ? "within_uq"
                                                             : "full";
    for (const UserQuery* uq : batch) {
      journal_->Record(uq->id, DecisionKind::kAtcAssign, obs_shard_,
                       atc->id(), 0, 0, 0.0, 0.0, mode_name);
    }
    // One plan-choice record (with its costed alternatives) per user
    // query each optimized group serves.
    std::unordered_map<int, int> uq_of_cq;
    for (const UserQuery* uq : batch) {
      for (const ConjunctiveQuery& cq : uq->cqs) uq_of_cq[cq.id] = uq->id;
    }
    for (const OptimizedGroup& group : outcome.groups) {
      if (!group.decision.recorded) continue;
      std::set<int> owners;
      for (int cq_id : group.cq_ids) {
        auto it = uq_of_cq.find(cq_id);
        if (it != uq_of_cq.end()) owners.insert(it->second);
      }
      const auto& d = group.decision;
      for (int id : owners) {
        journal_->Record(id, DecisionKind::kOptChoice, obs_shard_,
                         d.num_candidates, d.nodes_explored,
                         static_cast<int64_t>(d.alternatives.size()),
                         d.win_cost, d.margin);
        for (size_t i = 0; i < d.alternatives.size(); ++i) {
          const PlanAlternative& alt = d.alternatives[i];
          journal_->Record(id, DecisionKind::kOptAlternative, obs_shard_,
                           static_cast<int64_t>(i), alt.pushdowns, 0,
                           alt.cost, 0.0, alt.desc.c_str());
        }
      }
    }
  }

  const int64_t opt_wall_us =
      static_cast<int64_t>(outcome.wall_seconds * 1e6);
  if (obs_metrics_ != nullptr) {
    obs_metrics_->Record(ServiceMetric::kOptimizeTime, obs_shard_,
                         opt_wall_us);
  }
  if (tracer_ != nullptr) {
    // The optimizer just ran on this thread: its span ends now and
    // started opt_wall_us ago.
    tracer_->Span(TraceEventType::kOptimize, tracer_->NowUs() - opt_wall_us,
                  opt_wall_us, obs_shard_, -1, atc->id(),
                  static_cast<int64_t>(batch.size()));
  }

  if (retains_history()) {
    OptimizationRecord rec;
    rec.candidates = outcome.candidates_considered;
    rec.enumerated = outcome.enumerated;
    rec.nodes_explored = outcome.nodes_explored;
    rec.wall_seconds = outcome.wall_seconds;
    rec.batch_queries = static_cast<int>(batch.size());
    opt_records_.push_back(rec);
  }

  // Charge measured optimization time to the virtual clock.
  VirtualTime opt_us = static_cast<VirtualTime>(
      outcome.wall_seconds * 1e6 * config_.opt_time_multiplier);
  atc->clock().Advance(opt_us);
  atc->stats().optimize_us += opt_us;

  const int64_t graft_t0 = tracer_ != nullptr ? tracer_->NowUs() : 0;
  const int64_t rederived_before =
      tracer_ != nullptr ? grafter_->tuples_rederived() : 0;
  const int64_t skipped_before =
      tracer_ != nullptr ? grafter_->tuples_rederived_skipped() : 0;
  for (const OptimizedGroup& group : outcome.groups) {
    int tag = base_tag;
    if (mode == SharingMode::kNone && !group.cq_ids.empty()) {
      tag = 1000000 + group.cq_ids.front();  // per-CQ scope
    } else if (mode == SharingMode::kWithinUq && !group.cq_ids.empty()) {
      // Scope by the owning user query.
      for (const UserQuery* uq : batch) {
        for (const ConjunctiveQuery& cq : uq->cqs) {
          if (cq.id == group.cq_ids.front()) tag = 2000000 + uq->id;
        }
      }
    }
    QSYS_RETURN_IF_ERROR(grafter_->Graft(group, batch, atc, tag));
  }
  if (tracer_ != nullptr) {
    tracer_->Span(TraceEventType::kGraft, graft_t0,
                  tracer_->NowUs() - graft_t0, obs_shard_, -1, atc->id(),
                  static_cast<int64_t>(outcome.groups.size()));
    const int64_t rederived =
        grafter_->tuples_rederived() - rederived_before;
    const int64_t skipped =
        grafter_->tuples_rederived_skipped() - skipped_before;
    if (rederived > 0) {
      tracer_->Instant(TraceEventType::kRederive, obs_shard_, -1,
                       atc->id(), rederived);
    }
    if (skipped > 0) {
      tracer_->Instant(TraceEventType::kWatermarkSkip, obs_shard_, -1,
                       atc->id(), skipped);
    }
  }
  return Status::OK();
}

Status Engine::FlushBatch(VirtualTime flush_at) {
  std::vector<UserQuery> flushed = batcher_.Flush();
  std::vector<const UserQuery*> batch;
  for (UserQuery& q : flushed) {
    auto owned = std::make_unique<UserQuery>(std::move(q));
    batch.push_back(owned.get());
    uqs_[owned->id] = std::move(owned);
  }
  if (batch.empty()) return Status::OK();

  if (tracer_ == nullptr) return RouteBatch(batch, flush_at);

  // Each member's batch-window wait: submit to flush, on the service's
  // virtual (wall-since-start) timeline — the same timeline NowUs()
  // reports, so these spans nest under the surrounding epoch.
  for (const UserQuery* uq : batch) {
    tracer_->Span(TraceEventType::kBatchWait, uq->submit_time_us,
                  std::max<int64_t>(0, flush_at - uq->submit_time_us),
                  obs_shard_, uq->id);
  }
  const int64_t flush_t0 = tracer_->NowUs();
  Status routed = RouteBatch(batch, flush_at);
  tracer_->Span(TraceEventType::kFlush, flush_t0,
                tracer_->NowUs() - flush_t0, obs_shard_, -1, -1,
                static_cast<int64_t>(batch.size()));
  return routed;
}

Status Engine::RouteBatch(const std::vector<const UserQuery*>& batch,
                          VirtualTime flush_at) {
  switch (config_.sharing) {
    case SharingConfig::kAtcCq:
      return OptimizeAndGraft(batch, GetOrCreateAtc(0, flush_at),
                              SharingMode::kNone, 0, flush_at);
    case SharingConfig::kAtcUq:
      return OptimizeAndGraft(batch, GetOrCreateAtc(0, flush_at),
                              SharingMode::kWithinUq, 0, flush_at);
    case SharingConfig::kAtcFull:
      return OptimizeAndGraft(batch, GetOrCreateAtc(0, flush_at),
                              SharingMode::kFull, 0, flush_at);
    case SharingConfig::kAtcCl: {
      // Cluster the batch (§6.1), then route each cluster to a matching
      // existing plan graph (Jaccard over source tables) or a new one.
      std::vector<std::vector<int>> groups =
          ClusterUserQueries(batch, config_.clustering);
      for (const std::vector<int>& group : groups) {
        std::set<TableId> tables;
        std::vector<const UserQuery*> members;
        for (int idx : group) {
          members.push_back(batch[idx]);
          for (TableId t : SourceTablesOf(*batch[idx])) tables.insert(t);
        }
        int best_cluster = -1;
        double best_sim = -1.0;
        for (size_t c = 0; c < clusters_.size(); ++c) {
          std::set<int> a(tables.begin(), tables.end());
          std::set<int> b(clusters_[c].tables.begin(),
                          clusters_[c].tables.end());
          double sim = JaccardSimilarity(a, b);
          if (sim > best_sim) {
            best_sim = sim;
            best_cluster = static_cast<int>(c);
          }
        }
        // Join an existing graph when similar enough — or when the
        // per-core plan-graph budget is exhausted (paper testbed: one
        // ATC per core).
        bool reuse_cluster =
            best_cluster >= 0 &&
            (best_sim > config_.clustering.tc ||
             static_cast<int>(clusters_.size()) >=
                 config_.clustering.max_plan_graphs);
        Atc* atc;
        if (reuse_cluster) {
          atc = atcs_[clusters_[best_cluster].atc_index].get();
          clusters_[best_cluster].tables.insert(tables.begin(),
                                                tables.end());
        } else {
          atc = GetOrCreateAtc(-1, flush_at);
          clusters_.push_back(
              {static_cast<int>(atcs_.size()) - 1, tables});
        }
        if (journal_ != nullptr) {
          for (const UserQuery* uq : members) {
            journal_->Record(uq->id, DecisionKind::kClusterRoute,
                             obs_shard_, reuse_cluster ? 1 : 0, atc->id(),
                             0, best_sim, config_.clustering.tc);
          }
        }
        QSYS_RETURN_IF_ERROR(OptimizeAndGraft(members, atc,
                                              SharingMode::kFull,
                                              atc->id() + 1, flush_at));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown sharing config");
}

VirtualTime Engine::NextFlushDeadline(VirtualTime arrival_horizon) const {
  VirtualTime t_flush = batcher_.NextDeadline();
  if (arrival_horizon == kNeverUs && batcher_.HasPending()) {
    // No more arrivals will ever come: flush whatever is waiting, at the
    // earliest legal instant (the last member's submit time).
    t_flush = std::min<VirtualTime>(t_flush, batcher_.LatestSubmit());
  }
  // Arrivals win ties, so a batch fills before it flushes. In serving
  // a batch whose deadline has not passed yet keeps waiting for more
  // members, even though ATC clocks (which run ahead of wall time) may
  // already have passed the deadline.
  return t_flush < arrival_horizon ? t_flush : kNeverUs;
}

Status Engine::DrainAtcsTo(VirtualTime bound) {
  // An ATC executes scheduling rounds exactly while its own clock is
  // below `bound`. ATCs share no mutable execution state, so the order
  // in which the pool interleaves their rounds is unobservable: the
  // outcome equals running every event in global virtual-time order.
  std::vector<Atc*> ready;
  for (const auto& atc : atcs_) {
    if (atc->HasWork() && atc->clock().now() < bound) {
      ready.push_back(atc.get());
    }
  }
  if (ready.empty()) return Status::OK();

  std::atomic<int64_t> rounds{rounds_};
  std::atomic<bool> over_budget{false};
  const int64_t max_rounds = config_.max_rounds;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(ready.size());
  for (Atc* atc : ready) {
    tasks.push_back([this, atc, bound, max_rounds, &rounds,
                     &over_budget] {
      const int64_t drain_t0 = tracer_ != nullptr ? tracer_->NowUs() : 0;
      int64_t local_rounds = 0;
      {
        std::lock_guard<std::mutex> atc_lock(atc->mu());
        while (atc->HasWork() && atc->clock().now() < bound) {
          atc->Step();
          ++local_rounds;
          HarvestCompletions(atc);
          int64_t r = rounds.fetch_add(1, std::memory_order_relaxed) + 1;
          if (max_rounds > 0 && r > max_rounds) {
            over_budget.store(true, std::memory_order_relaxed);
          }
          if (over_budget.load(std::memory_order_relaxed)) break;
        }
      }
      if (tracer_ != nullptr && local_rounds > 0) {
        // One span per ATC per drain segment: which plan graph this
        // worker executed, for how long, and how many scheduling
        // rounds it got through (the epoch-tail question).
        tracer_->Span(TraceEventType::kAtcExec, drain_t0,
                      tracer_->NowUs() - drain_t0, obs_shard_, -1,
                      atc->id(), local_rounds);
      }
    });
  }
  if (scheduler_ == nullptr) {
    scheduler_ = std::make_unique<AtcScheduler>(config_.exec_threads);
  }
  scheduler_->RunAll(tasks);
  rounds_ = rounds.load(std::memory_order_relaxed);
  if (over_budget.load(std::memory_order_relaxed)) {
    return Status::ResourceExhausted("max scheduling rounds exceeded");
  }
  return Status::OK();
}

void Engine::HarvestCompletions(Atc* atc) {
  for (UserQueryMetrics& m : atc->TakeCompletedMetrics()) {
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceEventType::kComplete, obs_shard_, m.uq_id,
                       atc->id(), m.results);
    }
    CompletedQuery done;
    done.metrics = m;
    if (!retains_history()) {
      // Handed off: snapshot the answers, then retire the query right
      // after the round that completed it — its rank-merge, recovery
      // m-joins and replay streams are freed
      // (PlanGraph::RetireRankMerge). What survives is the grafter's
      // reusable m-joins and their tables, bounded by the number of
      // distinct plan shapes and by the eviction budget — the
      // qsys_plan_graph_operators gauge shows it, and
      // QueryServiceTest.PlanGraphStaysBoundedUnderRepeatTraffic pins
      // it.
      if (const std::vector<ResultTuple>* res = atc->ResultsFor(m.uq_id)) {
        done.results = *res;
      }
      atc->RetireCompleted(m.uq_id);
    }
    harvested_[atc->id()].push_back(std::move(done));
  }
}

void Engine::DeliverCompletions() {
  for (std::vector<CompletedQuery>& list : harvested_) {
    for (CompletedQuery& done : list) {
      if (retains_history()) {
        metrics_.push_back(done.metrics);
      } else {
        // Plan-graph pointers to the UserQuery do not outlive Graft().
        uqs_.erase(done.metrics.uq_id);
        completed_sink_(std::move(done));
      }
    }
    list.clear();
  }
}

Result<Engine::EpochOutcome> Engine::Drain(const DrainOptions& options) {
  if (!finalized_) {
    return Status::FailedPrecondition("FinalizeCatalog() not called");
  }
  EpochOutcome out;
  for (;;) {
    progress_ticks_.fetch_add(1, std::memory_order_relaxed);
    const VirtualTime t_flush = NextFlushDeadline(options.arrival_horizon);
    bool any_work = false;
    for (const auto& atc : atcs_) {
      if (atc->HasWork()) {
        any_work = true;
        break;
      }
    }
    if (!any_work && t_flush == kNeverUs) break;  // idle

    if (any_work) {
      const VirtualTime bound =
          options.pace_to_horizon
              ? std::min(t_flush, options.arrival_horizon)
              : t_flush;
      Status drained = DrainAtcsTo(bound);
      out.worked = true;
      DeliverCompletions();
      QSYS_RETURN_IF_ERROR(drained);
    }
    if (t_flush == kNeverUs) break;  // all due ATC work drained, no flush

    // ---- serialized section: every cross-ATC structure ----
    // The drain barrier above has quiesced the workers; the batcher,
    // optimizer, grafter, state registry and spill tier are touched by
    // this (coordinating) thread only.
    const VirtualTime flush_at = std::max<VirtualTime>(t_flush, 0);
    QSYS_RETURN_IF_ERROR(FlushBatch(flush_at));
    // Re-check completion immediately after the graft: late
    // registrations (recovery replays, live ports whose shared streams
    // an earlier epoch already exhausted) can settle a merge without a
    // single stream read, and their prune/complete decisions must run
    // against the just-grafted state — not whenever the scheduler next
    // happens to visit the merge.
    for (const auto& atc : atcs_) {
      std::lock_guard<std::mutex> atc_lock(atc->mu());
      atc->MaintainAll();
      HarvestCompletions(atc.get());
    }
    state_manager_->SnapshotSourceStats();
    state_manager_->EnforceBudget(flush_at);
    DeliverCompletions();
    out.flushes += 1;
    out.worked = true;
  }
  return out;
}

void Engine::FinishRun() {
  state_manager_->SnapshotSourceStats();
  // Final safety net: collect merges that completed outside a drain
  // (e.g. empty graphs), then order by user-query id.
  for (const auto& atc : atcs_) {
    std::lock_guard<std::mutex> atc_lock(atc->mu());
    HarvestCompletions(atc.get());
  }
  DeliverCompletions();
  std::stable_sort(metrics_.begin(), metrics_.end(),
                   [](const UserQueryMetrics& a, const UserQueryMetrics& b) {
                     return a.uq_id < b.uq_id;
                   });
}

ExecStats Engine::aggregate_stats() const {
  ExecStats total;
  for (const auto& atc : atcs_) total.Merge(atc->stats());
  return total;
}

int64_t Engine::plan_graph_operators() const {
  int64_t total = 0;
  for (const auto& atc : atcs_) {
    total += atc->graph().num_operators() + atc->graph().num_replay_streams();
  }
  return total;
}

const std::vector<ResultTuple>* Engine::ResultsFor(int uq_id) const {
  for (const auto& atc : atcs_) {
    for (const RankMergeOp* rm : atc->graph().rank_merges()) {
      if (rm->uq_id() == uq_id) return &rm->results();
    }
  }
  return nullptr;
}

const UserQuery* Engine::GetUserQuery(int uq_id) const {
  auto it = uqs_.find(uq_id);
  return it == uqs_.end() ? nullptr : it->second.get();
}

}  // namespace qsys
