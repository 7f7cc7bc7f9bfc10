#include "src/serve/query_service.h"

#include <algorithm>
#include <utility>

#include "src/obs/export.h"
#include "src/obs/trace_export.h"

namespace qsys {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)),
      router_(options_.config.num_shards, options_.config.shard_affinity),
      sessions_(options_.max_in_flight_per_session),
      route_counters_(
          static_cast<size_t>(std::max(1, options_.config.num_shards))) {
  int n = std::max(1, options_.config.num_shards);
  metrics_ = std::make_unique<MetricsRegistry>(n);
  if (options_.config.trace_buffer_events > 0) {
    tracer_ = std::make_unique<Tracer>(options_.config.trace_buffer_events);
  }
  if (options_.config.explain_journal_queries > 0) {
    journal_ = std::make_unique<DecisionJournal>(
        options_.config.explain_journal_queries,
        options_.config.explain_journal_events_per_query);
  }
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) {
    QConfig config = options_.config;
    config.num_shards = n;  // normalized
    shards_.push_back(std::make_unique<EngineShard>(
        i, config, options_.queue_capacity, &counters_));
  }
  for (auto& shard : shards_) {
    shard->set_completion_fn(
        [this](const EngineShard::Completion& c) { OnShardCompletion(c); });
    shard->set_finished_fn([this](int id, const Status& terminal) {
      OnShardFinished(id, terminal);
    });
    shard->set_stats_listener([this] { AggregateSpillGauges(); });
    shard->set_observability(tracer_.get(), metrics_.get(), journal_.get());
  }
}

QueryService::~QueryService() {
  if (started_ && !stopped_) {
    // Fast teardown: cancel whatever has not executed yet.
    Shutdown(ShutdownMode::kCancelPending);
  }
  // A detached (wedged) executor may still reference its shard:
  // intentionally leak those EngineShards rather than free memory a
  // zombie thread could touch. Empty except after a timed-out bounded
  // drain with a non-releasable wedge.
  for (int i : abandoned_shards_) {
    shards_[static_cast<size_t>(i)].release();
  }
}

VirtualTime QueryService::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start_wall_)
      .count();
}

Status QueryService::BuildEachEngine(
    const std::function<Status(Engine&)>& builder) {
  return builder(shards_[0]->engine());
}

void QueryService::InstallShardFaultInjector(ShardFaultInjector* injector) {
  fault_injector_ = injector;
  for (auto& shard : shards_) shard->set_fault_injector(injector);
}

ExecStats QueryService::stats_snapshot() const {
  ExecStats total;
  for (const auto& shard : shards_) total.Merge(shard->stats_snapshot());
  return total;
}

void QueryService::AggregateSpillGauges() {
  // Serialized: concurrent shard executors each publish a sum, and
  // StoreSpill writes six independent atomics — interleaving two sums
  // would leave a torn (internally inconsistent) snapshot.
  std::lock_guard<std::mutex> lock(gauges_mu_);
  SpillStats sum;
  for (const auto& shard : shards_) {
    SpillStats s = shard->spill_snapshot();
    sum.pages_written += s.pages_written;
    sum.pages_read += s.pages_read;
    sum.page_faults += s.page_faults;
    sum.items_spilled += s.items_spilled;
    sum.items_restored += s.items_restored;
    sum.bytes_on_disk += s.bytes_on_disk;
    sum.spill_faults += s.spill_faults;
    sum.read_retry_waits += s.read_retry_waits;
  }
  counters_.StoreSpill(sum);
}

Status QueryService::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  // Shard 0 built the dataset; every other shard serves the same one.
  QSYS_RETURN_IF_ERROR(shards_[0]->engine().FinalizeCatalog());
  for (int i = 1; i < num_shards(); ++i) {
    if (shards_[i]->engine().catalog().num_tables() > 0) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(i) +
          " was populated on its own; build through shard 0 "
          "(see QueryService::BuildEachEngine)");
    }
  }
  const std::shared_ptr<Dataset> data = shards_[0]->engine().dataset();
  for (int i = 1; i < num_shards(); ++i) {
    QSYS_RETURN_IF_ERROR(shards_[i]->ServeDataset(data));
  }
  // Table-affinity routing probes the shared inverted index, which is
  // immutable once finalized and therefore safe to read from any
  // submitting thread.
  router_.set_footprint_fn([data](const std::string& term) {
    std::vector<TableId> tables;
    for (const KeywordMatch& m : data->inverted_index->Lookup(term)) {
      tables.push_back(m.table);
    }
    return tables;
  });
  start_wall_ = Clock::now();
  // Trace timestamps and UserQuery submit times share one zero point.
  if (tracer_ != nullptr) tracer_->set_time_zero(start_wall_);
  SupervisorPolicy policy;
  policy.stall_timeout_us = options_.stall_timeout_ms * 1000;
  policy.restart_crashed = options_.restart_crashed_shards;
  policy.max_restarts_per_shard = options_.max_restarts_per_shard;
  supervisor_ = std::make_unique<ShardSupervisor>(num_shards(), policy);
  started_ = true;
  for (auto& shard : shards_) {
    QSYS_RETURN_IF_ERROR(shard->Start(start_wall_, options_.manual_pump));
  }
  if (!options_.manual_pump && options_.supervise_interval_ms > 0) {
    supervise_stop_ = false;
    supervisor_thread_ = std::thread([this] { SupervisorLoop(); });
  }
  return Status::OK();
}

Result<SessionId> QueryService::OpenSession(
    const std::string& client_name, const CandidateGenOptions& defaults) {
  if (!started_) {
    return Status::FailedPrecondition("service not started");
  }
  return sessions_.Open(client_name, defaults);
}

Status QueryService::CloseSession(SessionId session) {
  return sessions_.Close(session);
}

Result<QueryTicket> QueryService::Submit(SessionId session,
                                         const std::string& keywords) {
  return Submit(session, keywords, sessions_.DefaultsFor(session));
}

Result<QueryTicket> QueryService::Submit(SessionId session,
                                         const std::string& keywords,
                                         const CandidateGenOptions& options) {
  return Submit(session, keywords, options, /*deadline_ms=*/-1);
}

std::shared_future<QueryOutcome> QueryService::RegisterInFlight(
    int uq_id, SessionId session, const std::string& keywords, int shard,
    const CandidateGenOptions& options, VirtualTime deadline_us) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  InFlight entry;
  entry.session = session;
  entry.keywords = keywords;
  entry.shard = shard;
  entry.submit_us = NowUs();
  entry.gen_options = options;
  entry.deadline_us = deadline_us;
  std::shared_future<QueryOutcome> future =
      entry.promise.get_future().share();
  inflight_.emplace(uq_id, std::move(entry));
  return future;
}

bool QueryService::ShardHealthy(int shard) const {
  if (shards_[shard]->down()) return false;
  if (!shards_[shard]->terminal_status().ok()) return false;
  if (supervisor_ != nullptr && supervisor_->out_of_rotation(shard)) {
    return false;
  }
  return true;
}

Result<QueryTicket> QueryService::Submit(SessionId session,
                                         const std::string& keywords,
                                         const CandidateGenOptions& options,
                                         int64_t deadline_ms) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("service not serving");
  }
  Status admitted = sessions_.Admit(session);
  if (!admitted.ok()) {
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    return admitted;
  }
  const int64_t ms =
      deadline_ms < 0 ? options_.default_deadline_ms : deadline_ms;
  const VirtualTime deadline_us = ms > 0 ? NowUs() + ms * 1000 : -1;

  if (options_.config.shard_affinity == ShardAffinity::kScatterCqs &&
      num_shards() > 1) {
    const int parent_id = next_uq_id_.fetch_add(1, std::memory_order_relaxed);
    std::shared_future<QueryOutcome> future = RegisterInFlight(
        parent_id, session, keywords, /*shard=*/-1, options, deadline_us);
    counters_.submitted.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceEventType::kAdmit, /*shard=*/-1, parent_id);
    }
    const int refused = Scatter(parent_id, session, keywords, options,
                                options_.block_when_full);
    if (refused < 0) {
      route_counters_[router_.Route(keywords)].scatter.fetch_add(
          1, std::memory_order_relaxed);
      return QueryTicket(parent_id, std::move(future));
    }
    // Backpressure (the scatter targets only healthy shards): undo the
    // scatter (subs already pushed will complete into a void; their
    // work is wasted but harmless) and reject the submit.
    AbortScatter(parent_id);
    bool still_inflight;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      still_inflight = inflight_.erase(parent_id) > 0;
    }
    if (!still_inflight) {
      // Shutdown raced and resolved the parent ticket already.
      return QueryTicket(parent_id, std::move(future));
    }
    sessions_.OnRejected(session);
    counters_.submitted.fetch_sub(1, std::memory_order_relaxed);
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceEventType::kReject, /*shard=*/-1, parent_id);
    }
    return Status::ResourceExhausted(
        "submit queue full or service shutting down");
  }

  int shard = router_.Route(keywords);
  // Every shard serves the same dataset, so route new traffic around a
  // failed shard instead of bouncing off its closed queue.
  if (!ShardHealthy(shard)) {
    for (int off = 1; off < num_shards(); ++off) {
      const int s = (shard + off) % num_shards();
      if (ShardHealthy(s)) {
        shard = s;
        break;
      }
    }
  }

  ShardRequest request;
  request.uq_id = next_uq_id_.fetch_add(1, std::memory_order_relaxed);
  request.user_id = session;
  request.keywords = keywords;
  request.options = options;
  request.submit_us = NowUs();

  int uq_id = request.uq_id;
  // The admit instant is the pre-push time: once pushed, the executor
  // may ingest, run and resolve the query before this thread goes on.
  const int64_t submit_us = request.submit_us;
  auto record_admit = [&] {
    if (tracer_ == nullptr) return;
    TraceEvent admit;
    admit.type = TraceEventType::kAdmit;
    admit.ts_us = submit_us;
    admit.uq_id = uq_id;
    admit.shard = static_cast<int16_t>(shard);
    tracer_->Record(admit);
  };
  std::shared_future<QueryOutcome> future = RegisterInFlight(
      uq_id, session, keywords, shard, options, deadline_us);

  bool pushed = options_.block_when_full
                    ? shards_[shard]->SubmitBlocking(std::move(request))
                    : shards_[shard]->TrySubmit(std::move(request));
  if (!pushed && !stopped_ && !ShardHealthy(shard)) {
    // The push bounced off a dead shard, not backpressure: accept the
    // query and hand it to the fault-tolerance layer (retry elsewhere
    // or a terminal kUnavailable — never a hang).
    counters_.submitted.fetch_add(1, std::memory_order_relaxed);
    record_admit();
    FailOverOne(uq_id, Status::Unavailable(
                           "shard " + std::to_string(shard) + " is down"));
    return QueryTicket(uq_id, std::move(future));
  }
  if (!pushed) {
    bool still_inflight;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      still_inflight = inflight_.erase(uq_id) > 0;
    }
    if (!still_inflight) {
      // A shutdown raced this submit and already resolved the ticket
      // (as cancelled) via ResolveAllRemaining — the session/counter
      // accounting happened there; hand the resolved ticket back.
      counters_.submitted.fetch_add(1, std::memory_order_relaxed);
      return QueryTicket(uq_id, std::move(future));
    }
    sessions_.OnRejected(session);
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceEventType::kReject, shard, uq_id);
    }
    return Status::ResourceExhausted(
        "submit queue full or service shutting down");
  }
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  route_counters_[shard].local.fetch_add(1, std::memory_order_relaxed);
  record_admit();
  return QueryTicket(uq_id, std::move(future));
}

int QueryService::Scatter(int uq_id, SessionId session,
                          const std::string& keywords,
                          const CandidateGenOptions& options, bool block) {
  // Generation reads only the shared, immutable dataset, so it runs on
  // the calling thread through any shard's engine.
  Result<UserQuery> gen =
      shards_[0]->engine().GenerateCandidates(keywords, options);
  if (!gen.ok()) {
    Resolve(uq_id, gen.status(), nullptr, nullptr);
    return -1;
  }
  std::vector<int> targets;
  for (int s = 0; s < num_shards(); ++s) {
    if (ShardHealthy(s)) targets.push_back(s);
  }
  if (targets.empty()) {
    Resolve(uq_id, Status::Unavailable("no healthy shard to scatter to"),
            nullptr, nullptr);
    return -1;
  }
  UserQuery uq = std::move(gen).value();
  std::vector<std::vector<ConjunctiveQuery>> parts(targets.size());
  for (size_t i = 0; i < uq.cqs.size(); ++i) {
    parts[i % targets.size()].push_back(std::move(uq.cqs[i]));
  }

  ScatterState state;
  std::vector<std::pair<int, ShardRequest>> to_push;
  for (size_t t = 0; t < targets.size(); ++t) {
    if (parts[t].empty()) continue;
    const int sub_id = next_uq_id_.fetch_add(1, std::memory_order_relaxed);
    auto sub = std::make_unique<UserQuery>();
    sub->id = sub_id;
    sub->user_id = session;
    sub->k = uq.k;
    sub->keywords = uq.keywords;
    sub->cqs = std::move(parts[t]);
    ShardRequest request;
    request.uq_id = sub_id;
    request.user_id = session;
    request.prepared = std::move(sub);
    request.submit_us = NowUs();
    to_push.emplace_back(targets[t], std::move(request));
    state.pending += 1;
    state.sub_shards.push_back(targets[t]);
  }
  {
    std::lock_guard<std::mutex> lock(scatter_mu_);
    for (const auto& [s, request] : to_push) {
      scatter_sub_parent_[request.uq_id] = uq_id;
      // Sub-queries journal (and Explain) under their parent.
      if (journal_ != nullptr) journal_->Alias(request.uq_id, uq_id);
    }
    scatter_.emplace(uq_id, std::move(state));
  }
  for (auto& [s, request] : to_push) {
    const bool pushed = block ? shards_[s]->SubmitBlocking(std::move(request))
                              : shards_[s]->TrySubmit(std::move(request));
    if (!pushed) return s;
  }
  return -1;
}

void QueryService::OnShardCompletion(const EngineShard::Completion& c) {
  int parent = -1;
  {
    std::lock_guard<std::mutex> lock(scatter_mu_);
    auto it = scatter_sub_parent_.find(c.uq_id);
    if (it != scatter_sub_parent_.end()) parent = it->second;
  }
  if (parent >= 0) {
    OnScatterSub(parent, c);
    return;
  }
  Resolve(c.uq_id, c.status, c.metrics, c.results);
}

void QueryService::OnScatterSub(int parent_id,
                                const EngineShard::Completion& c) {
  bool done = false;
  Status error;
  UserQueryMetrics metrics;
  std::vector<std::vector<ResultTuple>> streams;
  {
    std::lock_guard<std::mutex> lock(scatter_mu_);
    scatter_sub_parent_.erase(c.uq_id);
    auto it = scatter_.find(parent_id);
    if (it == scatter_.end()) return;  // aborted or raced a shutdown
    ScatterState& state = it->second;
    // This shard's sub is no longer outstanding: a later failure of the
    // shard must not fail the parent on its account.
    state.sub_shards.erase(std::remove(state.sub_shards.begin(),
                                       state.sub_shards.end(), c.shard),
                           state.sub_shards.end());
    if (c.status.ok()) {
      if (c.results != nullptr) state.streams[c.shard] = *c.results;
      if (c.metrics != nullptr) {
        const UserQueryMetrics& m = *c.metrics;
        if (!state.metrics_init) {
          state.metrics = m;
          state.metrics.uq_id = parent_id;
          state.metrics_init = true;
        } else {
          UserQueryMetrics& agg = state.metrics;
          agg.submit_time_us = std::min(agg.submit_time_us, m.submit_time_us);
          agg.start_time_us = std::min(agg.start_time_us, m.start_time_us);
          agg.complete_time_us =
              std::max(agg.complete_time_us, m.complete_time_us);
          agg.cqs_executed += m.cqs_executed;
          agg.cqs_total += m.cqs_total;
          agg.tuples_from_shared += m.tuples_from_shared;
          agg.est_saved_us += m.est_saved_us;
        }
      }
    } else if (state.error.ok()) {
      state.error = c.status;
    }
    if (--state.pending > 0) return;
    done = true;
    error = state.error;
    metrics = state.metrics;
    for (auto& [shard, stream] : state.streams) {
      streams.push_back(std::move(stream));
    }
    scatter_.erase(it);
  }
  if (!done) return;
  if (!error.ok()) {
    Resolve(parent_id, error, nullptr, nullptr);
    return;
  }
  std::vector<ResultTuple> merged =
      RankMerger::Merge(streams, options_.config.k);
  metrics.results = static_cast<int>(merged.size());
  counters_.cross_shard_merges.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceEventType::kCrossShardMerge, /*shard=*/-1,
                     parent_id, -1, static_cast<int64_t>(streams.size()));
  }
  Resolve(parent_id, Status::OK(), &metrics, &merged);
}

void QueryService::Resolve(int uq_id, Status status,
                           const UserQueryMetrics* metrics,
                           const std::vector<ResultTuple>* results) {
  InFlight entry;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(uq_id);
    if (it == inflight_.end()) return;  // already resolved
    entry = std::move(it->second);
    inflight_.erase(it);
  }

  QueryOutcome outcome;
  outcome.uq_id = uq_id;
  outcome.session_id = entry.session;
  outcome.keywords = std::move(entry.keywords);
  outcome.shard = entry.shard;
  outcome.status = std::move(status);
  outcome.retries = entry.attempts;
  if (metrics != nullptr) outcome.metrics = *metrics;
  if (outcome.status.ok()) {
    if (results != nullptr) outcome.results = *results;
    // One canonical ranking no matter which shard (or how many shards)
    // produced it — see RankMerger.
    RankMerger::Canonicalize(outcome.results, options_.config.k);
    counters_.completed.fetch_add(1, std::memory_order_relaxed);
  } else if (outcome.status.code() == StatusCode::kCancelled) {
    counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
  } else if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
    counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceEventType::kDeadlineExceeded, entry.shard, uq_id);
    }
  } else {
    counters_.failed.fetch_add(1, std::memory_order_relaxed);
  }
  if (outcome.status.ok() && entry.submit_us >= 0) {
    // End-to-end: submit-queue entry to ticket resolution. Scatter
    // parents (shard == -1) account to shard 0's histogram; the
    // aggregate view is unaffected.
    metrics_->Record(ServiceMetric::kEndToEndLatency,
                     entry.shard >= 0 ? entry.shard : 0,
                     std::max<int64_t>(0, NowUs() - entry.submit_us));
  }
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceEventType::kResolve, entry.shard, uq_id, -1,
                     static_cast<int64_t>(outcome.results.size()));
  }
  sessions_.OnResolved(entry.session, outcome.status.ok());

  // Marked resolved before the promise fires: a client that Wait()s on
  // its ticket and then calls Explain(uq) always finds the journal.
  if (journal_ != nullptr) journal_->MarkResolved(uq_id);

  // The promise is resolved first so a misbehaving sink cannot strand
  // the waiting client.
  entry.promise.set_value(outcome);
  if (sink_ != nullptr) sink_->Deliver(outcome);
}

void QueryService::ResolveAllRemaining(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(scatter_mu_);
    scatter_.clear();
    scatter_sub_parent_.clear();
  }
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ids.reserve(inflight_.size());
    for (const auto& [uq_id, entry] : inflight_) ids.push_back(uq_id);
  }
  std::sort(ids.begin(), ids.end());
  for (int uq_id : ids) Resolve(uq_id, status, nullptr, nullptr);
}

void QueryService::OnShardFinished(int shard, const Status& terminal) {
  if (terminal.ok()) return;
  if (stopped_) return;  // Shutdown resolves leftovers itself
  // The shard died mid-serve: fail over every query pinned to it —
  // routed queries on that shard and scatter parents with a sub there
  // — so no client blocks forever while the other shards keep serving.
  // The supervisor reaches the same verdict on its next pass; both
  // paths are idempotent (kAwaitingRetry guard in FailOverOne).
  HandleShardFailure(shard, terminal);
}

void QueryService::SuperviseOnce() {
  if (supervisor_ == nullptr) return;
  const VirtualTime now = NowUs();
  ExpireDeadlines(now);
  std::vector<char> pending(shards_.size(), 0);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (const auto& [uq_id, entry] : inflight_) {
      if (entry.shard >= 0 && entry.shard < num_shards()) {
        pending[entry.shard] = 1;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(scatter_mu_);
    for (const auto& [parent_id, state] : scatter_) {
      for (int s : state.sub_shards) pending[s] = 1;
    }
  }
  for (int i = 0; i < num_shards(); ++i) {
    ShardSupervisor::Observation obs;
    obs.heartbeat = shards_[i]->heartbeat();
    obs.executor_finished = shards_[i]->executor_finished();
    const Status terminal = shards_[i]->terminal_status();
    obs.terminal_failed = !terminal.ok();
    obs.has_pending = pending[static_cast<size_t>(i)] != 0;
    const ShardSupervisor::Verdict v = supervisor_->Observe(i, obs, now);
    if (v.newly_failed) {
      shards_[i]->MarkDown();
      HandleShardFailure(
          i, !terminal.ok()
                 ? terminal
                 : Status::Unavailable("shard " + std::to_string(i) +
                                       " stalled (heartbeat frozen)"));
    }
    if (v.should_restart) TryRestartShard(i);
  }
  ProcessDueRetries(now);
}

void QueryService::ExpireDeadlines(VirtualTime now_us) {
  std::vector<int> expired;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (const auto& [uq_id, entry] : inflight_) {
      if (entry.deadline_us >= 0 && now_us >= entry.deadline_us) {
        expired.push_back(uq_id);
      }
    }
  }
  std::sort(expired.begin(), expired.end());
  for (int uq_id : expired) {
    // Best-effort cancellation: shard-side work may still complete and
    // will be discarded by Resolve's already-resolved guard.
    AbortScatter(uq_id);
    Resolve(uq_id, Status::DeadlineExceeded("query deadline exceeded"),
            nullptr, nullptr);
  }
}

void QueryService::HandleShardFailure(int shard, const Status& cause) {
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(scatter_mu_);
    for (const auto& [parent_id, state] : scatter_) {
      if (std::find(state.sub_shards.begin(), state.sub_shards.end(),
                    shard) != state.sub_shards.end()) {
        ids.push_back(parent_id);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (const auto& [uq_id, entry] : inflight_) {
      if (entry.shard == shard) ids.push_back(uq_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (int uq_id : ids) FailOverOne(uq_id, cause);
}

void QueryService::AbortScatter(int uq_id) {
  std::lock_guard<std::mutex> lock(scatter_mu_);
  auto it = scatter_.find(uq_id);
  if (it == scatter_.end()) return;
  for (auto sit = scatter_sub_parent_.begin();
       sit != scatter_sub_parent_.end();) {
    if (sit->second == uq_id) {
      sit = scatter_sub_parent_.erase(sit);
    } else {
      ++sit;
    }
  }
  scatter_.erase(it);
}

void QueryService::FailOverOne(int uq_id, const Status& cause) {
  AbortScatter(uq_id);
  bool any_healthy = false;
  for (int s = 0; s < num_shards(); ++s) {
    if (ShardHealthy(s)) {
      any_healthy = true;
      break;
    }
  }
  enum class Disposition { kRetry, kGiveUp, kDeadline, kNone };
  Disposition d = Disposition::kNone;
  int attempts = 0;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(uq_id);
    if (it == inflight_.end()) return;       // already resolved
    InFlight& entry = it->second;
    if (entry.shard == kAwaitingRetry) return;  // already scheduled
    if (!any_healthy || stopped_ || entry.attempts >= options_.max_retries) {
      // Nowhere to go, shutting down, or budget spent: resolve with
      // the shard's failure. With no surviving shard this preserves
      // the single-shard contract — the engine's terminal status
      // reaches the client.
      d = Disposition::kGiveUp;
    } else if (entry.deadline_us >= 0 && NowUs() >= entry.deadline_us) {
      d = Disposition::kDeadline;
    } else {
      entry.attempts += 1;
      entry.shard = kAwaitingRetry;
      attempts = entry.attempts;
      d = Disposition::kRetry;
    }
  }
  switch (d) {
    case Disposition::kRetry: {
      std::lock_guard<std::mutex> lock(retry_mu_);
      const int64_t backoff = ShardSupervisor::BackoffUs(
          attempts, options_.retry_backoff_base_ms,
          options_.retry_backoff_max_ms, &backoff_rng_);
      retry_queue_.emplace(NowUs() + backoff, uq_id);
      break;
    }
    case Disposition::kGiveUp:
      Resolve(uq_id, cause, nullptr, nullptr);
      break;
    case Disposition::kDeadline:
      Resolve(uq_id,
              Status::DeadlineExceeded("query deadline exceeded during "
                                       "shard failover"),
              nullptr, nullptr);
      break;
    case Disposition::kNone:
      break;
  }
}

void QueryService::ProcessDueRetries(VirtualTime now_us) {
  std::vector<int> due;
  {
    std::lock_guard<std::mutex> lock(retry_mu_);
    auto end = retry_queue_.upper_bound(now_us);
    for (auto it = retry_queue_.begin(); it != end; ++it) {
      due.push_back(it->second);
    }
    retry_queue_.erase(retry_queue_.begin(), end);
  }
  for (int uq_id : due) {
    SessionId session = -1;
    std::string keywords;
    CandidateGenOptions gen_options;
    VirtualTime deadline_us = -1;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto it = inflight_.find(uq_id);
      if (it == inflight_.end() || it->second.shard != kAwaitingRetry) {
        continue;  // resolved (deadline, shutdown) while queued
      }
      session = it->second.session;
      keywords = it->second.keywords;
      gen_options = it->second.gen_options;
      deadline_us = it->second.deadline_us;
    }
    if (deadline_us >= 0 && now_us >= deadline_us) {
      Resolve(uq_id,
              Status::DeadlineExceeded("query deadline exceeded awaiting "
                                       "retry"),
              nullptr, nullptr);
      continue;
    }
    counters_.retries.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceEventType::kRetry, /*shard=*/-1, uq_id);
    }
    if (options_.config.shard_affinity == ShardAffinity::kScatterCqs &&
        num_shards() > 1) {
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        auto it = inflight_.find(uq_id);
        if (it == inflight_.end()) continue;
        it->second.shard = -1;  // scatter parent again
      }
      const int refused =
          Scatter(uq_id, session, keywords, gen_options, /*block=*/false);
      if (refused >= 0) {
        // The target died between the health check and the push; fail
        // over again (bounded by max_retries).
        FailOverOne(uq_id,
                    Status::Unavailable("re-scatter refused by shard " +
                                        std::to_string(refused)));
      }
      continue;
    }
    // Routed query: re-route to the first healthy shard at or after its
    // home shard.
    int target = -1;
    const int base = router_.Route(keywords);
    for (int off = 0; off < num_shards(); ++off) {
      const int s = (base + off) % num_shards();
      if (ShardHealthy(s)) {
        target = s;
        break;
      }
    }
    if (target < 0) {
      Resolve(uq_id, Status::Unavailable("no healthy shard for retry"),
              nullptr, nullptr);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto it = inflight_.find(uq_id);
      if (it == inflight_.end()) continue;
      it->second.shard = target;
    }
    ShardRequest request;
    request.uq_id = uq_id;
    request.user_id = session;
    request.keywords = keywords;
    request.options = gen_options;
    request.submit_us = NowUs();
    if (!shards_[target]->TrySubmit(std::move(request))) {
      FailOverOne(uq_id,
                  Status::Unavailable("retry refused by shard " +
                                      std::to_string(target)));
    }
  }
}

void QueryService::TryRestartShard(int shard) {
  const Status restarted =
      shards_[shard]->Restart(start_wall_, options_.manual_pump);
  if (restarted.ok()) {
    supervisor_->OnRestartSucceeded(shard);
    counters_.shard_restarts.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceEventType::kShardRestart, shard);
    }
  } else {
    supervisor_->OnRestartFailed(shard);
  }
}

void QueryService::SupervisorLoop() {
  std::unique_lock<std::mutex> lock(supervise_mu_);
  for (;;) {
    supervise_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.supervise_interval_ms),
        [this] { return supervise_stop_; });
    if (supervise_stop_) return;
    lock.unlock();
    SuperviseOnce();
    lock.lock();
  }
}

Status QueryService::Shutdown(ShutdownMode mode) {
  if (!started_) return Status::FailedPrecondition("service not started");
  // shutdown_mu_ serializes concurrent Shutdown calls (and the
  // destructor): only one thread joins the executors, later callers
  // block until it is done and then just report the terminal status.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  bool expected = false;
  if (stopped_.compare_exchange_strong(expected, true)) {
    // Supervision first: no restarts or retries may race the joins.
    if (supervisor_thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(supervise_mu_);
        supervise_stop_ = true;
      }
      supervise_cv_.notify_all();
      supervisor_thread_.join();
    }
    bool cancel = mode == ShutdownMode::kCancelPending;
    for (auto& shard : shards_) shard->RequestStop(cancel);
    Status force_fail;  // non-OK after a timed-out bounded drain
    if (options_.manual_pump) {
      for (auto& shard : shards_) shard->FinishServing();
    } else if (options_.shutdown_wait_ms <= 0) {
      for (auto& shard : shards_) shard->Join();
    } else {
      // Bounded drain: one budget across all shards — a wedged
      // executor must not hang the shutdown (or the destructor).
      const auto deadline =
          Clock::now() + std::chrono::milliseconds(options_.shutdown_wait_ms);
      bool all_done = true;
      for (auto& shard : shards_) {
        const int64_t left_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        if (!shard->FinishedWithin(std::max<int64_t>(left_ms, 0))) {
          all_done = false;
        }
      }
      if (all_done) {
        for (auto& shard : shards_) shard->Join();
      } else {
        // Timed out. Mark the stragglers down (their leftovers are
        // discarded, not drained), release any injected stall gates,
        // give the revived executors a short grace, then detach
        // whatever is truly wedged.
        for (int i = 0; i < num_shards(); ++i) {
          if (!shards_[i]->executor_finished()) shards_[i]->MarkDown();
        }
        if (fault_injector_ != nullptr) fault_injector_->ReleaseStalls();
        for (int i = 0; i < num_shards(); ++i) {
          if (shards_[i]->FinishedWithin(100)) {
            shards_[i]->Join();
          } else {
            if (force_fail.ok()) {
              force_fail = Status::Unavailable(
                  "shutdown timed out waiting for shard " +
                  std::to_string(i));
            }
            shards_[i]->AbandonExecutor();
            abandoned_shards_.push_back(i);
          }
        }
      }
    }
    AggregateSpillGauges();
    // A shard the supervisor already took down surfaced its failure
    // through the failed-over query outcomes; only an *unhandled*
    // terminal failure poisons the shutdown status.
    Status terminal;
    for (auto& shard : shards_) {
      if (shard->down()) continue;
      Status s = shard->terminal_status();
      if (terminal.ok() && !s.ok()) terminal = s;
    }
    // Whatever is still unresolved — queued requests under a cancelling
    // shutdown, batched-but-unflushed queries, or everything in flight
    // after an engine failure or a timed-out drain — resolves now so no
    // client blocks forever.
    Status resolve_status =
        !force_fail.ok()
            ? force_fail
            : (terminal.ok() ? Status::Cancelled("service shut down")
                             : terminal);
    ResolveAllRemaining(resolve_status);
  }
  for (auto& shard : shards_) {
    if (shard->down()) continue;
    Status s = shard->terminal_status();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::vector<ExecStats> QueryService::ShardStatsVec() const {
  std::vector<ExecStats> v;
  v.reserve(shards_.size());
  for (const auto& shard : shards_) v.push_back(shard->stats_snapshot());
  return v;
}

std::vector<SpillStats> QueryService::ShardSpillVec() const {
  std::vector<SpillStats> v;
  v.reserve(shards_.size());
  for (const auto& shard : shards_) v.push_back(shard->spill_snapshot());
  return v;
}

std::vector<RouteStats> QueryService::ShardRoutesVec() const {
  std::vector<RouteStats> v;
  v.reserve(shards_.size());
  for (int i = 0; i < num_shards(); ++i) v.push_back(shard_routes(i));
  return v;
}

std::vector<int64_t> QueryService::ShardPlanGraphOpsVec() const {
  std::vector<int64_t> v;
  v.reserve(shards_.size());
  for (const auto& shard : shards_) {
    v.push_back(shard->plan_graph_operators());
  }
  return v;
}

std::string QueryService::MetricsText() const {
  return metrics_->RenderText() +
         RenderCountersText(counters_, ShardStatsVec(), ShardSpillVec(),
                            ShardRoutesVec(), ShardPlanGraphOpsVec());
}

std::string QueryService::MetricsPrometheus() const {
  return RenderPrometheus(*metrics_, counters_, ShardStatsVec(),
                          ShardSpillVec(), ShardRoutesVec(),
                          ShardPlanGraphOpsVec());
}

Status QueryService::CheckExplainable(int uq_id) const {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition(
        "explain journal disabled (QConfig::explain_journal_queries == 0)");
  }
  if (!journal_->Resolved(uq_id)) {
    return Status::FailedPrecondition(
        "query unknown, unresolved, or evicted from the explain "
        "retention window: uq=" +
        std::to_string(uq_id));
  }
  return Status::OK();
}

Result<std::string> QueryService::Explain(int uq_id) const {
  QSYS_RETURN_IF_ERROR(CheckExplainable(uq_id));
  return journal_->RenderText(uq_id);
}

Result<std::string> QueryService::ExplainJson(int uq_id) const {
  QSYS_RETURN_IF_ERROR(CheckExplainable(uq_id));
  return journal_->RenderJson(uq_id);
}

Result<std::string> QueryService::ExplainEngine() const {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition(
        "explain journal disabled (QConfig::explain_journal_queries == 0)");
  }
  return journal_->RenderEngineText();
}

Status QueryService::DumpTrace(const std::string& path) const {
  if (tracer_ == nullptr) {
    return Status::FailedPrecondition(
        "tracing disabled (QConfig::trace_buffer_events == 0)");
  }
  return WriteChromeTrace(tracer_->Snapshot(), path);
}

Status QueryService::PumpOnce() {
  if (!options_.manual_pump) {
    return Status::FailedPrecondition(
        "PumpOnce requires ServiceOptions::manual_pump");
  }
  if (!started_) return Status::FailedPrecondition("service not started");
  for (auto& shard : shards_) {
    if (shard->down()) continue;  // out of rotation; retries cover it
    shard->PumpOnce();
  }
  SuperviseOnce();
  // A failure the supervision pass just handled (shard marked down,
  // queries failed over) is not the pump's to report; only a failure
  // on a shard still in rotation propagates.
  Status first;
  for (auto& shard : shards_) {
    if (shard->down()) continue;
    Status s = shard->terminal_status();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

}  // namespace qsys
