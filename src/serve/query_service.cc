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
      router_(options_.config.num_shards),
      sessions_(options_.max_in_flight_per_session),
      route_local_(
          static_cast<size_t>(std::max(1, options_.config.num_shards))) {
  int n = std::max(1, options_.config.num_shards);
  metrics_ = std::make_unique<MetricsRegistry>(n);
  if (options_.config.trace_buffer_events > 0) {
    tracer_ = std::make_unique<Tracer>(options_.config.trace_buffer_events);
  }
  if (options_.config.explain_journal_queries > 0) {
    journal_ = std::make_unique<DecisionJournal>(
        options_.config.explain_journal_queries);
  }
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) {
    QConfig config = options_.config;
    config.num_shards = n;  // normalized
    shards_.push_back(std::make_unique<EngineShard>(
        i, config, options_.queue_capacity, &counters_));
  }
  for (auto& shard : shards_) {
    shard->set_completion_fn([this](const EngineShard::Completion& c) {
      Resolve(c.uq_id, c.status, c.metrics, c.results);
    });
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
  for (const auto& shard : shards_) total.Merge(shard->stats().exec);
  return total;
}

void QueryService::AggregateSpillGauges() {
  // Serialized: concurrent shard executors each publish a sum, and
  // StoreSpill writes eight independent atomics — interleaving two sums
  // would leave a torn (internally inconsistent) snapshot.
  std::lock_guard<std::mutex> lock(gauges_mu_);
  SpillStats sum;
  for (const auto& shard : shards_) {
    const SpillStats s = shard->stats().spill;
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
  start_wall_ = Clock::now();
  // Trace timestamps and UserQuery submit times share one zero point.
  if (tracer_ != nullptr) tracer_->set_time_zero(start_wall_);
  SupervisorPolicy policy;
  policy.stall_timeout_us = options_.stall_timeout_ms * 1000;
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
  return Submit(session, keywords, options, /*deadline_ms=*/0);
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

int QueryService::RouteToHealthy(const std::string& keywords) const {
  const int home = router_.Route(keywords);
  for (int off = 0; off < num_shards(); ++off) {
    const int s = (home + off) % num_shards();
    if (ShardHealthy(s)) return s;
  }
  return -1;
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
  const VirtualTime deadline_us =
      deadline_ms > 0 ? NowUs() + deadline_ms * 1000 : -1;

  // Every shard serves the same dataset, so route new traffic around a
  // failed home shard instead of bouncing off its closed queue. With no
  // healthy shard the push below fails and the query fails over.
  int shard = RouteToHealthy(keywords);
  if (shard < 0) shard = router_.Route(keywords);

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

  const bool pushed = shards_[shard]->TrySubmit(std::move(request));
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
  route_local_[shard].fetch_add(1, std::memory_order_relaxed);
  record_admit();
  return QueryTicket(uq_id, std::move(future));
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
    // End-to-end: submit-queue entry to ticket resolution.
    metrics_->Record(ServiceMetric::kEndToEndLatency, entry.shard,
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
  // The shard died mid-serve: fail over every query pinned to it, so
  // no client blocks forever while the other shards keep serving.
  // The supervisor reaches the same verdict on its next pass; both
  // paths are idempotent (kAwaitingRetry guard in FailOverOne).
  HandleShardFailure(shard, terminal);
}

std::vector<char> QueryService::PinnedShards() {
  std::vector<char> pinned(shards_.size(), 0);
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (const auto& [uq_id, entry] : inflight_) {
    if (entry.shard >= 0 && entry.shard < num_shards()) {
      pinned[entry.shard] = 1;
    }
  }
  return pinned;
}

void QueryService::SuperviseOnce() {
  if (supervisor_ == nullptr) return;
  const VirtualTime now = NowUs();
  ExpireDeadlines(now);
  const std::vector<char> pending = PinnedShards();
  for (int i = 0; i < num_shards(); ++i) {
    if (ObserveShard(i, pending[static_cast<size_t>(i)] != 0, now)
            .should_restart) {
      TryRestartShard(i);
    }
  }
  ProcessDueRetries(now);
}

ShardSupervisor::Verdict QueryService::ObserveShard(int shard, bool pinned,
                                                    VirtualTime now_us) {
  ShardSupervisor::Observation obs;
  obs.heartbeat = shards_[shard]->heartbeat();
  obs.executor_finished = shards_[shard]->executor_finished();
  const Status terminal = shards_[shard]->terminal_status();
  obs.terminal_failed = !terminal.ok();
  obs.has_pending = pinned;
  const ShardSupervisor::Verdict v = supervisor_->Observe(shard, obs, now_us);
  if (v.newly_failed) {
    shards_[shard]->MarkDown();
    HandleShardFailure(
        shard, !terminal.ok()
                   ? terminal
                   : Status::Unavailable("shard " + std::to_string(shard) +
                                         " stalled (heartbeat frozen)"));
  }
  return v;
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
    Resolve(uq_id, Status::DeadlineExceeded("query deadline exceeded"),
            nullptr, nullptr);
  }
}

void QueryService::HandleShardFailure(int shard, const Status& cause) {
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (const auto& [uq_id, entry] : inflight_) {
      if (entry.shard == shard) ids.push_back(uq_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (int uq_id : ids) FailOverOne(uq_id, cause);
}

void QueryService::FailOverOne(int uq_id, const Status& cause) {
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
    const int target = RouteToHealthy(keywords);
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
    // Supervision has stopped, so the supervisor never saw a shard
    // that failed during the final drain. If no in-flight query is
    // pinned to it the failure stranded nothing: run one supervision
    // step for it, which records the failure and takes the shard down,
    // and make no restart. A failure that strands queries resolves
    // them below.
    const std::vector<char> pinned = PinnedShards();
    const VirtualTime now = NowUs();
    for (int i = 0; i < num_shards(); ++i) {
      if (pinned[static_cast<size_t>(i)] == 0 && !shards_[i]->down() &&
          !shards_[i]->terminal_status().ok()) {
        ObserveShard(i, /*pinned=*/false, now);
      }
    }
    // A shard taken down surfaced its failure through the failed-over
    // query outcomes and the supervisor's record; only an *unhandled*
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

std::vector<ShardStats> QueryService::ShardStatsVec() const {
  std::vector<ShardStats> v;
  v.reserve(shards_.size());
  for (const auto& shard : shards_) v.push_back(shard->stats());
  return v;
}

std::vector<RouteStats> QueryService::ShardRoutesVec() const {
  std::vector<RouteStats> v;
  v.reserve(shards_.size());
  for (int i = 0; i < num_shards(); ++i) v.push_back(shard_routes(i));
  return v;
}

std::string QueryService::MetricsPrometheus() const {
  return RenderPrometheus(*metrics_, counters_, ShardStatsVec(),
                          ShardRoutesVec());
}

Result<std::string> QueryService::Explain(int uq_id) const {
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
  return journal_->RenderText(uq_id);
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
