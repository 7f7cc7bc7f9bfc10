#include "src/shard/shard.h"

#include <optional>
#include <utility>
#include <vector>

namespace qsys {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

EngineShard::EngineShard(int shard_id, const QConfig& config,
                         size_t queue_capacity,
                         ServiceCounters* service_counters)
    : shard_id_(shard_id),
      config_(config),
      engine_(std::make_unique<Engine>(config)),
      queue_(queue_capacity),
      service_counters_(service_counters) {
  live_engine_.store(engine_.get(), std::memory_order_release);
}

EngineShard::~EngineShard() {
  if (executor_.joinable()) {
    queue_.Close();
    executor_.join();
  }
}

VirtualTime EngineShard::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start_wall_)
      .count();
}

Status EngineShard::Start(Clock::time_point start_wall, bool manual) {
  // The owning service finalizes the shared dataset and gives every
  // shard an engine over it before starting any of them — see
  // QueryService::Start(); one finalize site keeps that responsibility
  // unambiguous.
  if (!engine_->finalized()) {
    return Status::FailedPrecondition("catalog not finalized");
  }
  // Completed queries flow: ATC drain worker -> its ATC's completion
  // list -> this sink, which the engine invokes while the executor
  // (coordinator) thread empties the lists inside Drain. The
  // sink also keeps a long-lived shard from accumulating per-query
  // history. The record owns a snapshot of the ranked answers (the
  // merge itself is already retired), so the callback just borrows
  // pointers for its duration; the callee must copy.
  engine_->set_completed_sink([this](Engine::CompletedQuery&& done) {
    if (!completion_fn_) return;
    Completion c;
    c.uq_id = done.metrics.uq_id;
    c.metrics = &done.metrics;
    c.results = &done.results;
    completion_fn_(c);
  });
  start_wall_ = start_wall;
  // Forward the observability sinks before the executor (or any drain
  // worker) exists, so every tracing thread observes them set.
  engine_->SetObservability(tracer_, metrics_, shard_id_);
  engine_->set_journal(journal_);
  manual_ = manual;
  if (!manual) {
    executor_done_.store(false, std::memory_order_release);
    executor_ = std::thread([this] {
      ExecutorLoop();
      MarkExecutorDone();
    });
  }
  return Status::OK();
}

void EngineShard::MarkExecutorDone() {
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    executor_done_.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
}

bool EngineShard::FinishedWithin(int64_t wait_ms) {
  if (executor_finished()) return true;
  std::unique_lock<std::mutex> lock(done_mu_);
  return done_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                           [this] { return executor_finished(); });
}

void EngineShard::MarkDown() {
  down_.store(true, std::memory_order_relaxed);
  // Close the queue AND cancel: a stalled executor that revives at
  // shutdown (released stall gate) must not execute leftovers the
  // service already retried on healthy shards.
  RequestStop(/*cancel_pending=*/true);
}

Status EngineShard::ServeDataset(std::shared_ptr<Dataset> dataset) {
  auto fresh = std::make_unique<Engine>(config_, std::move(dataset));
  QSYS_RETURN_IF_ERROR(fresh->FinalizeCatalog());
  std::lock_guard<std::mutex> lock(engine_mu_);
  // Retire rather than free: service threads may hold an Engine& from
  // engine() (stats readers).
  retired_engines_.push_back(std::move(engine_));
  engine_ = std::move(fresh);
  live_engine_.store(engine_.get(), std::memory_order_release);
  return Status::OK();
}

Status EngineShard::Restart(Clock::time_point start_wall, bool manual) {
  if (!executor_finished()) {
    return Status::FailedPrecondition(
        "shard executor still running; cannot restart");
  }
  Join();  // reap the exited thread object
  QSYS_RETURN_IF_ERROR(ServeDataset(engine_->dataset()));
  cancel_pending_.store(false, std::memory_order_relaxed);
  SetTerminal(Status::OK());
  queue_.Reopen();
  down_.store(false, std::memory_order_relaxed);
  return Start(start_wall, manual);
}

void EngineShard::AbandonExecutor() {
  if (executor_.joinable()) executor_.detach();
}

bool EngineShard::TrySubmit(ShardRequest request) {
  if (down()) return false;
  return queue_.TryPush(std::move(request));
}

void EngineShard::RequestStop(bool cancel_pending) {
  if (cancel_pending) cancel_pending_ = true;
  queue_.Close();
}

void EngineShard::Join() {
  if (executor_.joinable()) executor_.join();
}

Status EngineShard::terminal_status() const {
  std::lock_guard<std::mutex> lock(terminal_mu_);
  return terminal_;
}

void EngineShard::SetTerminal(const Status& status) {
  std::lock_guard<std::mutex> lock(terminal_mu_);
  terminal_ = status;
}

void EngineShard::IngestRequests(std::vector<ShardRequest> requests) {
  if (requests.empty()) return;
  std::lock_guard<std::mutex> lock(engine_mu_);
  for (ShardRequest& r : requests) {
    // Each request arrives when its own ingest starts, not when the
    // first one's did: candidate generation for the requests ahead of
    // it is queue wait too, and must not eat into its batch window.
    const VirtualTime now = NowUs();
    if (r.submit_us >= 0) {
      // Queue wait: submit-queue entry (stamped by the service) to this
      // ingest, both on the service's wall-since-start timeline.
      const int64_t wait_us = std::max<int64_t>(0, now - r.submit_us);
      if (tracer_ != nullptr) {
        tracer_->Span(TraceEventType::kQueueWait, r.submit_us, wait_us,
                      shard_id_, r.uq_id);
      }
      if (metrics_ != nullptr) {
        metrics_->Record(ServiceMetric::kQueueWait, shard_id_, wait_us);
      }
    }
    Status admitted =
        engine_->Ingest(r.uq_id, r.keywords, r.user_id, now, r.options);
    if (!admitted.ok() && completion_fn_) {
      // Candidate generation failed: the query resolves immediately;
      // everyone else keeps being served.
      Completion c;
      c.uq_id = r.uq_id;
      c.status = admitted;
      completion_fn_(c);
    }
  }
}

void EngineShard::PublishStatsLocked() {
  ShardStats s;
  s.exec = engine_->aggregate_stats();
  s.spill = engine_->spill_stats();
  s.plan_graph_operators = engine_->plan_graph_operators();
  s.epochs = epochs_;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = s;
  }
  if (stats_listener_) stats_listener_();
}

bool EngineShard::RunDueEpochs(bool drain_partial) {
  if (injector_ != nullptr) {
    const ShardFaultInjector::Decision d = injector_->OnEpochDrive(
        shard_id_, epoch_seq_.fetch_add(1, std::memory_order_relaxed));
    switch (d.action) {
      case ShardFaultInjector::Action::kCrash: {
        SetTerminal(Status::Unavailable("injected shard crash"));
        std::lock_guard<std::mutex> lock(engine_mu_);
        PublishStatsLocked();
        return false;
      }
      case ShardFaultInjector::Action::kStall:
        // Wedge: frozen heartbeat, no work. A threaded executor blocks
        // on the releasable gate (and resumes if released); a manual
        // driver cannot block the pump, so it skips the epoch instead
        // — same observable symptom, nothing hung.
        if (manual_) return true;
        injector_->BlockWhileStalled();
        break;
      case ShardFaultInjector::Action::kDelay:
        std::this_thread::sleep_for(
            std::chrono::microseconds(d.delay_us));
        break;
      case ShardFaultInjector::Action::kNone:
        break;
    }
  }
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(engine_mu_);
  const int64_t epoch_t0 =
      (tracer_ != nullptr || metrics_ != nullptr) ? NowUs() : 0;
  engine_->ResetRoundBudget();  // max_rounds bounds one epoch
  // The next arrival may come in the next microsecond, so only batches
  // whose deadline has passed flush; a draining shutdown expects no
  // more arrivals and flushes a partial batch too.
  Engine::DrainOptions drain;
  drain.arrival_horizon = drain_partial ? Engine::kNeverUs : NowUs() + 1;
  // The executor thread is the epoch *coordinator*: Drain fans the
  // per-ATC scheduling rounds out to the engine's worker pool
  // (QConfig::exec_threads) and runs every serialized section — flush,
  // optimize, graft, budget enforcement, completion delivery — right
  // here, still under engine_mu_.
  Result<Engine::EpochOutcome> out = engine_->Drain(drain);
  if (!out.ok()) {
    SetTerminal(out.status());
    PublishStatsLocked();
    return false;
  }
  if (out.value().flushes > 0 && service_counters_ != nullptr) {
    service_counters_->batches_flushed.fetch_add(
        out.value().flushes, std::memory_order_relaxed);
  }
  if (out.value().worked) {
    ++epochs_;
    if (service_counters_ != nullptr) {
      service_counters_->epochs.fetch_add(1, std::memory_order_relaxed);
    }
    const int64_t epoch_us = std::max<int64_t>(0, NowUs() - epoch_t0);
    if (tracer_ != nullptr) {
      tracer_->Span(TraceEventType::kEpoch, epoch_t0, epoch_us, shard_id_,
                    -1, -1, out.value().flushes);
    }
    if (metrics_ != nullptr) {
      metrics_->Record(ServiceMetric::kEpochDuration, shard_id_, epoch_us);
    }
    PublishStatsLocked();
  }
  return true;
}

void EngineShard::ExecutorLoop() {
  for (;;) {
    std::optional<Clock::time_point> deadline;
    {
      std::lock_guard<std::mutex> lock(engine_mu_);
      if (engine_->batcher().HasPending()) {
        deadline = start_wall_ + std::chrono::microseconds(
                                     engine_->batcher().NextDeadline());
      }
    }
    std::optional<ShardRequest> first = queue_.PopUntil(deadline);
    if (first.has_value()) {
      std::vector<ShardRequest> requests;
      requests.push_back(std::move(*first));
      for (ShardRequest& r : queue_.DrainNow()) {
        requests.push_back(std::move(r));
      }
      IngestRequests(std::move(requests));
    } else if (queue_.closed() && queue_.size() == 0) {
      break;  // shutdown requested and nothing left to pop
    }
    if (!RunDueEpochs(/*drain_partial=*/false)) break;
  }
  FinishServing();
}

void EngineShard::FinishServing() {
  // This shard serves nothing further: refuse new submits (idempotent
  // after a RequestStop; load-bearing when the engine failed mid-serve
  // — the service keeps routing, and an open queue with no consumer
  // would accept queries whose tickets then hang forever).
  queue_.Close();
  // Anything still queued raced the close; treat it like the batcher's
  // leftovers below.
  std::vector<ShardRequest> leftovers = queue_.DrainNow();
  if (terminal_status().ok() && !cancel_pending_) {
    // Draining shutdown: run everything already accepted to completion,
    // flushing even a batch whose window has not expired.
    IngestRequests(std::move(leftovers));
    RunDueEpochs(/*drain_partial=*/true);
  }
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    engine_->FinishRun();
    PublishStatsLocked();
  }
  if (finished_fn_) finished_fn_(shard_id_, terminal_status());
}

Status EngineShard::PumpOnce() {
  IngestRequests(queue_.DrainNow());
  RunDueEpochs(/*drain_partial=*/false);
  return terminal_status();
}

}  // namespace qsys
