// One serving shard: an independent Engine plus everything needed to
// drive it concurrently — a bounded MPSC submit queue, a dedicated
// executor thread running shared-execution epochs, the per-epoch
// ShardStats snapshot, and the per-engine coarse lock.
//
// The sharded QueryService (src/serve/query_service.h) owns N of these.
// Each shard is the PR-1 single-engine serving loop, factored out so it
// can be run N times: hash-partitioned queries co-locate with the
// retained state they can share (per-shard ATCs, state manager, and
// optional spill tier), and the shards execute truly independently —
// no lock is shared between two shards' executors. The dataset is the
// one thing shards share: every shard's engine reads the same
// finalized, immutable Dataset.
//
// Threading model: client threads call TrySubmit();
// the executor thread (or the service's PumpOnce() in manual mode) is
// the only *driver* of the Engine, always under engine_mu_. Within an
// epoch the executor acts as coordinator: Engine::Drain fans
// per-ATC scheduling rounds out to the engine's AtcScheduler pool
// (QConfig::exec_threads, each ATC under its own lock) and keeps every
// cross-ATC structure — batcher, optimizer, grafter, state registry,
// spill tier — serialized on the executor thread. Completion and
// shard-finished callbacks fire on the executor thread (a drain worker
// first appends each completion to its ATC's list, which the executor
// empties after the drain barrier). After each epoch the executor
// publishes one ShardStats copy under a small mutex, so any thread
// reads a consistent epoch without touching the engine.

#ifndef QSYS_SHARD_SHARD_H_
#define QSYS_SHARD_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/serve/submit_queue.h"
#include "src/shard/fault_injection.h"

namespace qsys {

/// \brief One routed keyword query for a shard; the shard generates
/// its candidates at ingest.
struct ShardRequest {
  /// Service-global user-query id.
  int uq_id = -1;
  /// Submitting session (becomes UserQuery::user_id).
  int user_id = -1;
  std::string keywords;
  /// Per-session candidate-generation defaults.
  CandidateGenOptions options;
  /// Service virtual time (wall us since Start()) the request entered
  /// the submit queue; -1 when unknown. Basis of the queue-wait span
  /// and histogram.
  VirtualTime submit_us = -1;
};

/// \brief An Engine with its own executor thread and submit queue.
class EngineShard {
 public:
  /// \brief What a shard reports when one user query resolves.
  struct Completion {
    /// The resolved user-query id.
    int uq_id = -1;
    /// OK on normal completion; the generation error otherwise.
    Status status;
    /// Per-query latency/work record; nullptr on failure. Valid only
    /// for the duration of the callback.
    const UserQueryMetrics* metrics = nullptr;
    /// Ranked top-k answers; nullptr on failure. Valid only for the
    /// duration of the callback (the engine retires the merge after).
    const std::vector<ResultTuple>* results = nullptr;
  };

  /// Invoked on the executor thread for every resolved query.
  using CompletionFn = std::function<void(const Completion&)>;
  /// Invoked on the executor thread when the shard stops serving, with
  /// its terminal status (non-OK = the engine failed mid-serve).
  using FinishedFn = std::function<void(int shard, const Status& terminal)>;
  /// Invoked after every stats publication (end of epoch / shutdown),
  /// so the owner can aggregate cross-shard gauges.
  using StatsListener = std::function<void()>;

  /// A shard executing under `config` with a submit queue of
  /// `queue_capacity`. `service_counters` (may be null) receives the
  /// service-wide epoch/batch increments.
  EngineShard(int shard_id, const QConfig& config, size_t queue_capacity,
              ServiceCounters* service_counters);
  ~EngineShard();
  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// This shard's index in the service's shard vector.
  int id() const { return shard_id_; }

  /// The underlying pipeline — for dataset building before Start() and
  /// for read-only observability after. Tear-free across ServeDataset()
  /// and Restart(): the pointer swap is atomic and the previous engine
  /// is retired (kept alive), not freed, so a racing reader stays
  /// valid.
  Engine& engine() {
    return *live_engine_.load(std::memory_order_acquire);
  }
  const Engine& engine() const {
    return *live_engine_.load(std::memory_order_acquire);
  }

  /// Callbacks; set before Start().
  void set_completion_fn(CompletionFn fn) { completion_fn_ = std::move(fn); }
  void set_finished_fn(FinishedFn fn) { finished_fn_ = std::move(fn); }
  void set_stats_listener(StatsListener fn) { stats_listener_ = std::move(fn); }

  /// Fault-injection seam (tests and src/sim/ only; null in
  /// production). Set before Start(); consulted at the top of every
  /// epoch drive.
  void set_fault_injector(ShardFaultInjector* injector) {
    injector_ = injector;
  }

  /// Attaches the service-owned observability sinks (either may be
  /// null); set before Start(), which forwards them into the engine.
  /// This shard records queue-wait and epoch spans/histograms; the
  /// engine records flush/optimize/graft/ATC/spill events.
  void set_observability(Tracer* tracer, MetricsRegistry* metrics,
                         DecisionJournal* journal = nullptr) {
    tracer_ = tracer;
    metrics_ = metrics;
    journal_ = journal;
  }

  /// Begins serving; the owner must have finalized the catalog first
  /// (QueryService::Start() does, for every shard at once). `start_wall`
  /// is the service-wide wall-clock zero (all shards share one virtual
  /// timeline). `manual` suppresses the executor thread (the owner
  /// drives the shard with PumpOnce()).
  Status Start(std::chrono::steady_clock::time_point start_wall, bool manual);

  /// Enqueues without blocking; false when the queue is full or closed,
  /// or the shard is down.
  bool TrySubmit(ShardRequest request);

  /// Begins shutdown: refuses new submits; `cancel_pending` additionally
  /// skips executing whatever has not been grafted yet.
  void RequestStop(bool cancel_pending);
  /// Joins the executor thread (threaded mode; no-op otherwise).
  void Join();
  /// Shutdown tail for manual mode: drain-or-discard leftovers, final
  /// epoch, stats publication, finished callback.
  void FinishServing();

  /// Manual mode: ingest every queued submit, then drain all due
  /// batches and ATC work as one epoch. Returns the terminal status.
  Status PumpOnce();

  /// Terminal executor status (OK unless the engine failed).
  Status terminal_status() const;

  // ---- health surface (any thread; read by the ShardSupervisor) ----

  /// Liveness counter: the live engine's progress ticks (see
  /// Engine::progress_ticks). Frozen exactly while the executor is
  /// wedged (crashed, blocked, or injected stall); a supervisor seeing
  /// pending work and a frozen heartbeat past its stall timeout
  /// declares the shard stalled.
  int64_t heartbeat() const { return engine().progress_ticks(); }

  /// True once the executor thread has exited (trivially true in
  /// manual mode). A crashed shard is restartable only after this.
  bool executor_finished() const {
    return executor_done_.load(std::memory_order_acquire);
  }

  /// Waits up to `wait_ms` for the executor to exit. The bounded-drain
  /// building block: a wedged shard returns false instead of hanging
  /// the caller.
  bool FinishedWithin(int64_t wait_ms);

  /// Supervisor verdict: a down shard refuses submits (TrySubmit
  /// returns false) and discards rather than drains its
  /// queue leftovers, so a late revival cannot double-execute queries
  /// the service already retried elsewhere.
  bool down() const { return down_.load(std::memory_order_relaxed); }
  void MarkDown();

  /// Replaces the engine with a fresh one over `dataset`, which another
  /// engine has finalized. Precondition: no executor is running. The
  /// old engine is retired, not freed — see engine().
  Status ServeDataset(std::shared_ptr<Dataset> dataset);

  /// Tears down a crashed engine and serves again with a fresh one over
  /// the same dataset (queue reopened). Precondition: the executor has
  /// exited.
  Status Restart(std::chrono::steady_clock::time_point start_wall,
                 bool manual);

  /// Last resort for a truly wedged executor with nothing to release:
  /// detaches the thread. The owner MUST leak this shard afterwards
  /// (the detached thread may still touch the engine and queue);
  /// QueryService::Shutdown does so explicitly.
  void AbandonExecutor();

  // ---- observability (any thread) ----

  /// The engine's work counters, spill gauges and plan-graph size as of
  /// the last completed epoch, with the epochs this shard has driven.
  ShardStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  /// Wall microseconds since the service's Start().
  VirtualTime NowUs() const;

 private:
  void ExecutorLoop();
  /// Ingests requests into the batcher in order, each at the virtual
  /// time its own ingest starts.
  void IngestRequests(std::vector<ShardRequest> requests);
  /// Flushes every due batch and drains all ATC work (one epoch).
  /// Returns false after an engine failure.
  bool RunDueEpochs(bool drain_partial);
  /// Publishes the ShardStats snapshot (caller holds engine_mu_).
  void PublishStatsLocked();
  void SetTerminal(const Status& status);
  void MarkExecutorDone();

  const int shard_id_;
  /// Engine config copy: ServeDataset() constructs from it.
  const QConfig config_;
  std::unique_ptr<Engine> engine_;
  /// Engines replaced by ServeDataset(), kept alive for racing readers.
  std::vector<std::unique_ptr<Engine>> retired_engines_;
  /// The engine readers see (== engine_.get(); atomic for tear-free
  /// reads across Restart's swap).
  std::atomic<Engine*> live_engine_{nullptr};
  SubmitQueue<ShardRequest> queue_;
  ServiceCounters* service_counters_;
  /// Service-owned observability sinks (null when disabled).
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  DecisionJournal* journal_ = nullptr;

  CompletionFn completion_fn_;
  FinishedFn finished_fn_;
  StatsListener stats_listener_;
  /// Fault seam (null in production).
  ShardFaultInjector* injector_ = nullptr;

  /// Coarse engine lock: every touch of engine_ after Start().
  std::mutex engine_mu_;
  std::thread executor_;
  std::chrono::steady_clock::time_point start_wall_;
  bool manual_ = false;
  std::atomic<bool> cancel_pending_{false};
  Status terminal_;
  mutable std::mutex terminal_mu_;

  // ---- health state ----
  /// Injector consultation sequence (monotone across restarts).
  std::atomic<int64_t> epoch_seq_{0};
  std::atomic<bool> down_{false};
  /// True when no executor thread is running (manual mode, pre-Start,
  /// or the thread exited). Guarded change + cv for FinishedWithin.
  std::atomic<bool> executor_done_{true};
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  /// Epochs this shard has driven, across restarts (executor thread,
  /// under engine_mu_); the service-wide total accumulates into
  /// service_counters_.
  int64_t epochs_ = 0;
  /// Guards stats_, the snapshot PublishStatsLocked copies out.
  mutable std::mutex stats_mu_;
  ShardStats stats_;
};

}  // namespace qsys

#endif  // QSYS_SHARD_SHARD_H_
