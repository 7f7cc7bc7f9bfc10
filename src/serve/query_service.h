// QueryService: the wall-clock, concurrent, *sharded* front half of the
// Q System.
//
// The paper's middleware amortizes work across *concurrent* keyword
// queries; this layer supplies the concurrency and — since sharding —
// the parallelism. Many client threads submit keyword queries on real
// time; an admission/session layer assigns query ids and enforces
// per-client in-flight caps; a ShardRouter hash-partitions admitted
// queries across QConfig::num_shards independent EngineShards (each a
// full Engine: batcher -> multi-query optimizer -> graft -> shared ATC
// execution, with its own executor thread, bounded submit queue, state
// manager, and optional spill tier), all executing against one shared,
// read-only dataset; and completed top-k answers stream back to the
// waiting callers through futures (QueryTicket) and an optional push
// sink.
//
//   ServiceOptions options;
//   options.config.num_shards = 4;
//   QueryService service(options);
//   QSYS_RETURN_IF_ERROR(service.BuildEachEngine(
//       [](Engine& e) { return BuildGusDataset(e, GusOptions{}); }));
//   QSYS_RETURN_IF_ERROR(service.Start());
//   SessionId session = service.OpenSession("alice").value();
//   QueryTicket ticket =
//       service.Submit(session, "protein membrane").value();
//   const QueryOutcome& out = ticket.Wait();   // ranked ResultTuples
//   QSYS_RETURN_IF_ERROR(service.Shutdown());
//
// Submit has one path: route the query by its canonical signature
// (src/shard/shard_router.h), push it onto that shard's queue without
// blocking, and on a shard failure retry it by routing again, to the
// first healthy shard at or after its home shard. Routing is stable —
// the same logical query always lands on the shard holding its
// reusable state — and a query is never split, so all of its
// conjunctive queries share work in one plan graph. Each shard's
// rank-merge already orders the answers under the canonical total
// order (ResultTupleOrder, src/exec/rank_merge_op.h), so per-UQ results
// are byte-equivalent across shard counts.
//
// Threading model: every external touch of an Engine is serialized
// behind its shard's engine lock, and no lock is shared between two
// shards' executors. Inside an epoch the shard executor acts as
// coordinator: with QConfig::exec_threads > 1 it fans the engine's
// independent ATCs out to a worker pool (multi-core epochs — see
// src/shard/shard.h and src/core/atc_scheduler.h), keeping
// flush/optimize/graft/evict serialized on itself; per-UQ answers are
// byte-equivalent at every thread count. Client-visible numbers cross
// thread boundaries as relaxed-atomic ServiceCounters and as each
// shard's per-epoch ShardStats snapshot (src/common/metrics.h), and
// leave the process as Prometheus text (MetricsPrometheus). Time
// mapping: wall microseconds since Start() form one virtual timeline
// shared by all shards; execution inside an epoch runs as fast as the
// hardware allows (injected wide-area delays advance ATC clocks
// without sleeping, exactly as in the simulator).

#ifndef QSYS_SERVE_QUERY_SERVICE_H_
#define QSYS_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/explain.h"
#include "src/obs/histogram.h"
#include "src/obs/trace.h"
#include "src/serve/result_sink.h"
#include "src/serve/session.h"
#include "src/serve/supervisor.h"
#include "src/shard/shard.h"
#include "src/shard/shard_router.h"

namespace qsys {

/// \brief Configuration of one QueryService instance.
struct ServiceOptions {
  /// Engine configuration (sharing mode, batch size/window, k, ...),
  /// replicated to every shard, plus the shard count (num_shards). The
  /// batch window is interpreted in wall-clock microseconds.
  QConfig config;
  /// Per-shard submit-queue bound (admission backpressure: a submit to
  /// a full queue is rejected with kResourceExhausted).
  size_t queue_capacity = 1024;
  /// Per-session in-flight query cap (0 = uncapped).
  int max_in_flight_per_session = 64;
  /// Test hook: do not spawn executor threads; the test drives the
  /// service deterministically with PumpOnce() / Shutdown().
  bool manual_pump = false;

  // ---- fault tolerance (docs/ARCHITECTURE.md "Fault tolerance") ----

  /// Re-submissions after a shard failure, per query (0 = fail fast).
  int max_retries = 2;
  /// Exponential retry backoff: base_ms << (attempt-1), capped at
  /// max_ms, jittered to 50–150% (ShardSupervisor::BackoffUs).
  int64_t retry_backoff_base_ms = 2;
  int64_t retry_backoff_max_ms = 200;
  /// Supervision cadence in threaded mode (manual_pump runs one pass
  /// per PumpOnce()).
  int64_t supervise_interval_ms = 10;
  /// Declare a shard stalled after this long with pending work and a
  /// frozen heartbeat; 0 disables stall detection.
  int64_t stall_timeout_ms = 1000;
  /// Restarts of a crashed shard, each a fresh engine over the shared
  /// dataset (0 = never restart).
  int max_restarts_per_shard = 1;
  /// Bounded drain: Shutdown(kDrain) waits at most this long for the
  /// shard executors before force-failing the remaining in-flight
  /// queries kUnavailable; 0 = do not wait.
  int64_t shutdown_wait_ms = 30'000;
};

/// \brief Concurrent query-serving facade over N sharded Engines.
class QueryService {
 public:
  enum class ShutdownMode {
    /// Refuse new submits, execute everything already accepted, then
    /// stop: every outstanding ticket resolves with its results.
    kDrain,
    /// Refuse new submits and cancel accepted-but-unexecuted queries:
    /// their tickets resolve with kCancelled.
    kCancelPending,
  };

  explicit QueryService(ServiceOptions options);
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // ---- setup (single-threaded, before Start()) ----

  /// Number of independent engine shards behind this service.
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Shard `i`'s pipeline. Before Start(), shard 0's engine is where
  /// the dataset is built, with the same builders the simulator uses
  /// (BuildGusDataset(Engine&), ...); Start() gives every other shard
  /// an engine over that one dataset.
  Engine& shard_engine(int i) { return shards_[i]->engine(); }

  /// Shard 0's engine (the single-shard accessor).
  Engine& engine() { return shards_[0]->engine(); }

  /// Builds `builder`'s dataset once, through shard 0's engine; Start()
  /// shares it read-only with every other shard.
  Status BuildEachEngine(const std::function<Status(Engine&)>& builder);

  /// Optional push-style delivery, invoked on a shard executor thread
  /// in addition to resolving the ticket future. Set before Start().
  void set_result_sink(ResultSink* sink) { sink_ = sink; }

  /// Finalizes shard 0's dataset, gives every other shard a fresh
  /// engine over it, and starts serving: wall clock zero is now, and
  /// the shard executors begin draining submissions. Fails with
  /// kFailedPrecondition when a shard other than 0 was populated on its
  /// own.
  Status Start();

  // ---- client API (thread-safe after Start()) ----

  /// Registers a client and returns its session id.
  Result<SessionId> OpenSession(const std::string& client_name,
                                const CandidateGenOptions& defaults = {});
  /// Closes a session; queries already admitted keep running.
  Status CloseSession(SessionId session);

  /// Submits one keyword query on the caller's session. The router
  /// picks the executing shard by the query's canonical signature. On
  /// success the returned ticket's future resolves when the shared
  /// execution completes the query's top-k (or its candidate generation
  /// fails). Fails with kResourceExhausted under backpressure (full
  /// shard queue or session cap) and kFailedPrecondition when not
  /// serving.
  Result<QueryTicket> Submit(SessionId session, const std::string& keywords);
  Result<QueryTicket> Submit(SessionId session, const std::string& keywords,
                             const CandidateGenOptions& options);
  /// Submit with a deadline of `deadline_ms` from now (<= 0, like the
  /// shorter overloads: none). A query past its deadline resolves
  /// kDeadlineExceeded at the next supervision pass, so its ticket
  /// never hangs (cheap best-effort cancellation: its shard-side work
  /// may still run to completion and be discarded).
  Result<QueryTicket> Submit(SessionId session, const std::string& keywords,
                             const CandidateGenOptions& options,
                             int64_t deadline_ms);

  /// Stops serving: fans the shutdown out to every shard, joins their
  /// executors, then resolves whatever is still unresolved. Idempotent;
  /// the first call's mode wins. Returns the first shard's non-OK
  /// terminal status, if any.
  Status Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// True between a successful Start() and the first Shutdown().
  bool serving() const { return started_ && !stopped_; }

  // ---- observability ----

  /// Lock-free admission/serving counters, aggregated over all shards.
  const ServiceCounters& counters() const { return counters_; }

  /// The aggregate ExecStats over every shard as of its last completed
  /// epoch (shared-work counters: tuples streamed, probes issued, cache
  /// hits, ...).
  ExecStats stats_snapshot() const;

  /// One shard's snapshot as of its last completed epoch.
  ShardStats shard_stats(int i) const { return shards_[i]->stats(); }

  /// One shard's epoch count (service-wide total: counters().epochs).
  int64_t shard_epochs(int i) const { return shards_[i]->stats().epochs; }

  /// One shard's routing-decision counters: queries routed to it.
  RouteStats shard_routes(int i) const {
    RouteStats r;
    r.local = route_local_[i].load(std::memory_order_relaxed);
    return r;
  }

  /// The query router.
  const ShardRouter& router() const { return router_; }

  /// The session registry (per-session stats, defaults).
  SessionManager& sessions() { return sessions_; }

  /// Wall microseconds since Start() — the service's virtual timeline,
  /// shared by every shard.
  VirtualTime NowUs() const;

  /// Latency histograms (end-to-end, queue wait, optimize time, epoch
  /// duration), per shard and aggregated. Always on; lock-free reads.
  const MetricsRegistry& metrics() const { return *metrics_; }

  /// Every number the service exports, in Prometheus text exposition
  /// format (see src/obs/export.h): the latency histograms as
  /// summaries with shard labels, the qsys_* counters, and the
  /// per-shard spill, plan-graph and ExecStats families. Callable at
  /// any time from any thread; the bench/example `--metrics-out=` flag
  /// writes one scrape to a file.
  std::string MetricsPrometheus() const;

  /// The trace collector, or nullptr when tracing is disabled
  /// (QConfig::trace_buffer_events == 0).
  Tracer* tracer() { return tracer_.get(); }

  /// Writes everything currently in the trace ring buffers to `path`
  /// in Chrome trace_event JSON (open in chrome://tracing or Perfetto).
  /// Callable at any time — concurrent recording is safe — but a dump
  /// after Shutdown() holds the complete span set of the run (bounded
  /// by drop-oldest). Fails with kFailedPrecondition when tracing is
  /// disabled.
  Status DumpTrace(const std::string& path) const;

  /// The decision journal, or nullptr when disabled
  /// (QConfig::explain_journal_queries == 0).
  DecisionJournal* journal() { return journal_.get(); }

  /// The decision journal of one *resolved* user query as deterministic
  /// structured text: every sharing decision made on its behalf (ATC
  /// assignment, costed optimizer alternatives and the winner's margin,
  /// graft reuse vs fresh, replay vs watermark skip) plus the
  /// sharing-benefit summary attributing its inherited warm tuples to
  /// producing queries. Mirrors DumpTrace's contract: fails with
  /// kFailedPrecondition when the journal is disabled, and when `uq_id`
  /// is unknown, unresolved, or already evicted from the retention
  /// window.
  Result<std::string> Explain(int uq_id) const;
  /// The engine-scope decision log (eviction passes, victim scoring,
  /// spill restores — decisions not attributable to one query), across
  /// all shards. kFailedPrecondition when the journal is disabled.
  Result<std::string> ExplainEngine() const;

  /// The shard health supervisor, or nullptr before Start() (it is
  /// always present after Start(), whatever the fault-tolerance knobs).
  const ShardSupervisor* supervisor() const { return supervisor_.get(); }

  // ---- test hooks ----

  /// Installs `injector` on every shard (src/shard/fault_injection.h)
  /// and remembers it so Shutdown() can release blocked stall gates.
  /// Tests and src/sim/ only; call before Start().
  void InstallShardFaultInjector(ShardFaultInjector* injector);

  // ---- test hooks (manual_pump mode only) ----

  /// Runs one executor iteration on every shard synchronously, in shard
  /// order: ingest every queued submit, then drain all due batches and
  /// ATC work as one epoch per shard, then one supervision pass
  /// (deadlines, health verdicts, due retries). Returns the first
  /// failure among shards still in rotation (a shard the supervisor
  /// marked down already failed its queries over; its terminal status
  /// is handled, not propagated).
  Status PumpOnce();

 private:
  /// InFlight::shard value while a retry is queued: the query is
  /// pinned to no shard until ProcessDueRetries re-routes it.
  static constexpr int kAwaitingRetry = -2;

  struct InFlight {
    std::promise<QueryOutcome> promise;
    SessionId session = -1;
    std::string keywords;
    /// Executing shard; kAwaitingRetry between a failover and its
    /// re-submit.
    int shard = -1;
    /// Wall us since Start() at registration — the end-to-end latency
    /// histogram's zero point; -1 before Start().
    VirtualTime submit_us = -1;
    /// Generation options, kept for re-submission on retry.
    CandidateGenOptions gen_options;
    /// Absolute deadline (virtual us); -1 = none.
    VirtualTime deadline_us = -1;
    /// Fault-tolerance re-submissions so far (bounds max_retries).
    int attempts = 0;
  };

  /// Registers an in-flight entry and returns its shared future.
  std::shared_future<QueryOutcome> RegisterInFlight(
      int uq_id, SessionId session, const std::string& keywords, int shard,
      const CandidateGenOptions& options, VirtualTime deadline_us);
  /// The first healthy shard at or after `keywords`' home shard (every
  /// shard serves the same dataset); -1 when no shard is healthy.
  int RouteToHealthy(const std::string& keywords) const;
  /// Shard terminal callback: a shard that failed mid-serve fails every
  /// query pinned to it so no client blocks forever.
  void OnShardFinished(int shard, const Status& terminal);
  /// Resolves one ticket: builds the outcome, updates counters/sessions,
  /// notifies the sink. Runs on shard executor threads for completions.
  void Resolve(int uq_id, Status status, const UserQueryMetrics* metrics,
               const std::vector<ResultTuple>* results);
  /// Resolves every remaining in-flight ticket with `status`.
  void ResolveAllRemaining(const Status& status);

  // ---- fault tolerance (see docs/ARCHITECTURE.md) ----

  /// One supervision pass: expire deadlines, observe every shard's
  /// health (failing over the queries of newly failed shards and
  /// restarting restartable ones), then re-submit due retries.
  void SuperviseOnce();
  /// Resolves every query past its deadline with kDeadlineExceeded.
  void ExpireDeadlines(VirtualTime now_us);
  /// Indexed by shard id: 1 where an in-flight query is pinned.
  std::vector<char> PinnedShards();
  /// Feeds shard `shard`'s health into the supervisor and, when the
  /// verdict is a new failure, takes the shard down and fails its
  /// queries over. The caller acts on `should_restart`.
  ShardSupervisor::Verdict ObserveShard(int shard, bool pinned,
                                        VirtualTime now_us);
  /// Fails over every query pinned to `shard` with `cause`.
  void HandleShardFailure(int shard, const Status& cause);
  /// Retries one query (schedules it with jittered backoff) or, when
  /// its budget/deadline is spent, resolves it with `cause`.
  void FailOverOne(int uq_id, const Status& cause);
  /// Re-submits every retry whose backoff has elapsed.
  void ProcessDueRetries(VirtualTime now_us);
  /// Attempts a supervisor-approved engine restart of `shard`.
  void TryRestartShard(int shard);
  /// True when `shard` may receive (re-)submissions.
  bool ShardHealthy(int shard) const;
  /// Threaded supervision driver (runs every supervise_interval_ms).
  void SupervisorLoop();
  /// Re-aggregates spill gauges over all shards into counters_.
  void AggregateSpillGauges();
  /// Per-shard snapshots, indexed by shard id.
  std::vector<ShardStats> ShardStatsVec() const;
  std::vector<RouteStats> ShardRoutesVec() const;

  ServiceOptions options_;
  /// Observability sinks, shared by every shard. Declared before (and
  /// therefore destroyed after) shards_: executor threads and engines
  /// hold raw pointers into both until the shards are torn down.
  /// metrics_ is always present; tracer_ only when
  /// QConfig::trace_buffer_events > 0, journal_ only when
  /// QConfig::explain_journal_queries > 0.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<DecisionJournal> journal_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  ShardRouter router_;
  SessionManager sessions_;
  ResultSink* sink_ = nullptr;
  /// Queries routed to each shard (relaxed atomics, incremented on the
  /// submitting thread after a successful push). Indexed by shard id;
  /// sized once at construction (atomics are neither copyable nor
  /// movable — never resized).
  std::vector<std::atomic<int64_t>> route_local_;

  std::mutex inflight_mu_;
  std::unordered_map<int, InFlight> inflight_;

  // ---- fault tolerance ----
  /// Health state machine (created by Start()).
  std::unique_ptr<ShardSupervisor> supervisor_;
  /// Queries awaiting re-submission: due virtual time -> uq_id.
  /// Guarded by retry_mu_ (never taken with inflight_mu_ held).
  std::mutex retry_mu_;
  std::multimap<VirtualTime, int> retry_queue_;
  uint64_t backoff_rng_ = 0x6a09e667f3bcc908ull;
  /// Installed injector (tests/sim), remembered so a bounded Shutdown
  /// can release blocked stall gates before force-failing.
  ShardFaultInjector* fault_injector_ = nullptr;
  /// Threaded supervision (absent under manual_pump).
  std::thread supervisor_thread_;
  std::mutex supervise_mu_;
  std::condition_variable supervise_cv_;
  bool supervise_stop_ = false;
  /// Shards whose wedged executors a bounded Shutdown detached. Their
  /// EngineShard objects are intentionally leaked at destruction (the
  /// detached thread may still reference them); only reachable for
  /// non-releasable wedges — never in the test/CI suites.
  std::vector<int> abandoned_shards_;

  /// Serializes AggregateSpillGauges() across shard executors.
  std::mutex gauges_mu_;

  /// Serializes Shutdown() callers around the executor joins.
  std::mutex shutdown_mu_;
  std::chrono::steady_clock::time_point start_wall_;
  std::atomic<int> next_uq_id_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  ServiceCounters counters_;
};

}  // namespace qsys

#endif  // QSYS_SERVE_QUERY_SERVICE_H_
