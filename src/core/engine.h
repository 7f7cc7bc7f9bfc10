// Engine: the sharing pipeline of the Q System, decoupled from any
// particular notion of time.
//
// The Engine reads the simulated remote databases (catalog + schema
// graph + inverted index) through a Dataset it builds or shares, and
// owns the keyword front end, the query batcher, the multiple-query
// optimizer, the query state manager, and one or more ATCs. It exposes
// one drive, Drain(): run every event — batch flushes and ATC
// scheduling rounds — that is due before the driver's next arrival.
//
// Two drivers call it the same way: drain to the next arrival, ingest
// it, repeat.
//
//   * QSystem (src/core/qsystem.h): the virtual-clock discrete-event
//     simulator. Its arrivals are pre-scripted, and it paces ATC rounds
//     to the arrival horizon too (DrainOptions::pace_to_horizon).
//   * EngineShard (src/shard/shard.h), behind QueryService: the
//     wall-clock serving layer. It ingests queries as real clients
//     submit them and drains ATC work eagerly, delivering results
//     through the CompletedSink as rank-merges finish.
//
// The Engine's externally visible surface is single-threaded: drivers
// that accept work from many threads (QueryService) serialize every
// touch behind one per-shard engine lock. Internally, Drain exploits
// many cores: independent ATCs — which share no mutable execution
// state — run their scheduling rounds concurrently on an AtcScheduler
// worker pool (QConfig::exec_threads), each under its own per-ATC
// lock, while the cross-ATC structures (batcher, optimizer, grafter,
// state registry, spill tier) keep a narrow serialized section on the
// coordinating thread. A drain worker appends each query its ATC
// completes to that ATC's completion list, under the ATC lock it
// already holds; the coordinator empties the lists in ATC order once
// the workers are quiesced.

#ifndef QSYS_CORE_ENGINE_H_
#define QSYS_CORE_ENGINE_H_

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/atc_scheduler.h"
#include "src/core/config.h"
#include "src/keyword/candidate_gen.h"
#include "src/obs/histogram.h"
#include "src/obs/trace.h"
#include "src/qs/batcher.h"
#include "src/qs/graft.h"
#include "src/qs/state_manager.h"

namespace qsys {

/// \brief The simulated remote databases (catalog + schema graph) and
/// their keyword index. One engine builds it; it is immutable after
/// that engine's FinalizeCatalog(), so any number of engines may then
/// execute against it read-only (the sharded service gives every shard
/// the same one, and a restarted shard reuses it).
struct Dataset {
  Catalog catalog;
  std::unique_ptr<SchemaGraph> schema_graph;
  /// Built by FinalizeCatalog(); null before.
  std::unique_ptr<InvertedIndex> inverted_index;
};

/// \brief One record of a multiple-query-optimization run (Figure 11).
struct OptimizationRecord {
  /// Candidate inputs considered by the BestPlan search.
  int64_t candidates = 0;
  /// Subexpressions enumerated before pruning.
  int64_t enumerated = 0;
  /// Search nodes expanded.
  int64_t nodes_explored = 0;
  /// Measured wall time of the optimization, seconds.
  double wall_seconds = 0.0;
  /// Queries in the batch.
  int batch_queries = 0;
};

/// \brief The sharing pipeline: batcher -> multi-query optimizer ->
/// graft -> shared ATC execution, driven in epochs by Drain().
class Engine {
 public:
  /// Sentinel "no event / no horizon" virtual time.
  static constexpr VirtualTime kNeverUs =
      std::numeric_limits<VirtualTime>::max();

  /// How Drain() paces the pipeline.
  struct DrainOptions {
    /// Virtual time of the driver's next arrival (kNeverUs: none will
    /// ever come). A batch flush is due only strictly before it, so the
    /// driver ingests the arrival first (arrivals win ties). With no
    /// arrival to wait for, a waiting partial batch flushes at the
    /// earliest legal instant (its latest submit time) instead of at
    /// its window deadline.
    VirtualTime arrival_horizon = kNeverUs;
    /// Bounds ATC rounds by arrival_horizon as well (the simulator),
    /// keeping every event in global virtual-time order. When false
    /// (serving), ATC work is drained eagerly even though ATC clocks
    /// run past the horizon; only flushes wait for it.
    bool pace_to_horizon = false;
  };

  /// An engine over `dataset`: by default a fresh, empty one that this
  /// engine builds; otherwise one another engine already finalized,
  /// which this engine only reads.
  explicit Engine(QConfig config, std::shared_ptr<Dataset> dataset =
                                      std::make_shared<Dataset>());
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const QConfig& config() const { return config_; }

  // ---- setup ----

  /// The simulated remote databases. Register all tables, then call
  /// InitSchemaGraph() to add join edges, then FinalizeCatalog().
  Catalog& catalog() { return data_->catalog; }
  const Catalog& catalog() const { return data_->catalog; }

  /// Creates the schema graph (requires all tables registered).
  SchemaGraph& InitSchemaGraph();
  SchemaGraph& schema_graph() { return *data_->schema_graph; }

  /// Finalizes tables and builds the inverted index (unless the dataset
  /// is already finalized), then builds this engine's keyword front end
  /// and optimizer over it. Must be called once before ingesting
  /// queries; idempotent.
  Status FinalizeCatalog();
  bool finalized() const { return finalized_; }

  InvertedIndex& inverted_index() { return *data_->inverted_index; }

  /// The dataset this engine executes against, for constructing other
  /// engines over it.
  const std::shared_ptr<Dataset>& dataset() const { return data_; }

  // ---- admission ----

  /// Reserves the next user-query id.
  int AllocateUqId() { return next_uq_id_++; }

  /// Runs candidate generation for `keywords` and admits the resulting
  /// user query (id `uq_id`, submitted at virtual time `at_us`) to the
  /// batcher. Returns OK on admission. A query whose keywords match
  /// nothing (or cannot be connected) is recorded in
  /// generation_failures() and its generation status is returned, so
  /// serving drivers can report the failure to the caller; such a
  /// failure is not fatal to the engine.
  Status Ingest(int uq_id, const std::string& keywords, int user_id,
                VirtualTime at_us, const CandidateGenOptions& options);

  /// Candidate generation only: expands `keywords` into a UserQuery
  /// (id/user/submit time unset) without admitting anything. Ingest()
  /// runs it first; it is public so callers can time or inspect
  /// generation on its own. Reads only structures that are immutable
  /// after FinalizeCatalog() (inverted index, schema graph, catalog),
  /// so it is safe to call from any thread concurrently with Drain().
  Result<UserQuery> GenerateCandidates(
      const std::string& keywords, const CandidateGenOptions& options) const;

  // ---- the drive ----

  /// \brief One completed user query, as handed to the CompletedSink:
  /// the per-query metrics plus a copy of its ranked top-k (snapshotted
  /// by the completing ATC's drain worker before the merge is retired).
  struct CompletedQuery {
    UserQueryMetrics metrics;
    std::vector<ResultTuple> results;
  };

  /// Delivery callback for completed queries. Installing one puts the
  /// engine in serving mode: each completion is handed off and its query
  /// retired — its UserQuery, rank-merge, recovery m-joins and replay
  /// streams are freed — and metrics(), optimization_records() and
  /// generation_failures() stay empty, so a long-lived service does not
  /// grow without bound. Without a sink (the simulator) the engine keeps
  /// all of that for post-run reads. Install before the first Ingest();
  /// always invoked on the thread driving Drain(), as the coordinator
  /// empties the per-ATC completion lists — never on a pool worker.
  using CompletedSink = std::function<void(CompletedQuery&&)>;
  void set_completed_sink(CompletedSink sink) {
    completed_sink_ = std::move(sink);
  }

  /// What one Drain() call did.
  struct EpochOutcome {
    /// Batches flushed (optimized + grafted).
    int flushes = 0;
    /// Whether any event (flush or ATC round) ran at all.
    bool worked = false;
  };

  /// Runs every event due under `options`: alternates serialized flush
  /// sections with parallel per-ATC drain segments until nothing more
  /// is runnable. The next flush is due at the batcher's deadline if
  /// that is strictly before the arrival horizon. Each segment runs
  /// every ATC with pending work, on QConfig::exec_threads executors,
  /// while its own clock is below that deadline (and below the horizon
  /// when pace_to_horizon is set). No ATC observes another's rounds, so
  /// per-UQ results and metrics are byte-equivalent at every thread
  /// count.
  Result<EpochOutcome> Drain(const DrainOptions& options);

  /// Monotone progress count — a shard's heartbeat. Drain ticks it once
  /// per loop iteration, each ATC once per scheduling round, and the
  /// optimizer once per BestPlan search node, so a long drain or a long
  /// optimizer run still ticks it, and a supervisor can tell "slow but
  /// alive" from "wedged" without waiting for the epoch to end.
  /// Readable from any thread.
  int64_t progress_ticks() const {
    return progress_ticks_.load(std::memory_order_relaxed);
  }

  /// Restarts the QConfig::max_rounds budget. The simulator calls this
  /// once per Run(); the serving layer once per epoch, so the runaway
  /// guard bounds a single drain rather than the service's lifetime.
  void ResetRoundBudget() { rounds_ = 0; }

  // ---- results & metrics ----

  /// Per-user-query outcomes in completion order; FinishRun() orders
  /// them by user-query id and takes a final source-stats snapshot
  /// (drivers call it once when their timeline/serving loop ends).
  const std::vector<UserQueryMetrics>& metrics() const { return metrics_; }
  void FinishRun();

  /// Aggregate execution statistics over all ATCs.
  ExecStats aggregate_stats() const;

  /// Live plan-graph operators plus replay streams, summed over all
  /// ATCs (the qsys_plan_graph_operators gauge). Read with the ATC
  /// drain workers quiesced.
  int64_t plan_graph_operators() const;

  /// Top-k results of a completed user query (nullptr if unknown).
  const std::vector<ResultTuple>* ResultsFor(int uq_id) const;

  /// The generated user query (nullptr if unknown).
  const UserQuery* GetUserQuery(int uq_id) const;

  /// One record per optimizer invocation (Figure 11).
  const std::vector<OptimizationRecord>& optimization_records() const {
    return opt_records_;
  }

  /// Keyword queries that failed candidate generation (unmatched or
  /// unconnectable keywords), with their reasons.
  const std::vector<std::pair<int, Status>>& generation_failures() const {
    return generation_failures_;
  }

  /// Number of ATCs (plan graphs) created — 1 unless ATC-CL.
  int num_atcs() const { return static_cast<int>(atcs_.size()); }
  const Atc& atc(int i) const { return *atcs_[i]; }

  /// Grafting/reuse observability.
  const PlanGrafter& grafter() const { return *grafter_; }
  StateManager& state_manager() { return *state_manager_; }
  /// Shared streams and probe sources (probe caches count against the
  /// memory budget).
  const SourceManager& sources() const { return *sources_; }
  const QueryBatcher& batcher() const { return batcher_; }

  /// Attaches the serving observability sinks (both may be null; the
  /// simulator never attaches any). `tracer` receives flush / optimize
  /// / graft / per-ATC execution / completion events, forwarded to the
  /// state manager (evictions) and spill tier (demote/restore/barrier)
  /// as well; `metrics` receives the optimize-time distribution.
  /// `shard` tags every event. Call before serving starts (it is read
  /// by drain workers without synchronization afterwards).
  void SetObservability(Tracer* tracer, MetricsRegistry* metrics, int shard);

  /// Attaches the decision journal (may be null; the simulator never
  /// attaches one). Forwarded to the grafter and state manager. Call
  /// after SetObservability (events are tagged with its shard id) and
  /// before serving starts.
  void set_journal(DecisionJournal* journal);

  /// The disk-spill tier (nullptr when QConfig::spill_dir is empty or
  /// the spill directory could not be opened — see spill_status()).
  const SpillManager* spill_manager() const { return spill_manager_.get(); }
  /// Mutable access, for installing a fault-injection seam in tests.
  SpillManager* spill_manager() { return spill_manager_.get(); }
  /// Why spilling is disabled (OK when enabled or never requested).
  const Status& spill_status() const { return spill_status_; }
  /// Aggregate spill counters (all-zero when spilling is disabled).
  SpillStats spill_stats() const {
    return spill_manager_ != nullptr ? spill_manager_->stats()
                                     : SpillStats{};
  }

 private:
  struct ClusterInfo {
    int atc_index;
    std::set<TableId> tables;
  };

  Atc* GetOrCreateAtc(int index_hint, VirtualTime start_time);
  Status FlushBatch(VirtualTime flush_at);
  /// The sharing-config dispatch of FlushBatch (batch is non-empty).
  Status RouteBatch(const std::vector<const UserQuery*>& batch,
                    VirtualTime flush_at);
  Status OptimizeAndGraft(const std::vector<const UserQuery*>& batch,
                          Atc* atc, SharingMode mode, int base_tag,
                          VirtualTime flush_at);
  /// Serving mode: a CompletedSink takes each completion (see
  /// set_completed_sink); otherwise the engine keeps per-query history.
  bool retains_history() const { return !completed_sink_; }

  /// The next due flush deadline: kNeverUs when no flush is due strictly
  /// before `arrival_horizon`.
  VirtualTime NextFlushDeadline(VirtualTime arrival_horizon) const;
  /// Runs every ATC with pending work up to `bound` on the scheduler
  /// pool (per-ATC locks; round budget enforced across workers).
  Status DrainAtcsTo(VirtualTime bound);
  /// Worker-side completion handling for one ATC (caller holds the
  /// ATC's lock): append to the ATC's completion list and, in serving
  /// mode, snapshot the results and retire the merge.
  void HarvestCompletions(Atc* atc);
  /// Coordinator-side, with no drain worker active: empties the
  /// completion lists in ATC order, either recording each query's
  /// metrics or releasing engine bookkeeping and firing the
  /// CompletedSink.
  void DeliverCompletions();

  QConfig config_;
  std::shared_ptr<Dataset> data_;
  std::unique_ptr<KeywordMatcher> matcher_;
  std::unique_ptr<CandidateGenerator> candidate_gen_;
  std::unique_ptr<DelayModel> delays_;
  std::unique_ptr<SourceManager> sources_;
  std::unique_ptr<SpillManager> spill_manager_;
  Status spill_status_;
  std::unique_ptr<StateManager> state_manager_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<PlanGrafter> grafter_;
  QueryBatcher batcher_;
  std::vector<std::unique_ptr<Atc>> atcs_;
  /// Worker pool for ATC drains (created on the first Drain that has
  /// ATC work; spawns exec_threads - 1 workers).
  std::unique_ptr<AtcScheduler> scheduler_;
  /// Drain workers -> coordinator handoff of completed queries, one
  /// list per ATC (indexed by Atc::id()). A worker touches only its
  /// ATC's list, under that ATC's lock; GetOrCreateAtc grows the outer
  /// vector in the serialized section, when no worker runs.
  std::vector<std::vector<CompletedQuery>> harvested_;
  CompletedSink completed_sink_;
  std::vector<ClusterInfo> clusters_;
  std::map<int, std::unique_ptr<UserQuery>> uqs_;
  std::vector<UserQueryMetrics> metrics_;
  std::vector<OptimizationRecord> opt_records_;
  std::vector<std::pair<int, Status>> generation_failures_;
  /// Serving observability (null in the simulator): set once before
  /// serving via SetObservability, read by the coordinator and by
  /// drain workers created afterwards.
  Tracer* tracer_ = nullptr;
  MetricsRegistry* obs_metrics_ = nullptr;
  DecisionJournal* journal_ = nullptr;
  int obs_shard_ = 0;
  int next_uq_id_ = 1;
  int next_cq_id_ = 1;
  int flush_counter_ = 0;
  int64_t rounds_ = 0;
  /// Liveness counter (see progress_ticks()).
  std::atomic<int64_t> progress_ticks_{0};
  bool finalized_ = false;
};

}  // namespace qsys

#endif  // QSYS_CORE_ENGINE_H_
