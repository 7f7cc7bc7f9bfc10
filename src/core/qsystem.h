// QSystem: the virtual-clock simulator facade of the reproduction
// (Figure 3 of the paper).
//
// A QSystem wraps an Engine (src/core/engine.h) — the batcher ->
// multi-query optimizer -> graft -> shared ATC pipeline — and drives it
// as a discrete-event simulation: users pose keyword queries at virtual
// times, Run() plays the whole timeline through Engine::Drain() — drain
// to the next arrival, ingest it, repeat — and records per-query
// latencies and work counters. The wall-clock serving layer
// (src/serve/query_service.h) drives the very same Engine::Drain() from
// real client threads instead of a scripted timeline. Each ATC runs its
// scheduling rounds while its clock is below both the next due flush
// and the next arrival, so with QConfig::exec_threads > 1 independent
// ATCs run on separate cores with byte-identical results.
//
// Typical use:
//
//   QSystem sys(config);
//   ... populate sys.catalog(), sys.InitSchemaGraph(), add edges ...
//   QSYS_RETURN_IF_ERROR(sys.FinalizeCatalog());
//   sys.Pose("protein 'plasma membrane' gene", /*user=*/1, /*at=*/0);
//   QSYS_RETURN_IF_ERROR(sys.Run());
//   for (const UserQueryMetrics& m : sys.metrics()) ...

#ifndef QSYS_CORE_QSYSTEM_H_
#define QSYS_CORE_QSYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"

namespace qsys {

/// \brief The Q System middleware, replaying a scripted timeline on a
/// virtual clock.
class QSystem {
 public:
  explicit QSystem(QConfig config);
  ~QSystem();
  QSystem(const QSystem&) = delete;
  QSystem& operator=(const QSystem&) = delete;

  const QConfig& config() const { return engine_->config(); }

  /// The underlying sharing pipeline. Dataset builders target the
  /// Engine so the simulator and the serving layer share them.
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  // ---- setup ----

  /// The simulated remote databases. Register all tables, then call
  /// InitSchemaGraph() to add join edges, then FinalizeCatalog().
  Catalog& catalog() { return engine_->catalog(); }
  const Catalog& catalog() const { return engine_->catalog(); }

  /// Creates the schema graph (requires all tables registered).
  SchemaGraph& InitSchemaGraph() { return engine_->InitSchemaGraph(); }
  SchemaGraph& schema_graph() { return engine_->schema_graph(); }

  /// Finalizes tables, builds the inverted index and the keyword front
  /// end. Must be called once before posing queries.
  Status FinalizeCatalog() { return engine_->FinalizeCatalog(); }

  InvertedIndex& inverted_index() { return engine_->inverted_index(); }

  // ---- posing queries ----

  /// Schedules keyword query `keywords` from `user_id` at virtual time
  /// `at_us`. Per-user candidate-generation options (scoring model,
  /// learned edge-cost factor) may be supplied. Returns the assigned
  /// user-query id.
  Result<int> Pose(const std::string& keywords, int user_id,
                   VirtualTime at_us,
                   const CandidateGenOptions* options = nullptr);

  // ---- execution ----

  /// Plays the discrete-event timeline to completion.
  Status Run();

  // ---- results & metrics ----

  /// Per-user-query outcomes, sorted by user-query id.
  const std::vector<UserQueryMetrics>& metrics() const {
    return engine_->metrics();
  }

  /// Aggregate execution statistics over all ATCs.
  ExecStats aggregate_stats() const { return engine_->aggregate_stats(); }

  /// Top-k results of a completed user query (nullptr if unknown).
  const std::vector<ResultTuple>* ResultsFor(int uq_id) const {
    return engine_->ResultsFor(uq_id);
  }

  /// The generated user query (nullptr if unknown).
  const UserQuery* GetUserQuery(int uq_id) const {
    return engine_->GetUserQuery(uq_id);
  }

  /// One record per optimizer invocation (Figure 11).
  const std::vector<OptimizationRecord>& optimization_records() const {
    return engine_->optimization_records();
  }

  /// Keyword queries that failed candidate generation (unmatched or
  /// unconnectable keywords), with their reasons.
  const std::vector<std::pair<int, Status>>& generation_failures() const {
    return engine_->generation_failures();
  }

  /// Number of ATCs (plan graphs) created — 1 unless ATC-CL.
  int num_atcs() const { return engine_->num_atcs(); }
  const Atc& atc(int i) const { return engine_->atc(i); }

  /// Grafting/reuse observability.
  const PlanGrafter& grafter() const { return engine_->grafter(); }
  StateManager& state_manager() { return engine_->state_manager(); }

 private:
  struct PendingArrival {
    VirtualTime at_us;
    std::string keywords;
    int user_id;
    CandidateGenOptions options;
    int uq_id;
  };

  std::unique_ptr<Engine> engine_;
  std::vector<PendingArrival> arrivals_;  // sorted by time at Run()
};

}  // namespace qsys

#endif  // QSYS_CORE_QSYSTEM_H_
